//! Run one scenario end to end and judge it.
//!
//! A campaign is: a failure-free reference run, then the adversarial
//! run (kills + faulty storage + tiers) with a trace sink and metrics
//! registry attached, then the verdict pipeline — output comparison
//! against the reference, the `c3verify` state analyzer, the
//! happens-before race checker, and the `c3obs` metrics health check.
//! All three checkers are called through the [`c3verify::verdict`]
//! library API (no subprocesses).
//!
//! An optional [`Plant`] mutates the recorded trace before verification
//! — an intentionally introduced protocol bug, used to prove the fuzzer
//! and shrinker actually catch one.

use std::fmt;

use c3_apps::{DenseCg, Laplace};
use c3_core::trace::{TraceEvent, TraceRecord};
use c3_core::{run_job, C3App, C3Config, TraceSink};
use c3verify::{verdict_records, CheckKind, Report};

use crate::scenario::{AppChoice, Scenario};

/// Why a campaign failed.
#[derive(Debug)]
pub enum FuzzFailure {
    /// The adversarial job errored instead of recovering (or the
    /// reference itself failed).
    JobError(String),
    /// The adversarial run's outputs differ from the reference's.
    OutputDivergence {
        /// Reference outputs, `Debug`-rendered.
        expected: String,
        /// Adversarial outputs, `Debug`-rendered.
        actual: String,
    },
    /// The state analyzer (I1..I14 + T0) flagged the trace.
    Invariants(Report),
    /// The happens-before checker (R0..R6) flagged the trace.
    Races(Report),
    /// The metrics health check flagged the run.
    Health(Vec<String>),
}

impl FuzzFailure {
    /// Short stable label for shrinking (two failures are "the same"
    /// when their labels match).
    pub fn label(&self) -> String {
        match self {
            FuzzFailure::JobError(_) => "job-error".into(),
            FuzzFailure::OutputDivergence { .. } => "output-divergence".into(),
            FuzzFailure::Invariants(r) => match r.violations.first() {
                Some(v) => format!("invariant-{}", v.invariant),
                None => "invariant".into(),
            },
            FuzzFailure::Races(r) => match r.violations.first() {
                Some(v) => format!("race-{}", v.invariant),
                None => "race".into(),
            },
            FuzzFailure::Health(_) => "health".into(),
        }
    }
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::JobError(e) => write!(f, "job error: {e}"),
            FuzzFailure::OutputDivergence { expected, actual } => write!(
                f,
                "output divergence:\n  expected {expected}\n  actual   \
                 {actual}"
            ),
            FuzzFailure::Invariants(r) => {
                write!(f, "invariant violations:\n{}", r.render())
            }
            FuzzFailure::Races(r) => {
                write!(f, "happens-before races:\n{}", r.render())
            }
            FuzzFailure::Health(v) => {
                write!(f, "metrics health violations:\n{}", v.join("\n"))
            }
        }
    }
}

/// An intentionally planted protocol bug, applied to the recorded trace
/// before verification — the fuzzer's own regression test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// Hoist a commit before its pipeline drain barrier: erase the
    /// initiator's `PipelineDrained` record for a committed line, so
    /// the trace claims the commit happened without waiting for the
    /// async writes to land. The analyzer must flag it (I13).
    HoistCommitBeforeDrain,
}

impl Plant {
    /// Apply the bug to `records`. Returns false when the trace has no
    /// site to plant it at (e.g. no line ever committed).
    pub fn apply(&self, records: &mut Vec<TraceRecord>) -> bool {
        match self {
            Plant::HoistCommitBeforeDrain => {
                let committed: Vec<u64> = records
                    .iter()
                    .filter_map(|r| match r.event {
                        TraceEvent::Commit { ckpt } => Some(ckpt),
                        _ => None,
                    })
                    .collect();
                let Some(idx) = records.iter().position(|r| {
                    matches!(
                        r.event,
                        TraceEvent::PipelineDrained { ckpt, .. }
                            if committed.contains(&ckpt)
                    )
                }) else {
                    return false;
                };
                records.remove(idx);
                true
            }
        }
    }
}

/// What one campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Rollback/restart cycles the adversarial run performed.
    pub restarts: usize,
    /// Highest committed checkpoint line at the end.
    pub last_committed: Option<u64>,
    /// Storage faults the staging backend injected.
    pub storage_faults: u64,
    /// Adversarial outputs, `Debug`-rendered (the determinism tests
    /// compare these across runs).
    pub outputs: String,
    /// The recorded trace in canonical `(rank, attempt, seq)` order,
    /// after any [`Plant`] mutation.
    pub records: Vec<TraceRecord>,
    /// Whether the requested plant found a site to apply at.
    pub plant_applied: bool,
    /// The verdict: `None` means the campaign is clean.
    pub failure: Option<FuzzFailure>,
}

/// Canonical order for cross-run trace comparison: ranks interleave
/// their appends into the shared sink nondeterministically, but each
/// rank's own stream is totally ordered by `(attempt, seq)`.
pub fn canonicalize(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    records.sort_by_key(|r| (r.rank, r.attempt, r.seq));
    records
}

/// Run the campaign for `scenario`, optionally planting a bug into the
/// recorded trace before verification.
pub fn run_campaign(
    scenario: &Scenario,
    plant: Option<Plant>,
) -> CampaignOutcome {
    match scenario.app {
        AppChoice::DenseCg { n, iters } => {
            run_app(scenario, &DenseCg::new(n, iters), plant)
        }
        AppChoice::Laplace { n, iters } => {
            run_app(scenario, &Laplace { n, iters }, plant)
        }
    }
}

fn run_app<A>(
    scenario: &Scenario,
    app: &A,
    plant: Option<Plant>,
) -> CampaignOutcome
where
    A: C3App,
    A::Output: PartialEq + fmt::Debug,
{
    let fail = |failure: FuzzFailure| CampaignOutcome {
        scenario: scenario.clone(),
        restarts: 0,
        last_committed: None,
        storage_faults: 0,
        outputs: String::new(),
        records: Vec::new(),
        plant_applied: false,
        failure: Some(failure),
    };

    // Failure-free reference: same app, same world size, plain
    // storage. Its outputs define "correct".
    let reference_cfg = match scenario.interval {
        Some(k) => C3Config::every_ops(k),
        None => C3Config::default(),
    };
    let reference = match run_job(scenario.nranks, &reference_cfg, None, app) {
        Ok(r) => r,
        Err(e) => {
            return fail(FuzzFailure::JobError(format!(
                "reference run failed: {e}"
            )))
        }
    };

    // The adversarial run: everything the seed derived, plus a trace
    // sink and metrics registry for the verdict pipeline.
    let sink = TraceSink::new();
    let reg = c3obs::Registry::new();
    let cfg = scenario
        .config()
        .with_trace(sink.clone())
        .with_obs(reg.clone());
    let backend = scenario.backend();
    let report =
        match run_job(scenario.nranks, &cfg, Some(backend.clone()), app) {
            Ok(r) => r,
            Err(e) => return fail(FuzzFailure::JobError(e.to_string())),
        };

    let mut records = canonicalize(sink.take());
    let plant_applied = match plant {
        Some(p) => p.apply(&mut records),
        None => false,
    };

    let mut failure = None;
    if report.outputs != reference.outputs {
        failure = Some(FuzzFailure::OutputDivergence {
            expected: format!("{:?}", reference.outputs),
            actual: format!("{:?}", report.outputs),
        });
    }
    if failure.is_none() {
        let v = verdict_records(CheckKind::Invariants, &records);
        if v.exit_code() != 0 {
            let report = v.files.into_iter().next().unwrap().outcome.unwrap();
            failure = Some(FuzzFailure::Invariants(report));
        }
    }
    if failure.is_none() {
        let v = verdict_records(CheckKind::Races, &records);
        if v.exit_code() != 0 {
            let report = v.files.into_iter().next().unwrap().outcome.unwrap();
            failure = Some(FuzzFailure::Races(report));
        }
    }
    if failure.is_none() {
        let violations = c3_core::health_check(&reg.snapshot());
        if !violations.is_empty() {
            failure = Some(FuzzFailure::Health(violations));
        }
    }

    CampaignOutcome {
        scenario: scenario.clone(),
        restarts: report.restarts,
        last_committed: report.last_committed,
        storage_faults: backend.faults_injected(),
        outputs: format!("{:?}", report.outputs),
        records,
        plant_applied,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built minimal scenario: 2 ranks, no adversity at all.
    fn tame() -> Scenario {
        Scenario {
            seed: 0,
            nranks: 2,
            app: AppChoice::Laplace { n: 8, iters: 10 },
            interval: Some(6),
            sync_io: true,
            chunker: c3_core::Chunker::default(),
            keep_last: 1,
            tiers: None,
            faults: ckptstore::FaultPlan::none(),
            schedule: ftsim::FailureSchedule::none(),
        }
    }

    #[test]
    fn a_tame_scenario_runs_clean() {
        let out = run_campaign(&tame(), None);
        assert!(out.failure.is_none(), "{}", out.failure.unwrap());
        assert_eq!(out.restarts, 0);
        assert!(out.last_committed.is_some(), "lines must commit");
        assert!(!out.records.is_empty(), "trace must be recorded");
    }

    #[test]
    fn a_kill_recovers_and_verifies() {
        let sc = Scenario {
            nranks: 3,
            app: AppChoice::Laplace { n: 16, iters: 30 },
            interval: Some(8),
            sync_io: false,
            chunker: c3_core::Chunker::cdc(1024),
            schedule: ftsim::FailureSchedule::single(1, 40),
            ..tame()
        };
        let out = run_campaign(&sc, None);
        assert!(out.failure.is_none(), "{}", out.failure.unwrap());
        assert!(out.restarts >= 1, "the kill must fire");
    }

    #[test]
    fn the_planted_drain_hoist_is_detected() {
        let sc = Scenario {
            app: AppChoice::Laplace { n: 8, iters: 16 },
            sync_io: false,
            ..tame()
        };
        let out = run_campaign(&sc, Some(Plant::HoistCommitBeforeDrain));
        assert!(out.plant_applied, "a committing run has a plant site");
        match &out.failure {
            Some(FuzzFailure::Invariants(r)) => {
                assert!(
                    r.violations
                        .iter()
                        .any(|v| v.invariant.starts_with("I13")),
                    "hoisted commit must trip I13:\n{}",
                    r.render()
                );
            }
            other => panic!("expected an I13 verdict, got {other:?}"),
        }
        assert_eq!(
            out.failure.unwrap().label(),
            "invariant-I13-drain-before-commit"
        );
    }
}

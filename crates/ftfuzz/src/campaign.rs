//! One driver, and the fuzzer's campaigns through it.
//!
//! [`run_case`] runs the failure-free reference, then the adversarial
//! job, traced and metered, on a [`FaultInjectingBackend`] with the
//! adversary's storage faults. Its one verdict checks, in order, the
//! outputs against the reference, the `c3verify` analyzer, the race
//! checker and the `c3obs` health check. The trace is written to
//! `target/c3-traces/<name>.c3trace` for the CI `c3verify` jobs. A
//! campaign is [`run_case`] on a [`Scenario`], optionally with a
//! [`Plant`]: a protocol bug planted in the trace before it is judged.

use std::fmt;
use std::sync::Arc;

use c3_apps::{DenseCg, Laplace};
use c3_core::trace::{TraceEvent, TraceRecord};
use c3_core::{run_job, C3App, C3Config, ProcStats, TraceSink};
use c3verify::Report;
use ckptstore::{FaultInjectingBackend, MemoryBackend};

use crate::scenario::{AppChoice, Scenario};
use crate::schedule::Adversary;

/// Why a case failed.
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
    /// The state analyzer (I1..I16 + T0) flagged the trace.
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

/// What one case produced.
#[derive(Debug, Default)]
pub struct CaseOutcome {
    /// Rollback-restart cycles of the adversarial run.
    pub restarts: usize,
    /// Completed online splices of the adversarial run.
    pub splices: usize,
    /// The line each rollback restarted from (0 = from scratch).
    pub recovered_from: Vec<u64>,
    /// Highest committed checkpoint line at the end.
    pub last_committed: Option<u64>,
    /// Per-rank protocol counters of the adversarial run.
    pub stats: Vec<ProcStats>,
    /// Storage faults the backend injected.
    pub storage_faults: u64,
    /// Adversarial outputs, `Debug`-rendered.
    pub outputs: String,
    /// The recorded trace in canonical `(rank, attempt, seq)` order,
    /// after any [`Plant`] mutation.
    pub records: Vec<TraceRecord>,
    /// Whether the requested plant found a site to apply at.
    pub plant_applied: bool,
    /// The verdict: `None` means the case is clean.
    pub failure: Option<FuzzFailure>,
}

impl CaseOutcome {
    /// This outcome, which must be clean: panics with `name` and the
    /// verdict otherwise.
    pub fn clean(self, name: &str) -> Self {
        match &self.failure {
            Some(f) => panic!("{name}: {f}"),
            None => self,
        }
    }
}

/// Run `app` on `nranks` ranks under `job` failure-free, then under
/// `job` with `adversary` applied, and judge the second run against the
/// first. `job` carries what is not adversarial: the checkpoint cadence,
/// the wire mode, the chunker and retention.
pub fn run_case<A>(
    name: &str,
    nranks: usize,
    app: &A,
    job: &C3Config,
    adversary: &Adversary,
) -> CaseOutcome
where
    A: C3App,
    A::Output: PartialEq + fmt::Debug,
{
    drive(name, nranks, app, job, adversary, None)
}

/// [`run_case`], with `plant` applied to the recorded trace before it
/// is judged. The trace file holds the trace as recorded.
fn drive<A>(
    name: &str,
    nranks: usize,
    app: &A,
    job: &C3Config,
    adversary: &Adversary,
    plant: Option<Plant>,
) -> CaseOutcome
where
    A: C3App,
    A::Output: PartialEq + fmt::Debug,
{
    let failed = |e: String| CaseOutcome {
        failure: Some(FuzzFailure::JobError(e)),
        ..CaseOutcome::default()
    };
    let reference = match run_job(nranks, job, None, app) {
        Ok(r) => r,
        Err(e) => return failed(format!("reference run failed: {e}")),
    };

    let sink = TraceSink::new();
    let reg = c3obs::Registry::new();
    let cfg = adversary
        .apply(job.clone())
        .with_trace(sink.clone())
        .with_obs(reg.clone());
    let backend = Arc::new(FaultInjectingBackend::new(
        Arc::new(MemoryBackend::new()),
        adversary.faults.clone(),
    ));
    let report = match run_job(nranks, &cfg, Some(backend.clone()), app) {
        Ok(r) => r,
        Err(e) => return failed(e.to_string()),
    };

    let mut records = canonicalize(sink.take());
    c3verify::write_trace(name, &records).expect("write the trace artifact");
    let plant_applied = plant.is_some_and(|p| p.apply(&mut records));

    let failure = if report.outputs != reference.outputs {
        Some(FuzzFailure::OutputDivergence {
            expected: format!("{:?}", reference.outputs),
            actual: format!("{:?}", report.outputs),
        })
    } else {
        let dirty = |r: Report| (!r.is_clean()).then_some(r);
        let health = c3_core::health_check(&reg.snapshot());
        dirty(c3verify::analyze(&records))
            .map(FuzzFailure::Invariants)
            .or_else(|| {
                dirty(c3verify::race_check(&records)).map(FuzzFailure::Races)
            })
            .or_else(|| {
                (!health.is_empty()).then_some(FuzzFailure::Health(health))
            })
    };

    CaseOutcome {
        restarts: report.restarts,
        splices: report.splices,
        recovered_from: report.recovered_from,
        last_committed: report.last_committed,
        stats: report.stats,
        storage_faults: backend.faults_injected(),
        outputs: format!("{:?}", report.outputs),
        records,
        plant_applied,
        failure,
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

/// Canonical order for cross-run trace comparison: ranks interleave
/// their appends into the shared sink nondeterministically, but each
/// rank's own stream is totally ordered by `(attempt, seq)`.
pub fn canonicalize(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    records.sort_by_key(|r| (r.rank, r.attempt, r.seq));
    records
}

/// Run the campaign for `scenario` through [`run_case`], optionally
/// planting a bug into the recorded trace before it is judged. The
/// trace is written as `fuzz_s<seed>`.
pub fn run_campaign(scenario: &Scenario, plant: Option<Plant>) -> CaseOutcome {
    let name = format!("fuzz_s{}", scenario.seed);
    let (n, job, adv) = (scenario.nranks, scenario.job(), &scenario.adversary);
    match scenario.app {
        AppChoice::DenseCg { n: dim, iters } => {
            drive(&name, n, &DenseCg::new(dim, iters), &job, adv, plant)
        }
        AppChoice::Laplace { n: dim, iters } => {
            drive(&name, n, &Laplace { n: dim, iters }, &job, adv, plant)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_core::WriteMode;

    /// Hand-built minimal scenario: 2 ranks, no adversity at all.
    fn tame() -> Scenario {
        Scenario {
            seed: 0,
            nranks: 2,
            app: AppChoice::Laplace { n: 8, iters: 10 },
            interval: Some(6),
            chunker: c3_core::Chunker::default(),
            adversary: Adversary {
                write_mode: WriteMode::Sync,
                ..Adversary::none()
            },
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
            chunker: c3_core::Chunker::cdc(1024),
            adversary: Adversary::single(1, 40),
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
            adversary: Adversary::none(),
            ..tame()
        };
        let out = run_campaign(&sc, Some(Plant::HoistCommitBeforeDrain));
        assert!(out.plant_applied, "a committing run has a plant site");
        // The label names the analyzer's first violation.
        let label = out.failure.map(|f| f.label());
        let want = "invariant-I13-drain-before-commit";
        assert_eq!(label.as_deref(), Some(want), "hoisted commit trips I13");
    }
}

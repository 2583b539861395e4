//! Running one job: build its configuration, run it on a watched thread,
//! and check what it returned against the reference.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use c3_core::{
    run_job, C3App, C3Config, CheckpointTrigger, InstrumentationLevel,
    ProcStats, RecoveryMode,
};
use ckptstore::StorageBackend;

use crate::workload::{Plan, RANKS};

/// The variants of a workload's job that the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    /// `InstrumentationLevel::None`, failure-free: the unmodified program.
    None,
    /// Piggybacked control words and control collectives, no checkpoints.
    Piggyback,
    /// The whole protocol, but application state is not written.
    Protocol,
    /// Full checkpoints, failure-free.
    Full,
    /// Full checkpoints with the workload's kills, `FullRestart`.
    Killed,
    /// Full checkpoints with the workload's first kill, `Localized`.
    Localized,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::None => "none",
            Variant::Piggyback => "piggyback",
            Variant::Protocol => "protocol",
            Variant::Full => "full",
            Variant::Killed => "killed",
            Variant::Localized => "localized",
        }
    }

    /// Name of the span around a traced job of this variant.
    pub fn job_span(self) -> &'static str {
        match self {
            Variant::None => "job.none",
            Variant::Piggyback => "job.piggyback",
            Variant::Protocol => "job.protocol",
            Variant::Full => "job.full",
            Variant::Killed => "job.killed",
            Variant::Localized => "job.localized",
        }
    }

    fn level(self) -> InstrumentationLevel {
        match self {
            Variant::None => InstrumentationLevel::None,
            Variant::Piggyback => InstrumentationLevel::Piggyback,
            Variant::Protocol => InstrumentationLevel::ProtocolOnly,
            _ => InstrumentationLevel::Full,
        }
    }
}

/// `C3Config::default()` apart from level, trigger, failures (and the
/// recovery mode of the localized variant), so that a later change of a
/// default shows up in the numbers.
pub fn config(plan: &Plan, variant: Variant) -> C3Config {
    let mut cfg = C3Config {
        level: variant.level(),
        trigger: CheckpointTrigger::EveryOps(plan.every_ops),
        ..C3Config::default()
    };
    let kills = match variant {
        Variant::Killed => &plan.kills[..],
        Variant::Localized => &plan.kills[..plan.kills.len().min(1)],
        _ => &[],
    };
    for k in kills {
        cfg = cfg.with_failure_from(k.rank, k.at_op, k.attempt);
    }
    if variant == Variant::Localized {
        cfg = cfg.with_recovery(RecoveryMode::Localized);
    }
    cfg
}

/// Per-rank outputs as words, so that outputs of different applications
/// compare against a reference the same way.
pub trait OutputWords {
    fn words(&self) -> Vec<u64>;
}
impl OutputWords for u64 {
    fn words(&self) -> Vec<u64> {
        vec![*self]
    }
}
impl OutputWords for (u64, u64) {
    fn words(&self) -> Vec<u64> {
        vec![self.0, self.1]
    }
}

/// What one completed job returned.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Benchmark-clock time around `run_job`.
    pub wall_s: f64,
    pub digests: Vec<Vec<u64>>,
    pub restarts: usize,
    pub splices: usize,
    pub last_committed: Option<u64>,
    pub stored_bytes: u64,
    pub stats: Vec<ProcStats>,
}

/// Why a job did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// `run_job` returned `Err`.
    Error(String),
    /// The job's thread panicked.
    Panicked,
    /// The job was still running after the watchdog's timeout. Its threads
    /// cannot be stopped: the caller must report and exit the process.
    Hung(Duration),
}

/// Run `work` on a watched thread, so that a hang becomes a failure the
/// caller can name instead of a stuck command.
pub fn watched<T: Send + 'static>(
    timeout: Duration,
    work: impl FnOnce() -> Result<T, Failure> + Send + 'static,
) -> Result<T, Failure> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        // The receiver is gone only after a timeout it already reported.
        let _ = tx.send(work());
    });
    match rx.recv_timeout(timeout) {
        Ok(result) => {
            worker.join().map_err(|_| Failure::Panicked)?;
            result
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(Failure::Panicked),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::Hung(timeout)),
    }
}

/// Run one job under the watchdog and time it on the benchmark's clock.
pub fn run_watched<A>(
    app: Arc<A>,
    cfg: C3Config,
    backend: Option<Arc<dyn StorageBackend>>,
    timeout: Duration,
) -> Result<Outcome, Failure>
where
    A: C3App + Send + 'static,
    A::Output: OutputWords,
{
    watched(timeout, move || {
        let start = Instant::now();
        let res = run_job(RANKS, &cfg, backend, &*app);
        let wall_s = start.elapsed().as_secs_f64();
        res.map(|r| Outcome {
            wall_s,
            digests: r.outputs.iter().map(OutputWords::words).collect(),
            restarts: r.restarts,
            splices: r.splices,
            last_committed: r.last_committed,
            stored_bytes: r.storage_bytes_written,
            stats: r.stats,
        })
        .map_err(|e| Failure::Error(e.to_string()))
    })
}

/// Counts jobs attempted and failed, and holds what a correct job returns:
/// the failure-free digests and, per variant, the pinned counts.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    kills: usize,
    /// Per-rank digests of the failure-free reference run.
    reference: Option<Vec<Vec<u64>>>,
    /// `last_committed` of the first job of each variant: the checkpoint
    /// trigger counts operations, so every later job must commit as many.
    committed: BTreeMap<Variant, Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, naming workload and variant.
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(workload: &'static str, kills: usize) -> Self {
        Checker {
            workload,
            kills,
            reference: None,
            committed: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.failures
            .push(format!("{} [{what}]: {why}", self.workload));
    }

    /// Count something whose result has no reference to compare with (a
    /// warm-up job, a probe): it passes if it completed.
    pub fn check_completed<T>(
        &mut self,
        what: &str,
        result: Result<T, Failure>,
    ) -> Option<T> {
        self.attempted += 1;
        result.map_err(|f| self.fail(what, format!("{f:?}"))).ok()
    }

    /// Count a job and check it. The first failure-free job fixes the
    /// reference digests. Returns the outcome only if it passed.
    pub fn check(
        &mut self,
        variant: Variant,
        result: Result<Outcome, Failure>,
    ) -> Option<Outcome> {
        let out = self.check_completed(variant.name(), result)?;
        let reference = self
            .reference
            .get_or_insert_with(|| out.digests.clone())
            .clone();
        let mut wrong = Vec::new();
        if out.digests != reference {
            wrong.push(format!(
                "outputs {:x?} differ from reference {:x?}",
                out.digests, reference
            ));
        }
        let (restarts, splices) = match variant {
            Variant::Killed => (self.kills, 0),
            Variant::Localized => (0, self.kills.min(1)),
            _ => (0, 0),
        };
        // A localized repair may escalate to a restart; either way one
        // kill is one repair.
        let repairs_ok = if variant == Variant::Localized {
            out.restarts + out.splices == restarts + splices
        } else {
            (out.restarts, out.splices) == (restarts, splices)
        };
        if !repairs_ok {
            wrong.push(format!(
                "{} restarts and {} splices, expected {restarts} and {splices}",
                out.restarts, out.splices
            ));
        }
        let pinned =
            *self.committed.entry(variant).or_insert(out.last_committed);
        if out.last_committed != pinned {
            wrong.push(format!(
                "last committed line {:?}, first such job had {pinned:?}",
                out.last_committed
            ));
        }
        let copied: u64 =
            out.stats.iter().map(|s| s.payload_bytes_copied).sum();
        if copied != 0 {
            wrong.push(format!(
                "{copied} payload bytes copied on the send path"
            ));
        }
        if wrong.is_empty() {
            Some(out)
        } else {
            self.fail(variant.name(), wrong.join("; "));
            None
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use c3_apps::Laplace;

    use super::*;
    use crate::workload::{AppSpec, Kill};

    fn plan(kills: Vec<Kill>) -> Plan {
        Plan {
            app: AppSpec::Laplace { n: 24, iters: 60 },
            every_ops: 40,
            kills,
        }
    }

    #[test]
    fn config_changes_only_level_trigger_failures_and_recovery() {
        let kill = Kill {
            rank: 1,
            at_op: 150,
            attempt: 1,
        };
        let p = plan(vec![kill, Kill { attempt: 2, ..kill }]);
        let d = C3Config::default();
        for v in [
            Variant::None,
            Variant::Protocol,
            Variant::Killed,
            Variant::Localized,
        ] {
            let c = config(&p, v);
            assert_eq!(c.trigger, CheckpointTrigger::EveryOps(40));
            assert_eq!(c.io, d.io);
            assert_eq!(c.piggyback_mode, d.piggyback_mode);
            assert_eq!(c.detection_latency_ms, d.detection_latency_ms);
            assert_eq!(c.max_restarts, d.max_restarts);
            assert!(c.obs.is_none() && c.trace.is_none());
        }
        assert_eq!(
            config(&p, Variant::None).level,
            InstrumentationLevel::None
        );
        assert_eq!(config(&p, Variant::Full).failures.len(), 0);
        assert_eq!(config(&p, Variant::Killed).failures.len(), 2);
        let local = config(&p, Variant::Localized);
        assert_eq!(local.failures.len(), 1);
        assert_eq!(local.recovery, RecoveryMode::Localized);
        assert_eq!(
            config(&p, Variant::Killed).recovery,
            RecoveryMode::FullRestart
        );
    }

    #[test]
    fn checker_counts_mismatches_as_failures() {
        let app = Arc::new(Laplace { n: 24, iters: 60 });
        let p = plan(vec![Kill {
            rank: 1,
            at_op: 150,
            attempt: 1,
        }]);
        let run = |v| {
            run_watched(
                app.clone(),
                config(&p, v),
                None,
                Duration::from_secs(60),
            )
        };
        let mut c = Checker::new("test", 1);
        let none = c.check(Variant::None, run(Variant::None)).unwrap();
        assert!(c.check(Variant::Full, run(Variant::Full)).is_some());
        let killed = c.check(Variant::Killed, run(Variant::Killed)).unwrap();
        assert_eq!(killed.restarts, 1);
        assert_eq!(killed.digests, none.digests);
        assert!(c.correct());
        assert_eq!((c.attempted, c.failed), (3, 0));

        // Wrong outputs, a wrong restart count and a failed job each count.
        let mut bad = none.clone();
        bad.digests[1][0] ^= 1;
        assert!(c.check(Variant::None, Ok(bad)).is_none());
        assert!(c.check(Variant::Killed, Ok(none.clone())).is_none());
        assert!(c
            .check(Variant::Full, Err(Failure::Hung(Duration::from_secs(1))))
            .is_none());
        assert!(!c.correct());
        assert_eq!((c.attempted, c.failed), (6, 3));
        assert!(c.failures[0].starts_with("test [none]: outputs"));
        assert!(c.failures[1]
            .contains("0 restarts and 0 splices, expected 1 and 0"));
        assert!(c.failures[2].contains("Hung"));
    }
}

//! Job configuration: instrumentation levels, checkpoint triggers, failure
//! injection plans.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::piggyback::PiggybackMode;

/// How much of the checkpointing machinery is active — the four versions
/// measured in the paper's Section 6.2:
///
/// 1. the unmodified program,
/// 2. \+ code to piggyback data on messages (and the control word on
///    collectives: fused into the data call, answered by a gather's root,
///    or on a preceding exchange),
/// 3. \+ the protocol's logs and saving the MPI library state,
/// 4. \+ saving the application state (full checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrumentationLevel {
    /// Version 1: pure pass-through; no headers, no control traffic, no
    /// checkpoints.
    None,
    /// Version 2: piggybacked control words on every message and every
    /// collective, but checkpoints are never initiated.
    Piggyback,
    /// Version 3: the full protocol runs (logs, MPI-state records,
    /// commits), but application state bytes are *not* written. Recovery
    /// is impossible at this level; it exists to decompose overhead.
    ProtocolOnly,
    /// Version 4: full checkpoints.
    #[default]
    Full,
}

impl InstrumentationLevel {
    /// Whether control words travel on messages and collectives.
    pub fn piggybacks(self) -> bool {
        !matches!(self, InstrumentationLevel::None)
    }

    /// Whether the checkpoint protocol (initiation, logging, commits) runs.
    pub fn checkpoints(self) -> bool {
        matches!(
            self,
            InstrumentationLevel::ProtocolOnly | InstrumentationLevel::Full
        )
    }

    /// Whether application state is written into checkpoints.
    pub fn saves_app_state(self) -> bool {
        matches!(self, InstrumentationLevel::Full)
    }
}

/// When the initiator (rank 0) starts a new global checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointTrigger {
    /// Only when the application calls
    /// [`crate::process::Process::request_checkpoint`].
    #[default]
    Manual,
    /// Every `k` protocol operations observed at rank 0 (deterministic; the
    /// unit tests and experiments use this).
    EveryOps(u64),
    /// Every `ms` milliseconds of wall time (the paper's 30-second
    /// interval, scaled).
    EveryMillis(u64),
}

/// How the job driver repairs a detected stopping failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// The paper's model: the failure detector aborts the whole attempt
    /// and every rank rolls back to the last committed global checkpoint.
    #[default]
    FullRestart,
    /// Online spare-rank substitution: survivors keep running while the
    /// dead rank is respawned in place and caught up by deterministic
    /// replay of its consumed-message tape (no global rollback). Deaths
    /// the splice supervisor cannot repair online — the initiator rank 0,
    /// or a rank dying a second time — escalate to a full
    /// rollback-restart of the attempt, so `FullRestart` remains the
    /// safety net underneath.
    Localized,
}

/// A deterministic injected stopping failure: rank `rank` fail-stops when
/// its protocol-operation counter reaches `at_op`, once the job is on
/// attempt `min_attempt` or later. Each injection fires at most once
/// across the attempts of a job.
///
/// The attempt gate is what makes *kill-during-recovery* schedules
/// expressible: the per-attempt op counter restarts at zero, so a small
/// `at_op` with `min_attempt = 2` lands in the replay/suppression window
/// of the first restart rather than at the very start of attempt 1.
#[derive(Debug)]
pub struct Injection {
    /// World rank to kill.
    pub rank: usize,
    /// Protocol-op count at which to kill it.
    pub at_op: u64,
    /// Earliest attempt (1-based) on which this injection may fire.
    pub min_attempt: u64,
    consumed: AtomicBool,
}

impl Injection {
    /// Create an injection that may fire on any attempt.
    pub fn new(rank: usize, at_op: u64) -> Self {
        Injection::at_attempt(rank, at_op, 1)
    }

    /// Create an injection gated to attempt `min_attempt` or later.
    pub fn at_attempt(rank: usize, at_op: u64, min_attempt: u64) -> Self {
        Injection {
            rank,
            at_op,
            min_attempt: min_attempt.max(1),
            consumed: AtomicBool::new(false),
        }
    }

    /// Atomically claim this injection if it matches; true = fire now.
    pub fn try_fire(&self, rank: usize, op: u64, attempt: u64) -> bool {
        self.rank == rank
            && op >= self.at_op
            && attempt >= self.min_attempt
            && self
                .consumed
                .compare_exchange(
                    false,
                    true,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
    }

    /// Whether this injection has already fired.
    pub fn is_consumed(&self) -> bool {
        self.consumed.load(Ordering::Acquire)
    }
}

/// The failure plan shared across a job's attempts.
pub type FailurePlan = Arc<Vec<Injection>>;

/// Full job configuration.
#[derive(Clone)]
pub struct C3Config {
    /// Instrumentation level (all ranks use the same one).
    pub level: InstrumentationLevel,
    /// Piggyback wire representation.
    pub piggyback_mode: PiggybackMode,
    /// Checkpoint initiation policy.
    pub trigger: CheckpointTrigger,
    /// Injected stopping failures.
    pub failures: FailurePlan,
    /// Simulated failure-detection latency in milliseconds: how long after
    /// a fail-stop the detector aborts the attempt.
    pub detection_latency_ms: u64,
    /// Upper bound on restarts before the job driver gives up with
    /// [`crate::C3Error::RestartBudgetExhausted`]. Localized splices do
    /// not consume this budget — only full rollback-restarts do.
    pub max_restarts: usize,
    /// How a detected stopping failure is repaired (full rollback vs
    /// localized spare-rank substitution).
    pub recovery: RecoveryMode,
    /// Optional protocol-event trace sink (see [`crate::trace`]). Every
    /// rank of every attempt appends its events; `None` disables tracing.
    pub trace: Option<crate::trace::TraceSink>,
    /// Checkpoint I/O pipeline knobs: sync/async staging, writer count,
    /// chunk size, and transient-fault retry (see `ckptpipe`). Every rank
    /// blob is stored as a manifest of content-defined, deduplicated
    /// chunks, each LZ4-compressed where that shrinks it. The default
    /// writes asynchronously; [`ckptpipe::WriteMode::Sync`] blocks the
    /// rank on the write, as the paper's checkpoints did.
    pub io: ckptpipe::PipelineConfig,
    /// Optional metrics registry (see `c3obs`). When set, every layer —
    /// protocol spans and counters, I/O pipeline latencies, storage
    /// put/get timings, per-rank MPI counters — records
    /// into it; [`crate::obs::health_check`] and the `c3obs` CLI
    /// consume the resulting snapshot. `None` disables recording
    /// (each hook is then one `Option` check).
    pub obs: Option<c3obs::Registry>,
}

impl Default for C3Config {
    fn default() -> Self {
        C3Config {
            level: InstrumentationLevel::Full,
            piggyback_mode: PiggybackMode::Packed,
            trigger: CheckpointTrigger::Manual,
            failures: Arc::new(Vec::new()),
            detection_latency_ms: 2,
            max_restarts: 16,
            recovery: RecoveryMode::default(),
            trace: None,
            io: ckptpipe::PipelineConfig::default(),
            obs: None,
        }
    }
}

impl C3Config {
    /// Convenience: a full-instrumentation config checkpointing every
    /// `ops` operations.
    pub fn every_ops(ops: u64) -> Self {
        C3Config {
            trigger: CheckpointTrigger::EveryOps(ops),
            ..Self::default()
        }
    }

    /// Add an injected failure.
    pub fn with_failure(self, rank: usize, at_op: u64) -> Self {
        self.with_failure_from(rank, at_op, 1)
    }

    /// Add an injected failure that may only fire on attempt
    /// `min_attempt` (1-based) or later — a second kill aimed at the
    /// recovery of a first one.
    pub fn with_failure_from(
        mut self,
        rank: usize,
        at_op: u64,
        min_attempt: u64,
    ) -> Self {
        let mut v: Vec<Injection> = match Arc::try_unwrap(self.failures) {
            Ok(v) => v,
            Err(shared) => shared
                .iter()
                .map(|i| Injection::at_attempt(i.rank, i.at_op, i.min_attempt))
                .collect(),
        };
        v.push(Injection::at_attempt(rank, at_op, min_attempt));
        self.failures = Arc::new(v);
        self
    }

    /// Install a protocol-event trace sink.
    pub fn with_trace(mut self, sink: crate::trace::TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Set the checkpoint I/O pipeline configuration.
    pub fn with_io(mut self, io: ckptpipe::PipelineConfig) -> Self {
        self.io = io;
        self
    }

    /// Select the recovery mode (full rollback vs localized splice).
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Self {
        self.recovery = mode;
        self
    }

    /// Select the piggyback wire representation (all ranks must agree;
    /// the job driver hands every rank the same config).
    pub fn with_piggyback(mut self, mode: PiggybackMode) -> Self {
        self.piggyback_mode = mode;
        self
    }

    /// Record metrics and phase spans into `reg` (see `c3obs`). The job
    /// driver propagates the registry to the I/O pipeline and the
    /// checkpoint store; snapshot it after `run_job` returns.
    pub fn with_obs(mut self, reg: c3obs::Registry) -> Self {
        self.obs = Some(reg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_capabilities() {
        use InstrumentationLevel::*;
        assert!(!None.piggybacks() && !None.checkpoints());
        assert!(Piggyback.piggybacks() && !Piggyback.checkpoints());
        assert!(ProtocolOnly.checkpoints() && !ProtocolOnly.saves_app_state());
        assert!(Full.saves_app_state() && Full.checkpoints());
    }

    #[test]
    fn injection_fires_exactly_once() {
        let inj = Injection::new(2, 100);
        assert!(!inj.try_fire(2, 99, 1), "below threshold");
        assert!(!inj.try_fire(1, 200, 1), "wrong rank");
        assert!(inj.try_fire(2, 100, 1));
        assert!(!inj.try_fire(2, 101, 1), "already consumed");
        assert!(inj.is_consumed());
    }

    #[test]
    fn injection_waits_for_its_attempt() {
        let inj = Injection::at_attempt(1, 5, 2);
        assert!(!inj.try_fire(1, 500, 1), "attempt 1 is too early");
        assert!(!inj.is_consumed(), "an early attempt must not consume it");
        assert!(inj.try_fire(1, 5, 2), "fires on the gated attempt");
        assert!(!inj.try_fire(1, 5, 3), "still at most once");
    }

    #[test]
    fn with_failure_accumulates() {
        let cfg = C3Config::default().with_failure(0, 10).with_failure(1, 20);
        assert_eq!(cfg.failures.len(), 2);
        assert_eq!(cfg.failures[1].rank, 1);
        // Cloned-plan rebuild (shared Arc) must preserve attempt gates.
        let shared = cfg.clone().with_failure_from(2, 3, 4);
        assert_eq!(shared.failures.len(), 3);
        assert_eq!(shared.failures[2].min_attempt, 4);
        assert_eq!(shared.failures[0].min_attempt, 1);
    }
}

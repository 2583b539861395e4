//! Protocol-layer observability: counters, phase spans,
//! and the job-level snapshot health invariants.
//!
//! The protocol layer emits *spans* — named durations tagged with
//! `(rank, checkpoint epoch)` — for the parts of a run the paper's
//! overhead story cares about: the initiator's four phases
//! (`initiator_broadcast_request`, `initiator_collect_ready`,
//! `initiator_collect_stopped`, `initiator_commit`), each rank's
//! `local_checkpoint` duration, the `late_log_drain` (finalizeLog)
//! time, and the `recovery_replay` time after a rollback. Counters
//! (`c3_attempts_total`, `c3_ckpt_initiated_total`, `c3_commits_total`,
//! `c3_failstops_total`) tie those spans to protocol outcomes, which is
//! what [`health_check`] cross-checks.
//!
//! Everything here happens at protocol-event frequency (checkpoints,
//! recoveries), not per message, so nothing is sampled.

use c3obs::{Counter, Registry, Snapshot, Stopwatch};

/// Per-rank protocol metric handles plus the open-phase slot for the
/// initiator's span bookkeeping.
pub(crate) struct ProcObs {
    reg: Registry,
    rank: u32,
    /// `c3_attempts_total` — job attempts started (rank 0 counts them).
    pub attempts: Counter,
    /// `c3_ckpt_initiated_total` — global checkpoints the initiator
    /// started (phase 1 broadcast).
    pub initiated: Counter,
    /// `c3_commits_total` — global checkpoints committed.
    pub commits: Counter,
    /// `c3_failstops_total{rank}` — injected stopping failures fired.
    pub failstops: Counter,
    /// The initiator phase currently being timed, if any:
    /// `(span name, checkpoint, stopwatch)`.
    phase: Option<(&'static str, u64, Stopwatch)>,
}

impl ProcObs {
    /// Register this rank's protocol handles in `reg`.
    pub fn register(reg: &Registry, rank: u32) -> Self {
        let r = rank.to_string();
        ProcObs {
            attempts: reg.counter("c3_attempts_total"),
            initiated: reg.counter("c3_ckpt_initiated_total"),
            commits: reg.counter("c3_commits_total"),
            failstops: reg.counter_with("c3_failstops_total", &[("rank", &r)]),
            phase: None,
            reg: reg.clone(),
            rank,
        }
    }

    /// Record a closed span for this rank.
    pub fn span(&self, name: &str, ckpt: u64, timer: Stopwatch) {
        self.reg
            .record_span(name, self.rank, ckpt, timer.elapsed_ns());
    }

    /// Close the open initiator phase (if any) and start timing a new
    /// one. Phases are strictly sequential per initiator, so one slot
    /// suffices.
    pub fn phase_begin(&mut self, name: &'static str, ckpt: u64) {
        self.phase_end();
        self.phase = Some((name, ckpt, Stopwatch::start()));
    }

    /// Close and record the open initiator phase, if any.
    pub fn phase_end(&mut self) {
        if let Some((name, ckpt, timer)) = self.phase.take() {
            self.span(name, ckpt, timer);
        }
    }
}

impl Drop for ProcObs {
    fn drop(&mut self) {
        // A killed or aborted attempt leaves its phase open; flush it so
        // the span (however long it got) is visible in the snapshot
        // rather than silently lost.
        self.phase_end();
    }
}

/// Cross-check a run's metrics snapshot against the protocol's
/// accounting invariants. Returns human-readable violations (empty =
/// healthy).
///
/// Invariants checked:
///
/// 1. structural consistency ([`Snapshot::self_check`]);
/// 2. every initiated checkpoint either committed or is explained by an
///    attempt that died/abandoned it: `initiated - commits <= attempts`
///    (the initiator runs at most one checkpoint at a time, so each
///    attempt can orphan at most one);
/// 3. every commit drained the I/O pipeline first: `io_drain_ns`
///    observations `>= commits`;
/// 4. commit spans and the commit counter agree: one
///    `initiator_commit` span per committed checkpoint.
pub fn health_check(snap: &Snapshot) -> Vec<String> {
    let mut violations = snap.self_check();
    let attempts = snap.counter_total("c3_attempts_total");
    let initiated = snap.counter_total("c3_ckpt_initiated_total");
    let commits = snap.counter_total("c3_commits_total");
    if initiated.saturating_sub(commits) > attempts {
        violations.push(format!(
            "{initiated} checkpoints initiated but only {commits} \
             committed across {attempts} attempts: more than one \
             orphaned checkpoint per attempt"
        ));
    }
    let drains = snap.histogram_count_total("io_drain_ns");
    if drains < commits {
        violations.push(format!(
            "{commits} commits but only {drains} pipeline drains: a \
             checkpoint was committed without the drain barrier"
        ));
    }
    let commit_spans = snap.spans_named("initiator_commit").len() as u64;
    if commit_spans != commits {
        violations.push(format!(
            "{commit_spans} initiator_commit span(s) vs {commits} \
             commit(s)"
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_check_flags_each_invariant() {
        let reg = Registry::new();
        let attempts = reg.counter("c3_attempts_total");
        let initiated = reg.counter("c3_ckpt_initiated_total");
        let commits = reg.counter("c3_commits_total");
        let drains = reg.histogram("io_drain_ns");

        // Healthy: 1 attempt, 2 initiated, 1 committed (1 orphan), one
        // drain + one commit span.
        attempts.inc();
        initiated.add(2);
        commits.inc();
        drains.record(10);
        reg.record_span("initiator_commit", 0, 1, 5);
        assert!(health_check(&reg.snapshot()).is_empty());

        // Too many orphans for the attempt count.
        initiated.add(2);
        let v = health_check(&reg.snapshot());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("orphaned"), "{v:?}");

        // Commit without a drain, and span/counter disagreement.
        initiated.add(0);
        attempts.add(2);
        commits.add(1);
        let v = health_check(&reg.snapshot());
        assert!(v.iter().any(|m| m.contains("drain")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("span")), "{v:?}");
    }

    #[test]
    fn phase_slot_closes_on_drop() {
        let reg = Registry::new();
        let mut o = ProcObs::register(&reg, 3);
        o.phase_begin("initiator_collect_ready", 7);
        o.phase_begin("initiator_collect_stopped", 7);
        drop(o);
        let snap = reg.snapshot();
        assert_eq!(snap.spans_named("initiator_collect_ready").len(), 1);
        let s = &snap.spans_named("initiator_collect_stopped")[0];
        assert_eq!((s.rank, s.epoch), (3, 7));
    }
}

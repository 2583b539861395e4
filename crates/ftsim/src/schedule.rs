//! Seeded random failure schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use c3_core::C3Config;

/// A reproducible plan of stopping failures for a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSchedule {
    /// `(rank, at_op)` pairs; each fires at most once across attempts.
    pub injections: Vec<(usize, u64)>,
    /// `(rank, at_op)` pairs gated to attempt ≥ 2: the per-attempt op
    /// counter restarts at zero, so a small `at_op` here lands inside
    /// the replay/suppression window of the first restart — a failure
    /// *during recovery* (the double-failure case).
    pub recovery_kills: Vec<(usize, u64)>,
    /// Run the job under [`c3_core::RecoveryMode::Localized`]: rank
    /// deaths are repaired by online spare-rank substitution, falling
    /// back to full rollback only when a splice policy escalates.
    pub localized: bool,
}

impl FailureSchedule {
    /// No failures.
    pub fn none() -> Self {
        FailureSchedule {
            injections: Vec::new(),
            recovery_kills: Vec::new(),
            localized: false,
        }
    }

    /// A single failure.
    pub fn single(rank: usize, at_op: u64) -> Self {
        FailureSchedule {
            injections: vec![(rank, at_op)],
            ..FailureSchedule::none()
        }
    }

    /// Repair this schedule's failures by online splice instead of
    /// global rollback (where the splice policy allows it).
    pub fn with_localized(mut self) -> Self {
        self.localized = true;
        self
    }

    /// A kill aimed at the online-splice path: one seeded-random
    /// *non-initiator* rank dies at an op drawn from `op_range`, and the
    /// schedule opts into localized recovery — under the default splice
    /// policy the death is repaired by respawn-and-replay while the
    /// survivors keep running. (Initiator deaths escalate to a full
    /// rollback by policy, so rank 0 is excluded to keep the schedule on
    /// the splice path.)
    pub fn kill_then_splice(
        seed: u64,
        nranks: usize,
        op_range: std::ops::Range<u64>,
    ) -> Self {
        assert!(nranks > 1 && !op_range.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.random_range(1..nranks);
        let at_op = rng.random_range(op_range);
        FailureSchedule::single(rank, at_op).with_localized()
    }

    /// Add one failure, keeping the plan sorted by op.
    pub fn with_injection(mut self, rank: usize, at_op: u64) -> Self {
        self.injections.push((rank, at_op));
        self.injections.sort_by_key(|&(_, op)| op);
        self
    }

    /// Merge another schedule into this one: injections and recovery
    /// kills are unioned (kept sorted by op), and either part's
    /// localized flag opts the union in. This is what lets a campaign
    /// compose [`FailureSchedule::kill_during_async_write`],
    /// [`FailureSchedule::kill_during_tier_drain`] and
    /// [`FailureSchedule::kill_during_recovery`] into one plan.
    pub fn and(mut self, other: FailureSchedule) -> Self {
        self.injections.extend(other.injections);
        self.injections.sort_by_key(|&(_, op)| op);
        self.recovery_kills.extend(other.recovery_kills);
        self.recovery_kills.sort_by_key(|&(_, op)| op);
        self.localized |= other.localized;
        self
    }

    /// Fold any number of schedules into one via [`FailureSchedule::and`].
    pub fn compose<I>(parts: I) -> Self
    where
        I: IntoIterator<Item = FailureSchedule>,
    {
        parts
            .into_iter()
            .fold(FailureSchedule::none(), FailureSchedule::and)
    }

    /// `count` failures at random ranks and operation counts drawn
    /// uniformly from `op_range`, reproducible from `seed`.
    pub fn random(
        seed: u64,
        nranks: usize,
        count: usize,
        op_range: std::ops::Range<u64>,
    ) -> Self {
        assert!(nranks > 0 && !op_range.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut injections: Vec<(usize, u64)> = (0..count)
            .map(|_| {
                (
                    rng.random_range(0..nranks),
                    rng.random_range(op_range.clone()),
                )
            })
            .collect();
        // Sort by op so earlier failures fire on earlier attempts; a rank
        // can appear multiple times (repeated failures of one node).
        injections.sort_by_key(|&(_, op)| op);
        FailureSchedule {
            injections,
            ..FailureSchedule::none()
        }
    }

    /// A failure aimed at the asynchronous checkpoint-write window.
    ///
    /// With a checkpoint initiated every `interval` protocol operations,
    /// round `round`'s blobs are staged shortly after op
    /// `round * interval` and written by the pipeline's background
    /// threads while the application keeps running. The returned schedule
    /// kills one seeded-random rank a few ops into that window — while
    /// the round's writes may still be in flight — so recovery must come
    /// from the *previous committed* checkpoint, never from the
    /// half-written one.
    pub fn kill_during_async_write(
        seed: u64,
        nranks: usize,
        interval: u64,
        round: u64,
    ) -> Self {
        assert!(nranks > 0 && interval > 1 && round > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.random_range(0..nranks);
        let offset = rng.random_range(1..interval / 2 + 2);
        FailureSchedule::single(rank, round * interval + offset)
    }

    /// A failure aimed at the asynchronous *tier-drain* window.
    ///
    /// On a multi-level store the initiator hands each committed
    /// checkpoint to the tier mover right after commit; the mover
    /// promotes the checkpoint's keys to the partner and erasure tiers
    /// in the background while the application computes the next round.
    /// The returned schedule kills one seeded-random rank a little
    /// *later* into the round than [`kill_during_async_write`] — after
    /// round `round`'s commit, while its promotions may still be in
    /// flight — so recovery exercises the tier fall-through (the local
    /// staging copy of the committed line is intact, but deeper tiers
    /// may hold any prefix of the promotion).
    pub fn kill_during_tier_drain(
        seed: u64,
        nranks: usize,
        interval: u64,
        round: u64,
    ) -> Self {
        assert!(nranks > 0 && interval > 1 && round > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.random_range(0..nranks);
        let offset = rng.random_range(interval / 2..interval - 1);
        FailureSchedule::single(rank, round * interval + offset)
    }

    /// A double failure: a first kill at `first_at_op`, then a second
    /// kill aimed at the *recovery* from the first.
    ///
    /// The second kill is attempt-gated (it cannot fire before the job
    /// is restarting) and lands a seeded-random handful of ops into the
    /// restarted attempt — while the recovering ranks are still inside
    /// the replay/suppression window — so recovery must itself be
    /// restartable. Both ranks are seeded-random; the second may equal
    /// the first (the same node failing twice).
    pub fn kill_during_recovery(
        seed: u64,
        nranks: usize,
        first_at_op: u64,
    ) -> Self {
        assert!(nranks > 0 && first_at_op > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let first = rng.random_range(0..nranks);
        let second = rng.random_range(0..nranks);
        let early_op = rng.random_range(2u64..8);
        FailureSchedule {
            injections: vec![(first, first_at_op)],
            recovery_kills: vec![(second, early_op)],
            ..FailureSchedule::none()
        }
    }

    /// Geometric inter-failure gaps with the given expected spacing in
    /// protocol operations — a discrete stand-in for an exponential MTBF.
    /// Failures keep arriving until `horizon_ops`.
    pub fn mtbf(
        seed: u64,
        nranks: usize,
        mean_ops_between_failures: u64,
        horizon_ops: u64,
    ) -> Self {
        assert!(mean_ops_between_failures > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut injections = Vec::new();
        let mut t = 0u64;
        loop {
            // Geometric draw via inverse CDF on a uniform.
            let u: f64 = rng.random();
            let gap = ((1.0 - u).ln()
                / (1.0 - 1.0 / mean_ops_between_failures as f64).ln())
            .ceil()
            .max(1.0) as u64;
            t = t.saturating_add(gap);
            if t >= horizon_ops {
                break;
            }
            injections.push((rng.random_range(0..nranks), t));
        }
        FailureSchedule {
            injections,
            ..FailureSchedule::none()
        }
    }

    /// Apply this schedule to a configuration.
    pub fn apply(&self, mut cfg: C3Config) -> C3Config {
        for &(rank, at_op) in &self.injections {
            cfg = cfg.with_failure(rank, at_op);
        }
        for &(rank, at_op) in &self.recovery_kills {
            cfg = cfg.with_failure_from(rank, at_op, 2);
        }
        if self.localized {
            cfg = cfg.with_recovery(c3_core::RecoveryMode::Localized);
        }
        cfg
    }

    /// Number of injections (recovery kills included).
    pub fn len(&self) -> usize {
        self.injections.len() + self.recovery_kills.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty() && self.recovery_kills.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_reproducible() {
        let a = FailureSchedule::random(42, 4, 5, 10..100);
        let b = FailureSchedule::random(42, 4, 5, 10..100);
        assert_eq!(a, b);
        let c = FailureSchedule::random(43, 4, 5, 10..100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_respects_bounds() {
        let s = FailureSchedule::random(7, 3, 50, 10..20);
        assert_eq!(s.len(), 50);
        for &(rank, op) in &s.injections {
            assert!(rank < 3);
            assert!((10..20).contains(&op));
        }
        assert!(s.injections.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn kill_during_async_write_targets_the_write_window() {
        let a = FailureSchedule::kill_during_async_write(5, 4, 20, 3);
        let b = FailureSchedule::kill_during_async_write(5, 4, 20, 3);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        assert_eq!(a.len(), 1);
        let (rank, op) = a.injections[0];
        assert!(rank < 4);
        assert!(
            (61..=71).contains(&op),
            "kill at op {op} must land just after the round-3 trigger"
        );
    }

    #[test]
    fn kill_during_tier_drain_lands_late_in_the_round() {
        let a = FailureSchedule::kill_during_tier_drain(5, 4, 20, 3);
        let b = FailureSchedule::kill_during_tier_drain(5, 4, 20, 3);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        assert_eq!(a.len(), 1);
        let (rank, op) = a.injections[0];
        assert!(rank < 4);
        assert!(
            (70..79).contains(&op),
            "kill at op {op} must land in the back half of round 3"
        );
    }

    #[test]
    fn kill_during_recovery_is_a_gated_double_failure() {
        let a = FailureSchedule::kill_during_recovery(9, 4, 50);
        assert_eq!(a, FailureSchedule::kill_during_recovery(9, 4, 50));
        assert_eq!(a.injections, vec![(a.injections[0].0, 50)]);
        assert_eq!(a.recovery_kills.len(), 1);
        let (rank, op) = a.recovery_kills[0];
        assert!(rank < 4);
        assert!((2..8).contains(&op), "early in the restarted attempt");
        assert_eq!(a.len(), 2);
        let cfg = a.apply(C3Config::default());
        assert_eq!(cfg.failures.len(), 2);
        assert_eq!(cfg.failures[0].min_attempt, 1);
        assert_eq!(cfg.failures[1].min_attempt, 2, "gated to the restart");
    }

    #[test]
    fn compose_unions_schedules_and_keeps_them_sorted() {
        let a = FailureSchedule::single(0, 70);
        let b = FailureSchedule::single(2, 30);
        let c = FailureSchedule::kill_during_recovery(3, 4, 90);
        let all = FailureSchedule::compose([a, b, c.clone()]);
        let ops: Vec<u64> = all.injections.iter().map(|&(_, op)| op).collect();
        assert_eq!(ops, vec![30, 70, 90], "sorted by op");
        assert_eq!(all.recovery_kills, c.recovery_kills);
        assert_eq!(all.len(), 4);
        assert!(!all.is_empty());
        // with_injection keeps the plan sorted too.
        let s = FailureSchedule::single(1, 50).with_injection(0, 10);
        assert_eq!(s.injections, vec![(0, 10), (1, 50)]);
    }

    #[test]
    fn kill_then_splice_avoids_the_initiator_and_sets_the_mode() {
        let a = FailureSchedule::kill_then_splice(11, 4, 30..90);
        assert_eq!(a, FailureSchedule::kill_then_splice(11, 4, 30..90));
        assert_eq!(a.injections.len(), 1);
        let (rank, op) = a.injections[0];
        assert!((1..4).contains(&rank), "initiator deaths escalate");
        assert!((30..90).contains(&op));
        assert!(a.localized);
        let cfg = a.apply(C3Config::default());
        assert_eq!(cfg.recovery, c3_core::RecoveryMode::Localized);
        // Composition is sticky: one localized part opts the union in.
        let all = FailureSchedule::single(0, 10).and(a);
        assert!(all.localized);
    }

    #[test]
    fn mtbf_spacing_is_roughly_mean() {
        let s = FailureSchedule::mtbf(1, 4, 100, 100_000);
        assert!(s.len() > 500, "expect ~1000 failures, got {}", s.len());
        assert!(s.len() < 2000);
    }

    #[test]
    fn apply_builds_config() {
        let cfg = FailureSchedule::single(2, 30).apply(C3Config::default());
        assert_eq!(cfg.failures.len(), 1);
        assert_eq!(cfg.failures[0].rank, 2);
    }
}

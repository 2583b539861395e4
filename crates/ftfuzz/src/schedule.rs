//! The adversary: processors that "can fail silently at any time"
//! (§1.1), and storage that misbehaves, as one plain value. It reaches a
//! job only through [`Adversary::apply`]. The seeded constructors draw
//! from [`splitmix64`], so a seed names the same kills in every crate.

use std::ops::Range;

use c3_core::{C3Config, PipelineConfig, RecoveryMode, WriteMode};
use ckptstore::{splitmix64, FaultPlan};

/// `(rank, at_op, attempt)`: `rank` fail-stops at its `at_op`-th
/// protocol op on attempt `attempt` or later, once per job. The op count
/// restarts every attempt, so a small `at_op` gated to attempt 2 lands
/// inside the recovery from an earlier kill.
pub type Kill = (usize, u64, u64);

/// A failure scenario as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct Adversary {
    /// Rank kills, lowered in `(attempt, at_op)` order.
    pub kills: Vec<Kill>,
    /// How the checkpoint store misbehaves.
    pub faults: FaultPlan,
    /// On the staging rank's thread, or through background writers.
    pub write_mode: WriteMode,
    /// Global rollback, or online repair by spare-rank substitution.
    pub recovery: RecoveryMode,
}

/// A seeded stream of uniform draws from `u64` ranges.
fn draws(seed: u64) -> impl FnMut(Range<u64>) -> u64 {
    let mut state = seed;
    move |r: Range<u64>| {
        assert!(!r.is_empty(), "cannot draw from an empty range");
        r.start + splitmix64(&mut state) % (r.end - r.start)
    }
}

impl Adversary {
    /// No kills, healthy storage, the default writers, full rollback.
    pub fn none() -> Self {
        Adversary {
            kills: Vec::new(),
            faults: FaultPlan::none(),
            write_mode: PipelineConfig::default().mode,
            recovery: RecoveryMode::FullRestart,
        }
    }

    /// `kills`, and otherwise [`Adversary::none`].
    pub fn from_kills(kills: Vec<Kill>) -> Self {
        Adversary {
            kills,
            ..Adversary::none()
        }
    }

    /// One kill of `rank` at op `at_op`, on any attempt.
    pub fn single(rank: usize, at_op: u64) -> Self {
        Adversary::from_kills(vec![(rank, at_op, 1)])
    }

    /// `count` kills at ranks and ops drawn uniformly (ops from
    /// `op_range`), sorted by op. A rank may die more than once.
    pub fn random(
        seed: u64,
        nranks: usize,
        count: usize,
        op_range: Range<u64>,
    ) -> Self {
        let mut draw = draws(seed);
        let mut kills: Vec<Kill> = (0..count)
            .map(|_| {
                (draw(0..nranks as u64) as usize, draw(op_range.clone()), 1)
            })
            .collect();
        kills.sort_by_key(|k| k.1);
        Adversary::from_kills(kills)
    }

    /// Kills with geometric gaps of mean `mean_ops_between_failures`
    /// ops (a discrete exponential MTBF) until `horizon_ops`.
    pub fn mtbf(
        seed: u64,
        nranks: usize,
        mean_ops_between_failures: u64,
        horizon_ops: u64,
    ) -> Self {
        assert!(mean_ops_between_failures > 0);
        let mut state = seed;
        let p = 1.0 - 1.0 / mean_ops_between_failures as f64;
        let mut kills = Vec::new();
        let mut t = 0u64;
        loop {
            // Inverse CDF on a uniform in [0, 1) from the top 53 bits.
            let u = (splitmix64(&mut state) >> 11) as f64
                * (1.0 / (1u64 << 53) as f64);
            let gap = ((1.0 - u).ln() / p.ln()).ceil().max(1.0) as u64;
            t = t.saturating_add(gap);
            if t >= horizon_ops {
                break;
            }
            let rank = splitmix64(&mut state) % nranks as u64;
            kills.push((rank as usize, t, 1));
        }
        Adversary::from_kills(kills)
    }

    /// A kill a few ops after round `round`'s checkpoint trigger (one
    /// every `interval` ops), while its blobs may still be in flight:
    /// recovery must come from the previous committed line.
    pub fn kill_during_async_write(
        seed: u64,
        nranks: usize,
        interval: u64,
        round: u64,
    ) -> Self {
        assert!(interval > 1 && round > 0);
        let mut draw = draws(seed);
        let rank = draw(0..nranks as u64) as usize;
        Adversary::single(rank, round * interval + draw(1..interval / 2 + 2))
    }

    /// A kill in the back half of round `round`, after its commit:
    /// recovery must come from that line.
    pub fn kill_after_commit(
        seed: u64,
        nranks: usize,
        interval: u64,
        round: u64,
    ) -> Self {
        assert!(interval > 1 && round > 0);
        let mut draw = draws(seed);
        let rank = draw(0..nranks as u64) as usize;
        Adversary::single(
            rank,
            round * interval + draw(interval / 2..interval - 1),
        )
    }

    /// A kill at `first_at_op`, then a second one at an op drawn from
    /// 2..8 of the restarted attempt. The second rank may equal the
    /// first. The second kill lands early in the restart, but not
    /// necessarily inside its replay and suppression window: an attempt
    /// that restarts from scratch has none, and a rank whose log is
    /// short drains it in fewer ops (no such kill of the seed corpus
    /// landed in one, EXPERIMENTS.md M23).
    /// `chaos_matrix::a_second_death_inside_the_replay_window_recovers`
    /// places one there, reading the window from a first run's trace.
    pub fn kill_during_recovery(
        seed: u64,
        nranks: usize,
        first_at_op: u64,
    ) -> Self {
        let mut draw = draws(seed);
        let first = draw(0..nranks as u64) as usize;
        let second = draw(0..nranks as u64) as usize;
        Adversary::from_kills(vec![
            (first, first_at_op, 1),
            (second, draw(2..8), 2),
        ])
    }

    /// One kill of a non-initiator rank at an op from `op_range`,
    /// repaired online. Rank 0's death escalates to a rollback by
    /// policy, so it is never drawn.
    pub fn kill_then_splice(
        seed: u64,
        nranks: usize,
        op_range: Range<u64>,
    ) -> Self {
        let mut draw = draws(seed);
        let rank = draw(1..nranks as u64) as usize;
        Adversary {
            recovery: RecoveryMode::Localized,
            ..Adversary::single(rank, draw(op_range))
        }
    }

    /// `job` with this adversary's kills, recovery mode and write mode.
    /// Kills are injected in `(attempt, at_op)` order, stably.
    pub fn apply(&self, job: C3Config) -> C3Config {
        let mut kills = self.kills.clone();
        kills.sort_by_key(|&(_, at_op, attempt)| (attempt, at_op));
        let io = job.io.clone().with_mode(self.write_mode);
        kills
            .into_iter()
            .fold(job, |cfg, (rank, at_op, attempt)| {
                cfg.with_failure_from(rank, at_op, attempt)
            })
            .with_recovery(self.recovery)
            .with_io(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kills `a` lowers to, as `(rank, at_op, min_attempt)`.
    fn lowered(a: &Adversary) -> Vec<Kill> {
        let cfg = a.apply(C3Config::default());
        cfg.failures
            .iter()
            .map(|i| (i.rank, i.at_op, i.min_attempt))
            .collect()
    }

    #[test]
    fn random_is_reproducible() {
        let a = Adversary::random(42, 4, 5, 10..100);
        assert_eq!(a, Adversary::random(42, 4, 5, 10..100));
        assert_ne!(a, Adversary::random(43, 4, 5, 10..100));
    }

    #[test]
    fn random_respects_bounds() {
        let kills = Adversary::random(7, 3, 50, 10..20).kills;
        assert_eq!(kills.len(), 50);
        assert!(kills.iter().all(|k| k.0 < 3 && (10..20).contains(&k.1)));
        assert!(kills.windows(2).all(|w| w[0].1 <= w[1].1), "sorted by op");
    }

    #[test]
    fn kill_during_async_write_targets_the_write_window() {
        let a = Adversary::kill_during_async_write(5, 4, 20, 3);
        assert_eq!(a, Adversary::kill_during_async_write(5, 4, 20, 3));
        assert!(matches!(a.kills[..], [(0..4, 61..=71, 1)]), "{a:?}");
    }

    #[test]
    fn kill_after_commit_lands_late_in_the_round() {
        let a = Adversary::kill_after_commit(5, 4, 20, 3);
        assert_eq!(a, Adversary::kill_after_commit(5, 4, 20, 3));
        assert!(matches!(a.kills[..], [(0..4, 70..=78, 1)]), "{a:?}");
    }

    #[test]
    fn kill_during_recovery_is_a_gated_double_failure() {
        let a = Adversary::kill_during_recovery(9, 4, 50);
        assert_eq!(a, Adversary::kill_during_recovery(9, 4, 50));
        // The second kill lands early in the restarted attempt.
        let kills = lowered(&a);
        assert!(
            matches!(kills[..], [(0..4, 50, 1), (0..4, 2..8, 2)]),
            "{a:?}"
        );
    }

    #[test]
    fn compose_unions_schedules_and_keeps_them_sorted() {
        // Kills lower in (attempt, op) order, stably, however assembled.
        let mut a = Adversary::kill_during_recovery(3, 4, 90);
        let (first, gated) = (a.kills[0], a.kills[1]);
        a.kills.extend([(0, 70, 1), (2, 30, 1), (1, 30, 1)]);
        let want = [(2, 30, 1), (1, 30, 1), (0, 70, 1), first, gated];
        assert_eq!(lowered(&a), want);
    }

    #[test]
    fn kill_then_splice_avoids_the_initiator_and_sets_the_mode() {
        let a = Adversary::kill_then_splice(11, 4, 30..90);
        assert_eq!(a, Adversary::kill_then_splice(11, 4, 30..90));
        assert!(matches!(a.kills[..], [(1..4, 30..90, 1)]), "{a:?}");
        assert_eq!(
            a.apply(C3Config::default()).recovery,
            RecoveryMode::Localized
        );
    }

    #[test]
    fn mtbf_spacing_is_roughly_mean() {
        let n = Adversary::mtbf(1, 4, 100, 100_000).kills.len();
        assert!((500..2000).contains(&n), "expect ~1000 failures, got {n}");
    }

    #[test]
    fn apply_builds_config() {
        let a = Adversary {
            write_mode: WriteMode::Sync,
            ..Adversary::single(2, 30)
        };
        assert_eq!(lowered(&a), [(2, 30, 1)]);
        assert_eq!(a.apply(C3Config::default()).io.mode, WriteMode::Sync);
    }
}

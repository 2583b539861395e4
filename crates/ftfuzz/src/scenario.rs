//! Seed → scenario: every adversarial dimension of a campaign derived
//! from one `u64`.
//!
//! A [`Scenario`] is plain data — all fields public, comparable by
//! `Debug` rendering — so the shrinker can mutate dimensions directly
//! and the reproducer can print a scenario back as Rust source. The
//! derivation chains a SplitMix64 stream ([`ckptstore::splitmix64`]), so
//! a scenario is a pure function of its seed: two processes, two
//! machines, two years apart — same seed, same campaign.

use std::sync::Arc;

use c3_core::{C3Config, Chunker, PipelineConfig, TierTopology, WriteMode};
use ckptstore::{splitmix64, FaultInjectingBackend, FaultPlan, MemoryBackend};
use ftsim::FailureSchedule;

/// Which application the campaign runs. Both are real `C3App`
/// implementations from `c3-apps`, sized small enough that a campaign
/// completes in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppChoice {
    /// Dense conjugate gradient, `n × n` system, `iters` iterations.
    DenseCg {
        /// Matrix dimension.
        n: usize,
        /// CG iterations (the campaign's horizon).
        iters: u64,
    },
    /// Jacobi iteration on an `n × n` grid, `iters` sweeps.
    Laplace {
        /// Grid side.
        n: usize,
        /// Jacobi sweeps (the campaign's horizon).
        iters: u64,
    },
}

impl AppChoice {
    /// The scenario's horizon in application iterations.
    pub fn iters(&self) -> u64 {
        match *self {
            AppChoice::DenseCg { iters, .. } => iters,
            AppChoice::Laplace { iters, .. } => iters,
        }
    }

    /// Replace the horizon (the shrinker's shorter-horizon move).
    pub fn with_iters(&self, new_iters: u64) -> Self {
        match *self {
            AppChoice::DenseCg { n, .. } => AppChoice::DenseCg {
                n,
                iters: new_iters,
            },
            AppChoice::Laplace { n, .. } => AppChoice::Laplace {
                n,
                iters: new_iters,
            },
        }
    }
}

/// A full adversarial campaign, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed this scenario was derived from (kept for reporting; the
    /// fields below are authoritative once the shrinker has run).
    pub seed: u64,
    /// World size.
    pub nranks: usize,
    /// The application and its horizon.
    pub app: AppChoice,
    /// Checkpoint cadence: `Some(k)` initiates a line every `k` protocol
    /// ops (small values produce back-to-back lines); `None` is the
    /// manual trigger (no checkpoints — used by the determinized
    /// projection).
    pub interval: Option<u64>,
    /// Synchronous writing on the staging rank instead of the async
    /// writer threads.
    pub sync_io: bool,
    /// The content-defined chunker blobs are cut with: the default's
    /// 4 KiB average, or a smaller or larger one.
    pub chunker: Chunker,
    /// Committed lines to retain.
    pub keep_last: u64,
    /// Multi-level storage topology behind the faulty staging tier.
    pub tiers: Option<TierTopology>,
    /// Storage misbehavior of the staging tier.
    pub faults: FaultPlan,
    /// Rank kills, including attempt-gated kills during recovery.
    pub schedule: FailureSchedule,
}

impl Scenario {
    /// Derive the full campaign from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        const SALT_SCENARIO: u64 = 0x5CE2_A210;
        let mut s = seed ^ SALT_SCENARIO;
        let mut next = |span: u64| splitmix64(&mut s) % span.max(1);

        let nranks = 2 + next(4) as usize;
        let app = if next(2) == 0 {
            AppChoice::Laplace {
                n: 16,
                iters: 24 + next(17),
            }
        } else {
            AppChoice::DenseCg {
                n: if next(2) == 0 { 24 } else { 32 },
                iters: 20 + next(17),
            }
        };
        // One seed in five checkpoints back-to-back (the cadence that
        // stresses line pipelining); the rest spread lines out.
        let interval = if next(5) == 0 {
            3 + next(2)
        } else {
            6 + next(9)
        };
        let sync_io = next(4) == 0;
        // These draws once chose whole-blob writes and turned compression
        // off; they are still spent so every later draw keeps its place.
        let _ = next(4);
        let _ = next(2);
        let tiers = match next(3) {
            0 => None,
            _ => Some(match next(3) {
                0 => TierTopology::partner(1),
                1 => {
                    TierTopology::erasure(2 + next(2) as u8, 1 + next(2) as u8)
                }
                _ => TierTopology::partner_and_erasure(1, 2, 1),
            }),
        };
        // Tiered stores keep ≥ 2 lines so an unservable newest line can
        // fall back to a whole older one (repo-wide convention).
        let keep_last = if tiers.is_some() { 2 } else { 1 };

        let schedule = if next(5) == 0 {
            FailureSchedule::none()
        } else {
            let mut parts = Vec::new();
            let styled = next(3);
            parts.push(match styled {
                1 if !sync_io => FailureSchedule::kill_during_async_write(
                    seed ^ 0xA51C,
                    nranks,
                    interval,
                    1 + next(2),
                ),
                2 if tiers.is_some() => {
                    FailureSchedule::kill_during_tier_drain(
                        seed ^ 0x71E2,
                        nranks,
                        interval,
                        1 + next(2),
                    )
                }
                _ => FailureSchedule::random(seed ^ 0xD1E5, nranks, 1, 12..60),
            });
            if next(3) == 0 {
                parts.push(FailureSchedule::random(
                    seed ^ 0x2B15,
                    nranks,
                    1,
                    12..60,
                ));
            }
            if next(4) == 0 {
                parts.push(FailureSchedule::kill_during_recovery(
                    seed ^ 0x3ECF,
                    nranks,
                    15 + next(30),
                ));
            }
            FailureSchedule::compose(parts)
        };

        // The chunker dimension is drawn after everything else
        // so corpus seeds predating it keep their original shapes. The
        // first two arms once drew fixed-size cuts of the same sizes.
        let chunker = match next(3) {
            0 => Chunker::cdc(4096),
            1 => Chunker::cdc(1024),
            _ => Chunker::cdc(1024usize << next(3)),
        };
        // This draw once picked between two compressors; it is still
        // spent so every later draw keeps its place.
        let _ = next(2);
        // Recovery-mode dimension (drawn last, same reason): one seed in
        // three repairs its kills by online splice instead of global
        // rollback — kills of rank 0 or double kills of one rank then
        // exercise the escalation path on top.
        let schedule = if next(3) == 0 {
            schedule.with_localized()
        } else {
            schedule
        };

        Scenario {
            seed,
            nranks,
            app,
            interval: Some(interval),
            sync_io,
            chunker,
            keep_last,
            tiers,
            faults: FaultPlan::from_seed(seed),
            schedule,
        }
    }

    /// Build the job configuration (cadence, I/O, kills) for the
    /// adversarial run. The trace sink and metrics registry are the
    /// campaign runner's to add.
    pub fn config(&self) -> C3Config {
        let mut io = PipelineConfig::default();
        if self.sync_io {
            io.mode = WriteMode::Sync;
        }
        io.chunker = self.chunker;
        io.keep_last = self.keep_last;
        io.tiers = self.tiers;
        let base = match self.interval {
            Some(k) => C3Config::every_ops(k),
            None => C3Config::default(),
        };
        self.schedule.apply(base).with_io(io)
    }

    /// The faulty staging backend for the adversarial run. When the
    /// scenario has a tier topology the job driver wraps this backend as
    /// tier 0 of the hierarchy, so the storage faults land exactly where
    /// a flaky local burst buffer would put them.
    pub fn backend(&self) -> Arc<FaultInjectingBackend> {
        Arc::new(FaultInjectingBackend::new(
            Arc::new(MemoryBackend::new()),
            self.faults.clone(),
        ))
    }

    /// The deterministic projection of this scenario: same app and
    /// world size, but no checkpoints, no kills, no storage faults and
    /// no tier mover. What remains is a pure function of the seed, so
    /// two runs of the projection produce byte-identical canonical
    /// traces.
    ///
    /// The full campaign cannot promise byte-identical traces: control
    /// gathers use any-source receives and abort propagation is
    /// wall-clock, so checkpoint placement under kills is
    /// thread-timing-dependent. The determinism test therefore checks
    /// outputs + verdicts on the full campaign and byte-identical
    /// traces on this projection.
    pub fn determinized(&self) -> Scenario {
        Scenario {
            interval: None,
            schedule: FailureSchedule::none(),
            faults: FaultPlan::none(),
            tiers: None,
            keep_last: 1,
            ..self.clone()
        }
    }

    /// Total kills in the schedule (the reproducer-size metric).
    pub fn fault_count(&self) -> usize {
        self.schedule.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..64u64 {
            assert_eq!(
                Scenario::from_seed(seed),
                Scenario::from_seed(seed),
                "seed {seed}"
            );
        }
        assert_ne!(Scenario::from_seed(1), Scenario::from_seed(2));
    }

    #[test]
    fn generator_covers_the_adversary_space() {
        let scenarios: Vec<Scenario> =
            (0..256).map(Scenario::from_seed).collect();
        let count = |f: &dyn Fn(&Scenario) -> bool| {
            scenarios.iter().filter(|s| f(s)).count()
        };
        assert!(count(&|s| s.tiers.is_some()) >= 64, "tiered scenarios");
        assert!(count(&|s| s.tiers.is_none()) >= 32, "flat scenarios");
        assert!(count(&|s| s.schedule.is_empty()) >= 16, "kill-free");
        assert!(
            count(&|s| s.schedule.injections.len() >= 2) >= 16,
            "multi-kill scenarios"
        );
        assert!(
            count(&|s| !s.schedule.recovery_kills.is_empty()) >= 16,
            "kills during recovery"
        );
        assert!(
            count(&|s| s.schedule.localized && !s.schedule.is_empty()) >= 32,
            "localized (online-splice) recovery scenarios"
        );
        assert!(
            count(&|s| !s.schedule.localized && !s.schedule.is_empty()) >= 96,
            "full-rollback recovery scenarios"
        );
        assert!(
            count(&|s| s.interval.unwrap() <= 4) >= 16,
            "back-to-back checkpoint lines"
        );
        assert!(count(&|s| s.sync_io) >= 16, "sync I/O scenarios");
        assert!(
            count(&|s| s.faults.fail_first_puts > 0
                || s.faults.fail_each_key_once
                || s.faults.fail_put_probability > 0.0)
                >= 64,
            "storage-fault scenarios"
        );
        assert!(
            count(&|s| matches!(s.app, AppChoice::DenseCg { .. })) >= 64,
            "both apps appear"
        );
        assert!(
            count(&|s| s.chunker == Chunker::default()) >= 96,
            "default-size cuts"
        );
        assert!(count(&|s| s.chunker.avg() < 4096) >= 96, "smaller cuts");
        assert!(
            count(&|s| s.chunker == Chunker::default() && !s.sync_io) >= 32,
            "the default write path is exercised"
        );
        for s in &scenarios {
            assert!((2..=5).contains(&s.nranks));
            for &(rank, _) in &s.schedule.injections {
                assert!(rank < s.nranks, "kill targets a real rank");
            }
            for &(rank, _) in &s.schedule.recovery_kills {
                assert!(rank < s.nranks);
            }
        }
    }

    #[test]
    fn corpus_seeds_keep_their_determinized_shapes() {
        // The checked-in corpus guards regressions only while each seed
        // keeps deriving the campaign it was promoted for, so a change to
        // the draw order must show up here.
        use AppChoice::{DenseCg, Laplace};
        let cdc = Chunker::cdc;
        #[rustfmt::skip]
        let want = [
            (1, 2, DenseCg { n: 32, iters: 29 }, false, cdc(4096)),
            (4, 2, DenseCg { n: 24, iters: 31 }, false, cdc(1024)),
            (5, 5, DenseCg { n: 24, iters: 23 }, true, cdc(4096)),
            (6, 3, DenseCg { n: 24, iters: 21 }, false, cdc(4096)),
            (9, 5, DenseCg { n: 24, iters: 21 }, true, cdc(1024)),
            (16, 5, DenseCg { n: 24, iters: 20 }, true, cdc(4096)),
            (19, 2, DenseCg { n: 24, iters: 36 }, false, cdc(4096)),
            (38, 3, Laplace { n: 16, iters: 37 }, true, cdc(1024)),
            (44, 2, DenseCg { n: 32, iters: 28 }, false, cdc(1024)),
            (59, 5, Laplace { n: 16, iters: 37 }, false, cdc(4096)),
        ];
        let corpus = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fuzz_corpus/seeds.txt"
        );
        let seeds = crate::load_seeds(std::path::Path::new(corpus)).unwrap();
        assert_eq!(seeds, want.map(|w| w.0), "corpus and table differ");
        for row in want {
            let d = Scenario::from_seed(row.0).determinized();
            let got = (d.seed, d.nranks, d.app, d.sync_io, d.chunker);
            assert_eq!(got, row);
        }
    }

    #[test]
    fn determinized_strips_every_wall_clock_dimension() {
        let d = Scenario::from_seed(7).determinized();
        assert_eq!(d.interval, None, "no checkpoints");
        assert!(d.schedule.is_empty(), "no kills");
        assert!(d.tiers.is_none(), "no tier mover");
        assert_eq!(d.app, Scenario::from_seed(7).app, "same app");
    }
}

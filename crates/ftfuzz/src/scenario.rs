//! Seed → scenario: every dimension of a campaign derived from one
//! `u64` by a SplitMix64 stream, so a scenario is a pure function of its
//! seed. It is plain data, so the shrinker mutates it directly and the
//! reproducer prints it back as Rust source.

use c3_core::{C3Config, Chunker, PipelineConfig, RecoveryMode, WriteMode};
use ckptstore::{splitmix64, FaultPlan};

use crate::schedule::Adversary;

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
    /// The content-defined chunker blobs are cut with: the default's
    /// 4 KiB average, or a smaller or larger one.
    pub chunker: Chunker,
    /// Kills (including attempt-gated kills during recovery), storage
    /// faults, write mode and recovery mode.
    pub adversary: Adversary,
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
        // These draws once chose a multi-level store and its erasure
        // geometry; they are still spent so every later draw keeps its
        // place. A seed that drew a store may still draw its kill time.
        let drew_tiers = next(3) != 0;
        if drew_tiers && next(3) == 1 {
            let _ = (next(2), next(2));
        }

        let mut kills = Vec::new();
        if next(5) != 0 {
            kills.extend(
                match next(3) {
                    1 if !sync_io => Adversary::kill_during_async_write(
                        seed ^ 0xA51C,
                        nranks,
                        interval,
                        1 + next(2),
                    ),
                    2 if drew_tiers => Adversary::kill_after_commit(
                        seed ^ 0x71E2,
                        nranks,
                        interval,
                        1 + next(2),
                    ),
                    _ => Adversary::random(seed ^ 0xD1E5, nranks, 1, 12..60),
                }
                .kills,
            );
            if next(3) == 0 {
                let more = Adversary::random(seed ^ 0x2B15, nranks, 1, 12..60);
                kills.extend(more.kills);
            }
            if next(4) == 0 {
                let first_at_op = 15 + next(30);
                let double = Adversary::kill_during_recovery(
                    seed ^ 0x3ECF,
                    nranks,
                    first_at_op,
                );
                kills.extend(double.kills);
            }
        }
        kills.sort_by_key(|&(_, at_op, attempt)| (attempt, at_op));

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
        let recovery = if next(3) == 0 {
            RecoveryMode::Localized
        } else {
            RecoveryMode::FullRestart
        };

        let async_io = PipelineConfig::default().mode;
        Scenario {
            seed,
            nranks,
            app,
            interval: Some(interval),
            chunker,
            adversary: Adversary {
                kills,
                faults: FaultPlan::from_seed(seed),
                write_mode: if sync_io { WriteMode::Sync } else { async_io },
                recovery,
            },
        }
    }

    /// The job without its adversary: cadence and chunker.
    pub fn job(&self) -> C3Config {
        let io = PipelineConfig::default().with_chunker(self.chunker);
        let trigger = self.interval.map(C3Config::every_ops);
        trigger.unwrap_or_default().with_io(io)
    }

    /// The adversarial run's configuration: [`Scenario::job`] with the
    /// adversary applied. The driver adds the trace sink and registry.
    pub fn config(&self) -> C3Config {
        self.adversary.apply(self.job())
    }

    /// The deterministic projection of this scenario: same app, world
    /// size, chunker and write mode, but no checkpoints, no kills and no
    /// storage faults, so two runs produce
    /// byte-identical canonical traces. (Under kills, checkpoint
    /// placement depends on thread timing: any-source control gathers
    /// and wall-clock abort propagation.)
    pub fn determinized(&self) -> Scenario {
        Scenario {
            interval: None,
            adversary: Adversary {
                write_mode: self.adversary.write_mode,
                ..Adversary::none()
            },
            ..self.clone()
        }
    }

    /// Total kills (the reproducer-size metric).
    pub fn fault_count(&self) -> usize {
        self.adversary.kills.len()
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
        let kills = |s: &Scenario, attempt: u64| {
            s.adversary.kills.iter().filter(|k| k.2 == attempt).count()
        };
        let localized =
            |s: &Scenario| s.adversary.recovery == RecoveryMode::Localized;
        assert!(count(&|s| s.fault_count() == 0) >= 16, "kill-free");
        assert!(count(&|s| kills(s, 1) >= 2) >= 16, "multi-kill scenarios");
        assert!(count(&|s| kills(s, 2) > 0) >= 16, "kills during recovery");
        assert!(
            count(&|s| localized(s) && s.fault_count() > 0) >= 32,
            "localized (online-splice) recovery scenarios"
        );
        assert!(
            count(&|s| !localized(s) && s.fault_count() > 0) >= 96,
            "full-rollback recovery scenarios"
        );
        assert!(
            count(&|s| s.interval.unwrap() <= 4) >= 16,
            "back-to-back checkpoint lines"
        );
        let sync_io = |s: &Scenario| s.adversary.write_mode == WriteMode::Sync;
        assert!(count(&sync_io) >= 16, "sync I/O scenarios");
        let f = |s: &Scenario| s.adversary.faults.clone();
        assert!(
            count(&|s| f(s).fail_first_puts > 0
                || f(s).fail_each_key_once
                || f(s).fail_put_probability > 0.0)
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
            count(&|s| s.chunker == Chunker::default() && !sync_io(s)) >= 32,
            "the default write path is exercised"
        );
        for s in &scenarios {
            assert!((2..=5).contains(&s.nranks));
            for &(rank, _, _) in &s.adversary.kills {
                assert!(rank < s.nranks, "kill targets a real rank");
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
            let sync_io = d.adversary.write_mode == WriteMode::Sync;
            let got = (d.seed, d.nranks, d.app, sync_io, d.chunker);
            assert_eq!(got, row);
        }
    }

    #[test]
    fn determinized_strips_every_wall_clock_dimension() {
        let d = Scenario::from_seed(7).determinized();
        assert_eq!(d.interval, None, "no checkpoints");
        assert_eq!(d.fault_count(), 0, "no kills");
        assert_eq!(d.app, Scenario::from_seed(7).app, "same app");
    }
}

//! The four workloads and how a seed turns one into a concrete job plan.

/// Ranks in every job. Ranks are threads and the benchmark pins itself to
/// one CPU (see `host::pin_to_one_cpu`), so two ranks already alternate on
/// it; more would add context switches and nothing else.
pub const RANKS: usize = 2;

/// Which paper application a workload runs, at which size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSpec {
    DenseCg { n: usize, iters: u64 },
    Neurosys { m: usize, iters: u64 },
    Laplace { n: usize, iters: u64 },
}

impl AppSpec {
    pub fn iters(&self) -> u64 {
        match *self {
            AppSpec::DenseCg { iters, .. }
            | AppSpec::Neurosys { iters, .. }
            | AppSpec::Laplace { iters, .. } => iters,
        }
    }

    fn with_iters(self, iters: u64) -> AppSpec {
        match self {
            AppSpec::DenseCg { n, .. } => AppSpec::DenseCg { n, iters },
            AppSpec::Neurosys { m, .. } => AppSpec::Neurosys { m, iters },
            AppSpec::Laplace { n, .. } => AppSpec::Laplace { n, iters },
        }
    }
}

/// One injected stopping failure: `rank` dies when its op counter reaches
/// `at_op`, on attempt `attempt` or later (the counter restarts per
/// attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    pub rank: usize,
    pub at_op: u64,
    pub attempt: u64,
}

/// A benchmark workload: the job, its checkpoint cadence, its failures,
/// and the message sizes its probes use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer this workload loads and which it leaves idle.
    pub why: &'static str,
    pub app: AppSpec,
    /// `CheckpointTrigger::EveryOps` interval. Never `EveryMillis`: the
    /// number of checkpoint lines has to repeat exactly.
    pub every_ops: u64,
    pub kills: &'static [Kill],
    /// Payload of the job's dominant point-to-point message, in bytes.
    pub p2p_bytes: usize,
    /// Per-rank contribution to the job's dominant collective, in bytes
    /// (the point-to-point size where the job has no collectives).
    pub coll_bytes: usize,
    /// Data collectives the job issues per iteration.
    pub collectives_per_iter: u64,
}

/// Rank 1 dies four times: just before the third checkpoint line of
/// attempt 1 (op 3750), then just before the second line (op 2500) of
/// each of the next three attempts. The seed's ±50 ops stay short of the
/// lines, so every seed loses nearly a whole interval per kill.
const CG_KILLS: [Kill; 4] = [
    Kill {
        rank: 1,
        at_op: 3650,
        attempt: 1,
    },
    Kill {
        rank: 1,
        at_op: 2400,
        attempt: 2,
    },
    Kill {
        rank: 1,
        at_op: 2400,
        attempt: 3,
    },
    Kill {
        rank: 1,
        at_op: 2400,
        attempt: 4,
    },
];

// Sizes are set so that the uninstrumented job takes about a second on
// the one CPU the benchmark runs on: long enough to average over
// scheduler ticks, short enough for several repetitions per run.

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cg_state",
        why: "Dense CG, 4 MB state per rank, 25 checkpoint lines, no collectives: statesave, ckptpipe and ckptstore carry the overhead; control-collective work must not move it",
        app: AppSpec::DenseCg { n: 1024, iters: 1250 },
        every_ops: 500,
        kills: &[],
        p2p_bytes: 4096,
        coll_bytes: 4096,
        collectives_per_iter: 0,
    },
    Workload {
        name: "neurosys_coll",
        why: "Neurosys, 2 KB state, 96000 collectives each preceded by a control allgather: the piggyback level alone carries the overhead; chunker, codec and store work must not move it",
        app: AppSpec::Neurosys { m: 16, iters: 16000 },
        every_ops: 8000,
        kills: &[],
        p2p_bytes: 1024,
        coll_bytes: 1024,
        collectives_per_iter: 6,
    },
    Workload {
        name: "laplace_halo",
        why: "Laplace, 3 KB halo messages, 7 checkpoint lines: the control workload, full is within a few percent of base; only the per-message p2p path can move it",
        app: AppSpec::Laplace { n: 384, iters: 2000 },
        every_ops: 1000,
        kills: &[],
        p2p_bytes: 3072,
        coll_bytes: 3072,
        collectives_per_iter: 0,
    },
    Workload {
        name: "cg_kill",
        why: "Dense CG with rank 1 killed 4 times under full restart: the storage layers run the other way round (latest_recoverable, chunk get and decode, restore, suppression and replay)",
        app: AppSpec::DenseCg { n: 1024, iters: 1250 },
        every_ops: 1250,
        kills: &CG_KILLS,
        p2p_bytes: 4096,
        coll_bytes: 4096,
        collectives_per_iter: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Iteration counts, checkpoint interval and kill positions are divided
/// by this in `--smoke` mode.
pub const SMOKE_DIVISOR: u64 = 20;

/// A workload made concrete for one run: sizes scaled for the mode, kill
/// positions perturbed by the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub app: AppSpec,
    pub every_ops: u64,
    pub kills: Vec<Kill>,
}

/// SplitMix64 step: the benchmark's only source of seeded variation.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The seed moves each kill by up to ±50 ops, so that no run lands on
    /// a lucky phase of the protocol (it also fills the probes' buffers).
    /// It changes nothing else: the count of checkpoint lines and of
    /// restarts is the same for every seed.
    pub fn plan(&self, seed: u64, smoke: bool) -> Plan {
        let div = if smoke { SMOKE_DIVISOR } else { 1 };
        let mut rng = seed;
        let kills = self
            .kills
            .iter()
            .map(|k| {
                let jitter = (splitmix(&mut rng) % 101) as i64 - 50;
                let at = k.at_op as i64 + jitter;
                Kill {
                    at_op: (at / div as i64).max(1) as u64,
                    ..*k
                }
            })
            .collect();
        Plan {
            app: self.app.with_iters((self.app.iters() / div).max(1)),
            every_ops: (self.every_ops / div).max(1),
            kills,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let w = find("cg_kill").unwrap();
        assert_eq!(w.plan(7, false), w.plan(7, false));
        assert_ne!(w.plan(7, false).kills, w.plan(8, false).kills);
        for seed in 0..200 {
            for (k, base) in w.plan(seed, false).kills.iter().zip(w.kills) {
                assert!(k.at_op.abs_diff(base.at_op) <= 50);
                assert_eq!((k.rank, k.attempt), (base.rank, base.attempt));
            }
        }
    }

    #[test]
    fn seed_leaves_sizes_alone_and_smoke_divides_them() {
        let w = find("cg_state").unwrap();
        assert_eq!(w.plan(1, false).app, w.app);
        assert_eq!(w.plan(1, false).every_ops, 500);
        let smoke = w.plan(1, true);
        assert_eq!(smoke.app, AppSpec::DenseCg { n: 1024, iters: 62 });
        assert_eq!(smoke.every_ops, 25);
    }
}

//! Application correctness: parallel results match sequential references,
//! outputs are independent of rank count where expected, and every
//! application survives injected failures with identical results.

use c3_apps::{dense_cg, DenseCg, Laplace, Neurosys};
use c3_core::{run_job, C3Config, InstrumentationLevel};
use ftsim::{chaos_check, FailureSchedule};

fn plain_cfg() -> C3Config {
    C3Config {
        level: InstrumentationLevel::None,
        ..C3Config::default()
    }
}

// ---------------------------------------------------------------------
// Dense CG
// ---------------------------------------------------------------------

#[test]
fn dense_cg_matches_across_rank_counts() {
    // The butterfly reductions use a fixed combination tree per rank
    // count, so different rank counts may differ in the last ulp — but
    // convergence must hold everywhere and the digest must be identical
    // across *runs* at the same rank count.
    let app = DenseCg::new(64, 30);
    for n in [1usize, 2, 4] {
        let a = run_job(n, &plain_cfg(), None, &app).unwrap();
        let b = run_job(n, &plain_cfg(), None, &app).unwrap();
        assert_eq!(a.outputs, b.outputs, "nondeterministic at n={n}");
        let rho = f64::from_bits(a.outputs[0].1);
        assert!(rho < 1e-12, "CG must converge at n={n}, rho={rho}");
    }
}

#[test]
fn dense_cg_single_rank_matches_sequential_reference() {
    let app = DenseCg::new(48, 20);
    let report = run_job(1, &plain_cfg(), None, &app).unwrap();
    let (x_ref, rho_ref) = dense_cg::test_support::sequential_cg(48, 20);
    assert_eq!(report.outputs[0].0, c3_apps::digest_f64(&x_ref));
    assert_eq!(f64::from_bits(report.outputs[0].1), rho_ref);
}

#[test]
fn dense_cg_survives_failures() {
    let app = DenseCg::new(48, 25);
    let schedules: Vec<FailureSchedule> = (0..3)
        .map(|seed| FailureSchedule::random(seed, 4, 1, 30..150))
        .collect();
    let report =
        chaos_check(4, &C3Config::every_ops(40), &app, &schedules).unwrap();
    assert!(report.total_restarts >= 1);
}

// ---------------------------------------------------------------------
// Laplace
// ---------------------------------------------------------------------

/// Sequential Jacobi reference with the same update rule.
fn sequential_laplace(n: usize, iters: u64) -> Vec<f64> {
    let app = Laplace { n, iters: 0 };
    let _ = app;
    let cell = |i: usize, j: usize| -> f64 {
        if j == 0 {
            100.0
        } else if j == n - 1 {
            -20.0
        } else if i == 0 || i == n - 1 {
            25.0
        } else {
            0.0
        }
    };
    let mut grid: Vec<f64> = (0..n * n).map(|k| cell(k / n, k % n)).collect();
    let mut next = grid.clone();
    for _ in 0..iters {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let idx = i * n + j;
                next[idx] = 0.25
                    * (grid[idx - n]
                        + grid[idx + n]
                        + grid[idx - 1]
                        + grid[idx + 1]);
            }
        }
        std::mem::swap(&mut grid, &mut next);
    }
    grid
}

#[test]
fn laplace_matches_sequential_reference_at_every_rank_count() {
    let n = 24;
    let iters = 15;
    let reference = sequential_laplace(n, iters);
    for nprocs in [1usize, 2, 3, 4] {
        let report =
            run_job(nprocs, &plain_cfg(), None, &Laplace { n, iters })
                .unwrap();
        // Concatenating per-rank digests isn't the same as a global
        // digest, so compare per-rank digests against reference slices.
        for (rank, out) in report.outputs.iter().enumerate() {
            let (lo, hi) = c3_apps::linalg::block_range(n, nprocs, rank);
            let expect = c3_apps::digest_f64(&reference[lo * n..hi * n]);
            assert_eq!(*out, expect, "rank {rank} of {nprocs}");
        }
    }
}

#[test]
fn laplace_survives_failures() {
    let app = Laplace { n: 32, iters: 30 };
    let schedules: Vec<FailureSchedule> = (5..8)
        .map(|seed| FailureSchedule::random(seed, 3, 1, 20..100))
        .collect();
    let report =
        chaos_check(3, &C3Config::every_ops(25), &app, &schedules).unwrap();
    assert!(report.total_restarts >= 1);
}

// ---------------------------------------------------------------------
// Neurosys
// ---------------------------------------------------------------------

#[test]
fn neurosys_is_deterministic_and_rank_count_invariant() {
    // Neurosys only uses library collectives whose reduction order is
    // rank-count independent for concatenation (allgather), so outputs
    // must agree across rank counts for matching neuron partitions...
    // partitions differ, so instead check determinism per rank count and
    // stability of the trajectory.
    let app = Neurosys::new(8, 12);
    for nprocs in [1usize, 2, 4] {
        let a = run_job(nprocs, &plain_cfg(), None, &app).unwrap();
        let b = run_job(nprocs, &plain_cfg(), None, &app).unwrap();
        assert_eq!(a.outputs, b.outputs, "nondeterministic at n={nprocs}");
    }
}

#[test]
fn neurosys_trajectory_stays_bounded() {
    // FHN dynamics with these parameters stay in a bounded attractor; a
    // blow-up would indicate an integration bug.
    struct Probe;
    use c3_core::{C3App, C3Result, Process};
    impl C3App for Probe {
        type State = c3_apps::neurosys::NeuroState;
        type Output = bool;
        fn init(&self, p: &mut Process<'_>) -> C3Result<Self::State> {
            Neurosys::new(8, 50).init(p)
        }
        fn run(
            &self,
            p: &mut Process<'_>,
            s: &mut Self::State,
        ) -> C3Result<bool> {
            Neurosys::new(8, 50).run(p, s)?;
            Ok(s.v.iter().chain(s.w.iter()).all(|x| x.abs() < 10.0))
        }
    }
    let report = run_job(2, &plain_cfg(), None, &Probe).unwrap();
    assert!(report.outputs.iter().all(|&b| b), "trajectory blew up");
}

#[test]
fn neurosys_survives_failures() {
    let app = Neurosys::new(8, 20);
    let schedules: Vec<FailureSchedule> = (20..23)
        .map(|seed| FailureSchedule::random(seed, 4, 1, 30..200))
        .collect();
    let report =
        chaos_check(4, &C3Config::every_ops(60), &app, &schedules).unwrap();
    assert!(report.total_restarts >= 1);
}

// ---------------------------------------------------------------------
// Instrumentation-level equivalence for all three apps
// ---------------------------------------------------------------------

#[test]
fn all_levels_produce_identical_results() {
    use InstrumentationLevel::*;
    let levels = [None, Piggyback, ProtocolOnly, Full];

    let cg = DenseCg::new(32, 10);
    let la = Laplace { n: 16, iters: 10 };
    let ns = Neurosys::new(6, 6);

    let run_at = |level: InstrumentationLevel| {
        let cfg = C3Config {
            level,
            trigger: c3_core::CheckpointTrigger::EveryOps(30),
            ..C3Config::default()
        };
        (
            run_job(2, &cfg, Option::None, &cg).unwrap().outputs,
            run_job(2, &cfg, Option::None, &la).unwrap().outputs,
            run_job(2, &cfg, Option::None, &ns).unwrap().outputs,
        )
    };
    let baseline = run_at(None);
    for level in &levels[1..] {
        let got = run_at(*level);
        assert_eq!(got.0, baseline.0, "dense CG differs at {level:?}");
        assert_eq!(got.1, baseline.1, "laplace differs at {level:?}");
        assert_eq!(got.2, baseline.2, "neurosys differs at {level:?}");
    }
}

// ---------------------------------------------------------------------
// Golden outputs
// ---------------------------------------------------------------------

/// Per-rank outputs at 1, 2 and 3 ranks, taken at commit `50c4c29`: the
/// last one whose `block_matvec` summed one row at a time and whose
/// Jacobi sweep went cell by cell. A kernel may get faster; these bits
/// may not move.
#[test]
fn outputs_match_the_digests_of_the_scalar_kernels() {
    const CG: [&[(u64, u64)]; 3] = [
        &[(0x411b_42f0_6b0b_f696, 0x2fb3_c2ea_8e5a_b6b2)],
        &[
            (0xd93f_4a6e_d32f_9b1a, 0x2fb3_c2ea_c893_018f),
            (0x6a96_7bf1_d45f_b089, 0x2fb3_c2ea_c893_018f),
        ],
        &[
            (0xfc4d_5603_46ef_88c4, 0x2fb3_c1f3_a12e_7655),
            (0xdd89_38fc_d5d6_a66c, 0x2fb3_c1f3_a12e_7655),
            (0x6163_0870_6fd5_533f, 0x2fb3_c1f3_a12e_7655),
        ],
    ];
    const LAPLACE: [&[u64]; 3] = [
        &[0x3eb2_f8ad_2c2b_a281],
        &[0x2702_2c96_c9b7_6d6f, 0x0d20_b7d8_c1e5_cbe3],
        &[
            0x3bd0_f189_fc7e_9585,
            0xde36_fce2_e48b_24cd,
            0x8e5d_ebda_9603_2649,
        ],
    ];
    const NEUROSYS: [&[u64]; 3] = [
        &[0x9361_0520_dbdd_4be8],
        &[0xc848_304b_2375_010c, 0x7b6f_afd8_1531_13ee],
        &[
            0x16b2_744a_78b6_7727,
            0xfa1a_23f8_9068_ca99,
            0xf7df_8f13_d512_6e18,
        ],
    ];
    for n in 1..=3 {
        let cfg = plain_cfg();
        let cg = run_job(n, &cfg, None, &DenseCg::new(64, 20)).unwrap();
        assert_eq!(cg.outputs, CG[n - 1], "dense CG at {n} ranks");
        let la = Laplace { n: 24, iters: 60 };
        let la = run_job(n, &cfg, None, &la).unwrap();
        assert_eq!(la.outputs, LAPLACE[n - 1], "Laplace at {n} ranks");
        let ns = run_job(n, &cfg, None, &Neurosys::new(8, 50)).unwrap();
        assert_eq!(ns.outputs, NEUROSYS[n - 1], "Neurosys at {n} ranks");
    }
}

// ---------------------------------------------------------------------
// §7 recomputation checkpointing (exclude read-only matrix block)
// ---------------------------------------------------------------------

#[test]
fn recompute_checkpointing_matches_full_checkpointing() {
    let full = DenseCg::new(48, 25);
    let recomputed = DenseCg::recompute(48, 25);
    let cfg = C3Config::every_ops(40);
    let a = run_job(3, &cfg, None, &full).unwrap();
    let b = run_job(3, &cfg, None, &recomputed).unwrap();
    assert_eq!(a.outputs, b.outputs, "ablation must not change numerics");

    // Checkpoints shrink from O(n²/P) to O(n/P).
    let full_bytes: u64 = a.stats.iter().map(|s| s.app_state_bytes).sum();
    let slim_bytes: u64 = b.stats.iter().map(|s| s.app_state_bytes).sum();
    assert!(
        slim_bytes * 4 < full_bytes,
        "expected >4x shrink: full={full_bytes} slim={slim_bytes}"
    );
}

#[test]
fn recompute_checkpointing_recovers_from_failures() {
    let app = DenseCg::recompute(48, 25);
    let reference =
        run_job(3, &C3Config::every_ops(9999), None, &app).unwrap();
    for at_op in [60, 110] {
        let cfg = C3Config::every_ops(30).with_failure(1, at_op);
        let report = run_job(3, &cfg, None, &app).unwrap();
        assert_eq!(report.restarts, 1, "at_op={at_op}");
        assert_eq!(
            report.outputs, reference.outputs,
            "matrix regeneration must be exact (at_op={at_op})"
        );
    }
}

// ---------------------------------------------------------------------
// Folding (the paper's §1.2 motivating example)
// ---------------------------------------------------------------------

#[test]
fn folding_is_deterministic_per_rank_count() {
    use c3_apps::Folding;
    let app = Folding::new(48, 25);
    for nprocs in [1usize, 2, 4] {
        let a = run_job(nprocs, &plain_cfg(), None, &app).unwrap();
        let b = run_job(nprocs, &plain_cfg(), None, &app).unwrap();
        assert_eq!(a.outputs, b.outputs, "nondeterministic at n={nprocs}");
    }
}

#[test]
fn folding_survives_failures() {
    use c3_apps::Folding;
    let app = Folding::new(48, 30);
    let schedules: Vec<FailureSchedule> = (30..33)
        .map(|seed| FailureSchedule::random(seed, 3, 1, 15..50))
        .collect();
    let report =
        chaos_check(3, &C3Config::every_ops(40), &app, &schedules).unwrap();
    assert!(report.total_restarts >= 1);
}

//! §7 ablation — recomputation checkpointing.
//!
//! The paper's future work proposes storing a *description* of recomputable
//! data instead of the data ("recomputation checkpointing"). Dense CG's
//! matrix block is read-only and deterministic, so it can be excluded from
//! checkpoints and regenerated on restart. This bench measures the effect
//! on checkpoint size and full-checkpoint overhead at the Figure 8a sizes,
//! and validates that recovery through a failure stays exact.

use c3_apps::DenseCg;
use c3_bench::{
    fmt_bytes, measure_levels, Fig8Cell, FIG8A_CKPT_MS, FIG8A_SIZES, REPS,
};
use c3_core::{run_job, C3Config};

/// The full-checkpoint cell (last of the four) of one configuration,
/// sampled exactly as a Figure 8a row is: same interval, interleaved
/// levels, median.
fn run_one(nprocs: usize, app: &DenseCg) -> Fig8Cell {
    let mut row = measure_levels(nprocs, app, "", FIG8A_CKPT_MS);
    row.cells.pop().expect("four levels")
}

fn main() {
    let nprocs = 4;
    println!("=== §7 ablation — recomputation checkpointing (dense CG) ===");
    println!("median of n={REPS} interleaved repetitions [q1 q3]");
    println!(
        "{:>10} {:>24} {:>10} {:>24} {:>10} {:>9}",
        "size", "full ckpt", "state", "recompute", "state", "Δtime"
    );
    let timed = |c: &Fig8Cell| {
        format!("{:.3}s {}", c.elapsed.as_secs_f64(), c.spread())
    };
    for (n, iters) in FIG8A_SIZES {
        let full = run_one(nprocs, &DenseCg::new(n, iters));
        let slim = run_one(nprocs, &DenseCg::recompute(n, iters));
        println!(
            "{:>10} {:>24} {:>10} {:>24} {:>10} {:>+8.1}%",
            format!("{n}x{n}"),
            timed(&full),
            fmt_bytes(full.app_state_bytes),
            timed(&slim),
            fmt_bytes(slim.app_state_bytes),
            (slim.elapsed.as_secs_f64() / full.elapsed.as_secs_f64() - 1.0)
                * 100.0,
        );
    }

    // Correctness under failure with regeneration on the recovery path.
    let app = DenseCg::recompute(192, 400);
    let reference =
        run_job(nprocs, &C3Config::every_ops(1_000_000), None, &app)
            .expect("reference");
    let cfg = C3Config::every_ops(120).with_failure(2, 300);
    let report = run_job(nprocs, &cfg, None, &app).expect("faulty");
    assert_eq!(report.outputs, reference.outputs);
    println!(
        "\nrecovery with matrix regeneration: {} restart(s), outputs exact ✓",
        report.restarts
    );
    println!(
        "checkpoints shrink from O(n²/P) to O(n/P) bytes while numerics are\n\
         unchanged — the paper's §7 'store the description, not the data'."
    );
}

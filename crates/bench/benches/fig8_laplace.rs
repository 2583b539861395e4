//! E2 / Figure 8(b): Laplace solver running time at three grid sizes under
//! the four instrumentation versions.
//!
//! Paper observation this reproduces in shape: overhead stays small at
//! every size (paper: ≤ 2.1%) because the per-rank state is tiny relative
//! to dense CG and each large halo message dwarfs the piggybacked word.
//!
//! Paper sizes 512/1024/2048 with 40 000 iterations on 16 nodes are scaled
//! to 96/192/384 on 4 simulator ranks, with as many iterations as make an
//! unmodified run take ≥ 0.3 s and commit 5–15 lines.

use c3_apps::Laplace;
use c3_bench::{measure_levels, print_csv, print_fig8};

fn main() {
    let nprocs = 4;
    let mut rows = Vec::new();
    for (n, iters) in [(96usize, 40_000u64), (192, 17_000), (384, 3600)] {
        let app = Laplace { n, iters };
        rows.push(measure_levels(nprocs, &app, format!("{n}x{n}"), 50));
    }
    print_fig8(
        "Figure 8b — Laplace Solver (4 ranks, ckpt every 50ms)",
        &rows,
    );
    print_csv("laplace", &rows);

    let worst = rows
        .iter()
        .flat_map(|r| (1..4).map(|i| r.overhead_pct(i)).collect::<Vec<_>>())
        .fold(f64::MIN, f64::max);
    println!(
        "worst-case overhead across all versions/sizes: {worst:.1}% \
         (paper: ≤ 2.1% on real hardware; expect single digits here)"
    );
}

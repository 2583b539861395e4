//! E1 / Figure 8(a): Dense Conjugate Gradient running time at three
//! problem sizes under the four instrumentation versions.
//!
//! Paper observations this reproduces in shape:
//! * per-rank state grows quadratically with `n`, so full-checkpoint
//!   overhead jumps at the largest size (paper: 14% → 14% → 43%);
//! * protocol-without-app-state overhead stays small (paper: ~4.5%),
//!   showing the cost is state volume, not the protocol.
//!
//! Paper sizes 4096/8192/16384 on 16 nodes are scaled to 192/384/768 on 4
//! simulator ranks (single host); the paper's 500 iterations become as
//! many as make an unmodified run take ≥ 0.3 s and commit 5–15 lines.

use c3_apps::DenseCg;
use c3_bench::{
    measure_levels, print_csv, print_fig8, FIG8A_CKPT_MS, FIG8A_SIZES,
};

fn main() {
    let nprocs = 4;
    let mut rows = Vec::new();
    for (n, iters) in FIG8A_SIZES {
        let app = DenseCg::new(n, iters);
        let label = format!("{n}x{n}");
        rows.push(measure_levels(nprocs, &app, label, FIG8A_CKPT_MS));
    }
    print_fig8(
        &format!(
            "Figure 8a — Dense Conjugate Gradient (4 ranks, ckpt every \
             {FIG8A_CKPT_MS}ms)"
        ),
        &rows,
    );
    print_csv("dense_cg", &rows);

    // Shape assertions (soft): full-checkpoint overhead should grow with
    // state size; flag loudly if the trend inverts.
    let small = rows[0].overhead_pct(3);
    let large = rows[2].overhead_pct(3);
    if large < small {
        println!(
            "NOTE: full-checkpoint overhead did not grow with state size \
             ({small:.1}% -> {large:.1}%); rerun on a quiet machine"
        );
    }
}

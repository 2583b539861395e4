//! E3 / Figure 8(c): Neurosys running time at four network sizes under
//! the four instrumentation versions.
//!
//! The paper's observation: the piggyback version's overhead is dramatic
//! at the smallest size and decays as the network grows (160% at 16×16 →
//! 85% at 32×32 → 34% at 64×64 → 2.7% at 128×128), because each of the 5
//! allgathers + 1 gather per step is preceded by a control collective
//! whose cost is independent of the payload. Here the control word rides
//! on the allgathers' own frames and the gather's root answers only the
//! contributors that are logging, so no call pays a round of its own and
//! the decay starts from a much lower point (EXPERIMENTS.md E3 has both).

use c3_apps::Neurosys;
use c3_bench::{measure_levels, print_csv, print_fig8};

fn main() {
    let nprocs = 4;
    let mut rows = Vec::new();
    for (m, iters) in [(16usize, 8000u64), (32, 5200), (64, 1800), (128, 300)]
    {
        let app = Neurosys::new(m, iters);
        rows.push(measure_levels(nprocs, &app, format!("{m}x{m}"), 50));
    }
    print_fig8("Figure 8c — Neurosys (4 ranks, ckpt every 50ms)", &rows);
    print_csv("neurosys", &rows);

    let first = rows[0].overhead_pct(1);
    let last = rows[rows.len() - 1].overhead_pct(1);
    println!(
        "piggyback overhead decay: {first:.0}% at {} -> {last:.0}% at {} \
         (paper: 160% -> 2.7%)",
        rows[0].label,
        rows[rows.len() - 1].label
    );
    if last >= first {
        println!("NOTE: decay trend not observed; rerun on a quiet machine");
    }
}

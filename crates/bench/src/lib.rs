//! Shared harness for the Figure 8 reproduction benchmarks.
//!
//! The paper's evaluation (Section 6.2) measures, for each application and
//! problem size, the running time of four program versions:
//!
//! 1. the unmodified program,
//! 2. \+ piggybacking data on messages (and the control word on
//!    collectives),
//! 3. \+ the protocol's logs and MPI-state saving, without application
//!    state,
//! 4. full checkpoints.
//!
//! [`measure_levels`] runs all four versions and prints one row per size with
//! absolute times, overhead percentages over the unmodified version, and
//! the application state size — the same series as the paper's bar
//! charts. Absolute numbers differ from the paper's 2001-era cluster, but
//! the comparisons ("who wins, by roughly what factor, where the
//! crossover falls") are the reproduction target.

#![deny(missing_docs)]

use std::time::Duration;

use c3_core::{
    run_job, C3App, C3Config, CheckpointTrigger, InstrumentationLevel,
};

/// One measured cell of the Figure 8 matrix.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    /// Which program version this cell measured.
    pub level: InstrumentationLevel,
    /// Median wall time over [`REPS`] repetitions.
    pub elapsed: Duration,
    /// Lower and upper quartile of the wall time.
    pub quartiles: (Duration, Duration),
    /// Global checkpoints committed during the median run.
    pub checkpoints: u64,
    /// Application state bytes written by the busiest rank of that run.
    pub app_state_bytes: u64,
}

impl Fig8Cell {
    /// The quartiles as the tables print them: `[q1 q3]`, in seconds.
    pub fn spread(&self) -> String {
        let (q1, q3) = self.quartiles;
        format!("[{:.3} {:.3}]", q1.as_secs_f64(), q3.as_secs_f64())
    }
}

/// One row (problem size) of a Figure 8 chart.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Problem-size label (e.g. "768x768").
    pub label: String,
    /// One cell per instrumentation level, in [`LEVELS`] order.
    pub cells: Vec<Fig8Cell>,
}

impl Fig8Row {
    /// Overhead of cell `i`'s median relative to the unmodified version's.
    pub fn overhead_pct(&self, i: usize) -> f64 {
        let base = self.cells[0].elapsed.as_secs_f64();
        (self.cells[i].elapsed.as_secs_f64() / base - 1.0) * 100.0
    }
}

/// The four instrumentation levels in the paper's order.
pub const LEVELS: [InstrumentationLevel; 4] = [
    InstrumentationLevel::None,
    InstrumentationLevel::Piggyback,
    InstrumentationLevel::ProtocolOnly,
    InstrumentationLevel::Full,
];

/// Figure 8a's `(matrix dimension, iterations)` rows and its checkpoint
/// interval in ms; `ablation_recompute` measures the same cells.
pub const FIG8A_SIZES: [(usize, u64); 3] =
    [(192, 8000), (384, 4000), (768, 1200)];
/// See [`FIG8A_SIZES`].
pub const FIG8A_CKPT_MS: u64 = 40;

/// Repetitions per cell, c3bench's minimum. With `REPS + 1` a multiple
/// of four the quartiles (exclusive method, as c3bench computes them)
/// and the median are order statistics: no interpolation.
pub const REPS: usize = 7;
const _: () = assert!((REPS + 1).is_multiple_of(4));

/// Run one application configuration at all four levels.
///
/// As c3bench does: one discarded warm-up job, then the four levels
/// interleaved inside each of [`REPS`] repetitions, so drift over the
/// run lands on all of them alike; each cell is its median run.
/// `ckpt_interval_ms` plays the role of the paper's 30-second checkpoint
/// interval, scaled to the benchmark's run time.
pub fn measure_levels<A: C3App>(
    nprocs: usize,
    app: &A,
    label: impl Into<String>,
    ckpt_interval_ms: u64,
) -> Fig8Row {
    let run = |level| {
        let cfg = C3Config {
            level,
            trigger: CheckpointTrigger::EveryMillis(ckpt_interval_ms),
            ..C3Config::default()
        };
        run_job(nprocs, &cfg, None, app).expect("benchmark run failed")
    };
    run(InstrumentationLevel::Full);
    let mut runs = LEVELS.map(|_| Vec::with_capacity(REPS));
    for _ in 0..REPS {
        for (level, runs) in LEVELS.into_iter().zip(&mut runs) {
            runs.push(run(level));
        }
    }
    let cells = LEVELS
        .into_iter()
        .zip(runs)
        .map(|(level, mut runs)| {
            runs.sort_by_key(|r| r.elapsed);
            let quartile = |q: usize| runs[q * (REPS + 1) / 4 - 1].elapsed;
            let median = &runs[REPS / 2];
            Fig8Cell {
                level,
                elapsed: median.elapsed,
                quartiles: (quartile(1), quartile(3)),
                checkpoints: median.last_committed.unwrap_or(0),
                app_state_bytes: median
                    .stats
                    .iter()
                    .map(|s| s.app_state_bytes)
                    .max()
                    .unwrap_or(0),
            }
        })
        .collect();
    Fig8Row {
        label: label.into(),
        cells,
    }
}

/// Human-readable size.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Print a Figure 8 style table: per size one line of medians with
/// their overhead over the unmodified version, and beneath it each
/// median's quartiles.
pub fn print_fig8(title: &str, rows: &[Fig8Row]) {
    println!("\n=== {title} ===");
    println!("median of n={REPS} interleaved repetitions, [q1 q3] beneath");
    println!(
        "{:>14} {:>16} {:>16} {:>16} {:>16} {:>10} {:>8}",
        "size",
        "unmodified",
        "+piggyback",
        "+protocol",
        "full ckpt",
        "state",
        "ckpts"
    );
    for row in rows {
        let cell = |i: usize| {
            format!(
                "{:>7.3}s {:>+5.1}%",
                row.cells[i].elapsed.as_secs_f64(),
                row.overhead_pct(i)
            )
        };
        println!(
            "{:>14} {:>15.3}s {:>16} {:>16} {:>16} {:>10} {:>8}",
            row.label,
            row.cells[0].elapsed.as_secs_f64(),
            cell(1),
            cell(2),
            cell(3),
            fmt_bytes(row.cells[3].app_state_bytes),
            row.cells[3].checkpoints,
        );
        let spread = |i: usize| row.cells[i].spread();
        println!(
            "{:>14} {:>16} {:>16} {:>16} {:>16}",
            "",
            spread(0),
            spread(1),
            spread(2),
            spread(3)
        );
    }
}

/// Machine-readable dump (one line per cell) for plotting.
pub fn print_csv(chart: &str, rows: &[Fig8Row]) {
    println!(
        "csv,chart,size,level,median_s,q1_s,q3_s,n,overhead_pct,\
         app_state_bytes,checkpoints"
    );
    for row in rows {
        for (i, cell) in row.cells.iter().enumerate() {
            println!(
                "csv,{chart},{},{:?},{:.6},{:.6},{:.6},{REPS},{:.2},{},{}",
                row.label,
                cell.level,
                cell.elapsed.as_secs_f64(),
                cell.quartiles.0.as_secs_f64(),
                cell.quartiles.1.as_secs_f64(),
                row.overhead_pct(i),
                cell.app_state_bytes,
                cell.checkpoints
            );
        }
    }
}

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

pub mod report;

use std::time::Duration;

use c3_core::{
    run_job, C3App, C3Config, CheckpointTrigger, InstrumentationLevel,
};

/// One measured cell of the Figure 8 matrix.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    /// Which program version this cell measured.
    pub level: InstrumentationLevel,
    /// Best-of-N wall time.
    pub elapsed: Duration,
    /// Global checkpoints committed during the run.
    pub checkpoints: u64,
    /// Application state bytes written by the busiest rank.
    pub app_state_bytes: u64,
    /// Total bytes written to stable storage.
    pub storage_bytes: u64,
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
    /// Overhead of cell `i` relative to the unmodified version.
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

/// Run one application configuration at all four levels.
///
/// `ckpt_interval_ms` plays the role of the paper's 30-second checkpoint
/// interval, scaled to the benchmark's run time.
pub fn measure_levels<A: C3App>(
    nprocs: usize,
    app: &A,
    label: impl Into<String>,
    ckpt_interval_ms: u64,
    repeats: u32,
) -> Fig8Row {
    let mut cells = Vec::with_capacity(LEVELS.len());
    for level in LEVELS {
        let cfg = C3Config {
            level,
            trigger: CheckpointTrigger::EveryMillis(ckpt_interval_ms),
            ..C3Config::default()
        };
        // Best-of-N wall time: robust against scheduler noise on the
        // shared-core simulator.
        let mut best: Option<(Duration, u64, u64, u64)> = None;
        for _ in 0..repeats {
            let report = run_job(nprocs, &cfg, None, app)
                .expect("benchmark run failed");
            let ckpts = report.last_committed.unwrap_or(0);
            let app_bytes = report
                .stats
                .iter()
                .map(|s| s.app_state_bytes)
                .max()
                .unwrap_or(0);
            let cand = (
                report.elapsed,
                ckpts,
                app_bytes,
                report.storage_bytes_written,
            );
            best = Some(match best {
                None => cand,
                Some(b) if cand.0 < b.0 => cand,
                Some(b) => b,
            });
        }
        let (elapsed, checkpoints, app_state_bytes, storage_bytes) =
            best.expect("at least one repeat");
        cells.push(Fig8Cell {
            level,
            elapsed,
            checkpoints,
            app_state_bytes,
            storage_bytes,
        });
    }
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

/// Print a Figure 8 style table.
pub fn print_fig8(title: &str, rows: &[Fig8Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:>14} {:>12} {:>16} {:>16} {:>16} {:>10} {:>8}",
        "size",
        "unmodified",
        "+piggyback",
        "+protocol",
        "full ckpt",
        "state",
        "ckpts"
    );
    for row in rows {
        let base = row.cells[0].elapsed.as_secs_f64();
        let cell = |i: usize| {
            format!(
                "{:>7.3}s {:>+5.1}%",
                row.cells[i].elapsed.as_secs_f64(),
                row.overhead_pct(i)
            )
        };
        println!(
            "{:>14} {:>11.3}s {:>16} {:>16} {:>16} {:>10} {:>8}",
            row.label,
            base,
            cell(1),
            cell(2),
            cell(3),
            fmt_bytes(row.cells[3].app_state_bytes),
            row.cells[3].checkpoints,
        );
    }
}

/// Machine-readable dump (one line per cell) for plotting.
pub fn print_csv(chart: &str, rows: &[Fig8Row]) {
    println!("csv,chart,size,level,seconds,overhead_pct,app_state_bytes,checkpoints");
    for row in rows {
        for (i, cell) in row.cells.iter().enumerate() {
            println!(
                "csv,{chart},{},{:?},{:.6},{:.2},{},{}",
                row.label,
                cell.level,
                cell.elapsed.as_secs_f64(),
                row.overhead_pct(i),
                cell.app_state_bytes,
                cell.checkpoints
            );
        }
    }
}

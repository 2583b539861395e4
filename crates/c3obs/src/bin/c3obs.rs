//! `c3obs` — snapshot sub-summarizer.
//!
//! ```text
//! c3obs summarize <snapshot.json>   per-rank, per-epoch phase table
//! ```
//!
//! Exit codes: 0 success, 1 read/parse failure, 2 usage error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use c3obs::Snapshot;

fn usage() -> ExitCode {
    eprintln!("usage: c3obs summarize <snapshot.json>");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Snapshot, String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))?;
    Snapshot::from_json(&doc).map_err(|e| format!("parse {path}: {e}"))
}

fn fmt_us(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn summarize(snap: &Snapshot) {
    // Phase columns in order of first appearance; one row per
    // (rank, epoch); cells are total span time in microseconds.
    let mut phases: Vec<String> = Vec::new();
    let mut cells: BTreeMap<(u32, u64), BTreeMap<String, u64>> =
        BTreeMap::new();
    for s in &snap.spans {
        if !phases.contains(&s.name) {
            phases.push(s.name.clone());
        }
        *cells
            .entry((s.rank, s.epoch))
            .or_default()
            .entry(s.name.clone())
            .or_insert(0) += s.nanos;
    }
    if cells.is_empty() {
        println!("no spans recorded");
    } else {
        let mut widths: Vec<usize> =
            phases.iter().map(|p| p.len().max(10)).collect();
        for row in cells.values() {
            for (i, p) in phases.iter().enumerate() {
                if let Some(n) = row.get(p) {
                    widths[i] = widths[i].max(fmt_us(*n).len());
                }
            }
        }
        print!("{:>4} {:>5}", "rank", "epoch");
        for (p, w) in phases.iter().zip(&widths) {
            print!("  {p:>w$}");
        }
        println!("  (column unit: us)");
        for ((rank, epoch), row) in &cells {
            print!("{rank:>4} {epoch:>5}");
            for (p, w) in phases.iter().zip(&widths) {
                match row.get(p) {
                    Some(n) => print!("  {:>w$}", fmt_us(*n)),
                    None => print!("  {:>w$}", "-"),
                }
            }
            println!();
        }
    }
    if !snap.counters.is_empty() {
        println!();
        println!("counters (summed over labels):");
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for c in &snap.counters {
            *totals.entry(c.name.as_str()).or_insert(0) += c.value;
        }
        for (name, total) in totals {
            println!("  {name:<40} {total}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let path = match args.as_slice() {
        [_, cmd, path] if cmd == "summarize" => path,
        _ => return usage(),
    };
    let snap = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("c3obs: {e}");
            return ExitCode::from(1);
        }
    };
    let bad = snap.self_check();
    if !bad.is_empty() {
        eprintln!("c3obs: snapshot fails self-check:");
        for b in bad {
            eprintln!("  {b}");
        }
        return ExitCode::from(1);
    }
    summarize(&snap);
    ExitCode::SUCCESS
}

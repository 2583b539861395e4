//! The clean traces the mutation suites corrupt, and the check that a
//! trace is clean before it is corrupted.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

use c3_apps::Laplace;
use c3_core::trace::{TraceRecord, TraceSink};
use c3_core::{run_job, C3Config};
use c3verify::{analyze, race_check};

/// Assert that `records` are analyzer- and race-clean. A trace that is
/// not is saved first, as `target/c3-traces/failed/<name>.c3trace`.
pub fn assert_clean(name: &str, records: &[TraceRecord]) {
    let (verdict, races) = (analyze(records), race_check(records));
    if !verdict.is_clean() || !races.is_clean() {
        let path = c3verify::write_trace(&format!("failed/{name}"), records)
            .expect("write trace artifact");
        panic!(
            "{name}: the reference trace must be clean (saved as {}):\n{}{}",
            path.display(),
            verdict.render(),
            races.render()
        );
    }
}

/// True when the analyzer flags invariant `inv` in `records`.
pub fn flags(records: &[TraceRecord], inv: &str) -> bool {
    analyze(records)
        .violations
        .iter()
        .any(|v| v.invariant == inv)
}

/// The first of up to 32 clean traces of Laplace on 3 ranks with frequent
/// checkpoints that `accept` takes. Whether a run has late messages is up
/// to thread timing (a rank must receive from a pre-checkpoint peer while
/// logging), so a test that needs them may have to run a few.
pub fn laplace_trace(
    name: &str,
    accept: impl Fn(&[TraceRecord]) -> bool,
) -> Vec<TraceRecord> {
    for _ in 0..32 {
        let sink = TraceSink::new();
        let cfg = C3Config::every_ops(8).with_trace(sink.clone());
        run_job(3, &cfg, None, &Laplace { n: 12, iters: 24 })
            .expect("reference job");
        let records = sink.take();
        assert_clean(name, &records);
        if accept(&records) {
            return records;
        }
    }
    panic!("{name}: no run out of 32 had the late messages it needs");
}

//! End-to-end checks: traces recorded from real jobs — including jobs
//! that fail over and recover — satisfy every protocol invariant, and the
//! `c3verify` binary reproduces the in-process verdict on the serialized
//! artifact.

use std::process::Command;

use c3_apps::{Laplace, Neurosys};
use c3_core::trace::{encode_trace, TraceEvent, TraceSink};
use c3_core::{run_job, C3Config};
use c3verify::analyze;

mod common;

/// A job that is nothing but collectives (five fused allgathers and one
/// gather behind a preceding exchange per iteration) fails over and
/// recovers; its trace also lands in `target/c3-traces/` so the CI
/// `collectives` job re-verifies the artifact with the `c3verify` CLI.
#[test]
fn recovering_job_trace_is_clean() {
    let sink = TraceSink::new();
    let cfg = C3Config::every_ops(10)
        .with_failure(1, 40)
        .with_trace(sink.clone());
    let report = run_job(4, &cfg, None, &Neurosys::new(8, 30))
        .expect("job with failover");
    assert!(report.restarts >= 1, "failure must actually trigger");
    let records = sink.take();
    let verdict = analyze(&records);
    assert!(verdict.attempts >= 2, "trace must span the restart");
    assert!(
        verdict.is_clean(),
        "recovery trace must be invariant-clean:\n{}",
        verdict.render()
    );
    c3verify::write_trace("coll_neurosys_kill", &records)
        .expect("write trace artifact");
}

#[test]
fn multi_failure_trace_is_clean() {
    let sink = TraceSink::new();
    let cfg = C3Config::every_ops(12)
        .with_failure(0, 135)
        .with_failure(1, 182)
        .with_failure(0, 194)
        .with_trace(sink.clone());
    run_job(4, &cfg, None, &Laplace { n: 16, iters: 40 })
        .expect("job with repeated failover");
    let verdict = analyze(&sink.take());
    assert!(
        verdict.is_clean(),
        "multi-failure trace must be invariant-clean:\n{}",
        verdict.render()
    );
}

#[test]
fn cli_matches_in_process_verdict() {
    let mut records = common::laplace_trace("live_jobs_cli", |records| {
        records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::LateLogged { .. }))
    });

    let dir = std::env::temp_dir()
        .join(format!("c3verify-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let clean_path = dir.join("clean.c3trace");
    std::fs::write(&clean_path, encode_trace(&records)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_c3verify"))
        .arg(&clean_path)
        .output()
        .expect("run c3verify");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "clean trace must exit 0: {text}");
    assert!(text.contains("OK: all protocol invariants hold"), "{text}");

    // Corrupt the trace (drop a log append) and expect exit code 1.
    let pos = records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::LateLogged { .. }))
        .expect("trace must contain a logged late message");
    records.remove(pos);
    let bad_path = dir.join("mutated.c3trace");
    std::fs::write(&bad_path, encode_trace(&records)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_c3verify"))
        .arg(&bad_path)
        .output()
        .expect("run c3verify");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("I3-late-logged-once"), "{text}");

    // Garbage input is a usage error, not a verdict.
    let junk_path = dir.join("junk.bin");
    std::fs::write(&junk_path, b"not a trace").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_c3verify"))
        .arg(&junk_path)
        .output()
        .expect("run c3verify");
    assert_eq!(out.status.code(), Some(2), "decode error must exit 2");

    std::fs::remove_dir_all(&dir).ok();
}

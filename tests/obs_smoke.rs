//! Observability smoke test: run real jobs with a metrics registry
//! attached and check the whole reporting chain — recording in every
//! layer, snapshot self-consistency, JSON round-trip, and the
//! cross-layer health invariants.

use std::sync::Arc;

use c3_apps::DenseCg;
use c3_core::{health_check, run_job, C3Config};
use ckptstore::MemoryBackend;

/// The four initiator phases plus the local/recovery spans the protocol
/// layer emits. `recovery_replay` only appears in killed runs.
const CLEAN_SPANS: [&str; 5] = [
    "initiator_broadcast_request",
    "initiator_collect_ready",
    "initiator_collect_stopped",
    "initiator_commit",
    "local_checkpoint",
];

#[test]
fn clean_run_records_every_layer_and_passes_health_checks() {
    let reg = c3obs::Registry::new();
    let cfg = C3Config::every_ops(24).with_obs(reg.clone());
    let report = run_job(
        4,
        &cfg,
        Some(Arc::new(MemoryBackend::new())),
        &DenseCg::new(64, 40),
    )
    .unwrap();
    assert_eq!(report.restarts, 0);
    let commits = report.last_committed.expect("checkpoints committed");
    assert!(commits > 0);

    let snap = reg.snapshot();

    // Health invariants: structural self-check plus the cross-layer
    // conservation laws (commit/attempt accounting, drain-before-commit,
    // span/commit pairing).
    let violations = health_check(&snap);
    assert!(
        violations.is_empty(),
        "health invariants violated:\n{}",
        violations.join("\n")
    );

    // Every layer actually recorded.
    assert_eq!(snap.counter_total("c3_commits_total"), commits);
    assert!(
        snap.counter_total("mpi_msgs_sent_total") > 0,
        "simmpi layer"
    );
    assert!(
        snap.counter_total("store_puts_total") > 0,
        "ckptstore layer"
    );
    assert!(
        snap.histogram_count_total("io_drain_ns") >= commits,
        "ckptpipe layer"
    );
    for name in CLEAN_SPANS {
        assert!(
            !snap.spans_named(name).is_empty(),
            "missing protocol span {name}"
        );
    }
    assert!(
        snap.spans_named("recovery_replay").is_empty(),
        "no recovery happened"
    );

    // JSON snapshot round-trips losslessly and carries every layer's
    // counter and histogram families.
    let json = snap.to_json();
    let back = c3obs::Snapshot::from_json(&json).expect("snapshot JSON");
    assert_eq!(
        back.counter_total("c3_commits_total"),
        snap.counter_total("c3_commits_total")
    );
    assert_eq!(back.spans.len(), snap.spans.len());

    for want in [
        "c3_commits_total",
        "mpi_msgs_sent_total",
        "store_puts_total",
        "io_drain_ns",
    ] {
        assert!(
            back.counters.iter().any(|c| c.name == want)
                || back.histograms.iter().any(|h| h.name == want),
            "family {want} missing from the JSON snapshot"
        );
    }
}

#[test]
fn killed_run_records_failstop_and_recovery_metrics() {
    let reg = c3obs::Registry::new();
    let cfg = C3Config::every_ops(16)
        .with_obs(reg.clone())
        .with_failure(2, 120);
    let report = run_job(3, &cfg, None, &DenseCg::new(48, 40)).unwrap();
    assert_eq!(report.restarts, 1);
    assert!(*report.recovered_from.last().unwrap() > 0);

    let snap = reg.snapshot();
    let violations = health_check(&snap);
    assert!(
        violations.is_empty(),
        "health invariants violated:\n{}",
        violations.join("\n")
    );
    assert_eq!(snap.counter_total("c3_failstops_total"), 1);
    // Two attempts started at rank 0.
    assert_eq!(snap.counter_total("c3_attempts_total"), 2);
    assert!(
        !snap.spans_named("recovery_replay").is_empty(),
        "recovery must record a replay span"
    );
}

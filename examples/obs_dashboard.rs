//! Observability end to end: run a fault-tolerant Dense CG job with a
//! metrics registry attached, check the cross-layer health invariants,
//! and write the snapshot where the `c3obs` CLI can pick it up:
//!
//! ```sh
//! cargo run --release --example obs_dashboard
//! cargo run --release -p c3obs -- summarize target/c3-obs/snapshot.json
//! ```
//!
//! The run includes an injected rank kill, so the snapshot carries a
//! fail-stop counter, a second attempt, and a `recovery_replay` span
//! next to the usual initiator-phase spans.

use c3_apps::DenseCg;
use c3_core::{health_check, run_job, C3Config};

fn main() {
    let reg = c3obs::Registry::new();
    let cfg = C3Config::every_ops(24)
        .with_obs(reg.clone())
        .with_failure(2, 150);
    let report = run_job(4, &cfg, None, &DenseCg::new(64, 60))
        .expect("job must complete despite the injected kill");
    println!("{}", report.summary());

    let snap = reg.snapshot();
    let violations = health_check(&snap);
    assert!(
        violations.is_empty(),
        "health invariants violated:\n{}",
        violations.join("\n")
    );
    println!(
        "health check clean: {} counters, {} histograms, {} spans",
        snap.counters.len(),
        snap.histograms.len(),
        snap.spans.len()
    );

    let dir = std::path::Path::new("target/c3-obs");
    std::fs::create_dir_all(dir).expect("create snapshot dir");
    let path = dir.join("snapshot.json");
    std::fs::write(&path, snap.to_json()).expect("write snapshot");
    println!("snapshot written to {}", path.display());
}

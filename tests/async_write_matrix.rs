//! Kill-during-async-write matrix: ranks are killed while the checkpoint
//! I/O pipeline's background writers are still flushing the current
//! round's blobs. The job must always recover from the *previous
//! committed* checkpoint — never from the half-written one — and
//! reproduce the failure-free outputs bit-for-bit.
//!
//! Each cell runs with slow storage puts (a `FaultInjectingBackend`
//! delay) so the asynchronous write window is wide enough for the kill to
//! land inside it, records a protocol trace, requires `c3verify` to find
//! zero violations (including I13 drain-before-commit), and writes the
//! trace to `target/c3-traces/` for the CI verification job to re-check
//! with the `c3verify` CLI.

use std::sync::Arc;

use c3_apps::{DenseCg, Laplace};
use c3_core::{
    run_job, C3App, C3Config, Chunker, PipelineConfig, RecoveryMode,
    TierTopology, TraceSink, WriteMode,
};
use c3verify::analyze;
use ckptstore::{
    FaultInjectingBackend, FaultPlan, MemoryBackend, StorageBackend,
};
use ftsim::FailureSchedule;

/// Asynchronous incremental writing with a small queue, so staging and
/// the application genuinely overlap.
fn async_io() -> PipelineConfig {
    PipelineConfig::default().with_mode(WriteMode::Async {
        writers: 2,
        queue_depth: 4,
    })
}

/// The small-cut column: the same async pipeline with content-defined
/// cuts around 1 KiB, so kills land while many more CDC chunks are being
/// hashed, encoded, and written in the background.
fn cdc_io() -> PipelineConfig {
    async_io().with_chunker(Chunker::cdc(1024))
}

/// One matrix cell: a failure-free reference run, then a run on slow
/// storage with a kill inside checkpoint `round`'s write window. The
/// I/O configuration is a column axis — the plain async pipeline and
/// the multi-level (tiered) store must clear the same bar.
fn kill_mid_write_case<A>(
    name: &str,
    app: &A,
    interval: u64,
    seed: u64,
    round: u64,
    io: &PipelineConfig,
) where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    let reference = run_job(
        4,
        &C3Config::every_ops(interval).with_io(io.clone()),
        None,
        app,
    )
    .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    assert_eq!(
        reference.restarts, 0,
        "{name}: reference must be failure-free"
    );

    // Slow puts widen the background-write window so the injected kill
    // lands while the round's blobs are still in flight.
    let inner: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let backend = Arc::new(FaultInjectingBackend::new(
        inner,
        FaultPlan::none().slow_ms(1),
    ));
    let sink = TraceSink::new();
    let schedule =
        FailureSchedule::kill_during_async_write(seed, 4, interval, round);
    let cfg = schedule
        .apply(C3Config::every_ops(interval).with_io(io.clone()))
        .with_trace(sink.clone());
    let report = run_job(4, &cfg, Some(backend), app).unwrap_or_else(|e| {
        panic!("{name}: killed run failed to recover: {e}")
    });

    assert_eq!(
        report.outputs, reference.outputs,
        "{name}: recovery diverged from the failure-free reference"
    );
    assert!(report.restarts >= 1, "{name}: the kill must actually fire");
    // Every rollback restarted from a committed checkpoint (or from
    // scratch, id 0) — never beyond what was ever committed.
    let last = report.last_committed.unwrap_or(0);
    for &from in &report.recovered_from {
        assert!(
            from <= last,
            "{name}: recovered from {from} but only {last} ever committed"
        );
    }

    let records = sink.take();
    let verdict = analyze(&records);
    assert!(
        !verdict.commits.is_empty(),
        "{name}: expected committed checkpoints"
    );
    assert!(
        verdict.is_clean(),
        "{name}: protocol invariants violated:\n{}",
        verdict.render()
    );
    c3verify::write_trace(name, &records).expect("write trace artifact");
}

#[test]
fn dense_cg_survives_kills_during_async_writes() {
    for (seed, round) in [(1u64, 2u64), (2, 3), (3, 4)] {
        kill_mid_write_case(
            &format!("dense_cg_kill_s{seed}_r{round}"),
            &DenseCg::new(32, 30),
            10,
            seed,
            round,
            &cdc_io(),
        );
    }
}

#[test]
fn laplace_survives_kills_during_async_writes() {
    for (seed, round) in [(4u64, 2u64), (5, 3), (6, 4)] {
        kill_mid_write_case(
            &format!("laplace_kill_s{seed}_r{round}"),
            &Laplace { n: 16, iters: 36 },
            9,
            seed,
            round,
            &async_io(),
        );
    }
}

#[test]
fn laplace_survives_kills_on_a_tiered_store() {
    // Same async writers, but staged onto a multi-level store (the
    // slow fault-injected backend becomes the staging tier; the driver
    // wires partner and erasure tiers behind it). The tier mover's
    // background promotions now overlap both the application and the
    // kill window, and the bar is unchanged: bit-identical outputs and
    // a clean trace, recorded for the CI `c3verify` jobs.
    let tiered_io = async_io()
        .with_keep_last(2)
        .with_tiers(TierTopology::partner_and_erasure(1, 2, 1));
    for (seed, round) in [(7u64, 2u64), (8, 3)] {
        kill_mid_write_case(
            &format!("tier_laplace_kill_s{seed}_r{round}"),
            &Laplace { n: 16, iters: 36 },
            9,
            seed,
            round,
            &tiered_io,
        );
    }
}

#[test]
fn dense_cg_killed_after_clean_lines_recovers_identically() {
    // From its second line on, a rank's matrix block reaches storage as
    // a clean reference. A kill well after that must roll back to (or,
    // localized, catch up over) lines made of such references and still
    // reproduce the failure-free outputs bit for bit — on the rank's own
    // thread and through the background writers alike.
    let app = DenseCg::new(32, 30);
    let reference = run_job(4, &C3Config::every_ops(10), None, &app).unwrap();
    for mode in [WriteMode::Sync, async_io().mode] {
        for recovery in [RecoveryMode::FullRestart, RecoveryMode::Localized] {
            let name = format!("{mode:?} {recovery:?}");
            let cfg = C3Config::every_ops(10)
                .with_io(PipelineConfig::default().with_mode(mode))
                .with_recovery(recovery)
                .with_failure(2, 300);
            let report = run_job(4, &cfg, None, &app)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.outputs, reference.outputs, "{name}");
            match recovery {
                RecoveryMode::FullRestart => {
                    assert_eq!(report.restarts, 1, "{name}");
                    assert!(
                        report.recovered_from[0] >= 3,
                        "{name}: the kill must follow two clean lines, \
                         recovered from {:?}",
                        report.recovered_from
                    );
                }
                RecoveryMode::Localized => {
                    assert_eq!(
                        (report.restarts, report.splices),
                        (0, 1),
                        "{name}"
                    );
                }
            }
            for s in &report.stats {
                assert!(s.app_state_bytes_clean > 0, "{name}: {s:?}");
            }
        }
    }
}

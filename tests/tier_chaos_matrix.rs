//! Multi-level storage chaos matrix: jobs run over an SCR-style tier
//! hierarchy (local staging → partner replicas → erasure-coded global
//! tier) and storage is damaged between or during runs. Every cell must
//! recover — from a partner replica when a rank's local tier is lost,
//! by Reed–Solomon reconstruction when shards are lost within the parity
//! budget, and by falling back to an older whole checkpoint line when a
//! line is damaged beyond repair — while `c3verify` finds zero
//! violations (I1–I14) and zero happens-before races.

use std::sync::Arc;

use c3_apps::{DenseCg, Laplace};
use c3_core::{
    run_job, C3App, C3Config, Chunker, JobReport, PipelineConfig,
    TierTopology, TraceEvent, TraceRecord, TraceSink,
};
use c3verify::{analyze, invariant, race_check};
use ckptstore::{
    FaultInjectingBackend, FaultPlan, MemoryBackend, StorageBackend, TierSpec,
    TieredBackend,
};
use ftsim::FailureSchedule;

/// Record the trace of one complete Laplace job over `backend` and
/// assert it is analyzer- and race-clean. Returns (outputs, records).
fn clean_run(
    name: &str,
    nprocs: usize,
    cfg: &C3Config,
    backend: Arc<dyn StorageBackend>,
) -> (Vec<u64>, Vec<TraceRecord>) {
    let app = Laplace { n: 16, iters: 36 };
    let (report, records) = clean_run_of(name, nprocs, cfg, backend, &app);
    (report.outputs, records)
}

/// [`clean_run`] for any application. Returns (report, records).
fn clean_run_of<A: C3App>(
    name: &str,
    nprocs: usize,
    cfg: &C3Config,
    backend: Arc<dyn StorageBackend>,
    app: &A,
) -> (JobReport<A::Output>, Vec<TraceRecord>) {
    let sink = TraceSink::new();
    let cfg = cfg.clone().with_trace(sink.clone());
    let report = run_job(nprocs, &cfg, Some(backend), app)
        .unwrap_or_else(|e| panic!("{name}: job failed: {e}"));
    let records = sink.take();
    let verdict = analyze(&records);
    assert!(
        verdict.is_clean(),
        "{name}: invariants violated:\n{}",
        verdict.render()
    );
    let races = race_check(&records);
    assert!(
        races.is_clean(),
        "{name}: happens-before races:\n{}",
        races.render()
    );
    (report, records)
}

fn has_tier_recovery(records: &[TraceRecord], min_tier: u8) -> bool {
    records.iter().any(|r| {
        matches!(r.event, TraceEvent::TierRecovered { tier, .. }
            if tier >= min_tier)
    })
}

fn tier_drains(records: &[TraceRecord]) -> Vec<(u64, u8)> {
    records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::TierDrained { ckpt, tier } => Some((ckpt, tier)),
            _ => None,
        })
        .collect()
}

/// Losing one rank's entire local tier after the job ends: the next run
/// of the job restarts from the partner tier's replica of that rank's
/// blobs (the SCR "friend process" case).
#[test]
fn lost_local_tier_recovers_from_partner_replica() {
    let tiered = Arc::new(TieredBackend::new(
        vec![
            TierSpec::direct(Arc::new(MemoryBackend::new())),
            TierSpec::partner(Arc::new(MemoryBackend::new()), 1),
        ],
        3,
    ));
    // This column cuts around 1 KiB, so partner-replica recovery
    // decodes many small CDC-cut, LZ4-stored chunks.
    let cfg = C3Config::every_ops(9).with_io(
        PipelineConfig::default()
            .with_chunker(Chunker::cdc(1024))
            .with_tiers(TierTopology::partner(1)),
    );
    let (outputs, records) =
        clean_run("partner_run1", 3, &cfg, tiered.clone());
    assert!(
        !tier_drains(&records).is_empty(),
        "finalize must surface the mover's promotions"
    );

    // Rank 1's node loses its local storage between the runs.
    let wiped = tiered.wipe_rank_local(1).unwrap();
    assert!(wiped > 0, "rank 1 owned local keys");

    let (outputs2, records2) =
        clean_run("partner_run2", 3, &cfg, tiered.clone());
    assert_eq!(
        outputs2, outputs,
        "restart from the partner replica must reproduce the job"
    );
    assert!(
        has_tier_recovery(&records2, 1),
        "rank 1's state must have been served by the partner tier"
    );
}

/// Dense CG's matrix block reaches every line after a rank's first as a
/// clean reference: its chunks are named by the manifest, never staged
/// again. The mover drains per manifest, so they must be on the partner
/// tier all the same, and a restart with the whole staging tier gone
/// must reassemble the state from there (I14 clean).
#[test]
fn clean_referenced_chunks_recover_from_the_partner_tier() {
    let tiered = Arc::new(TieredBackend::new(
        vec![
            TierSpec::direct(Arc::new(MemoryBackend::new())),
            TierSpec::partner(Arc::new(MemoryBackend::new()), 1),
        ],
        2,
    ));
    let cfg = C3Config::every_ops(8).with_io(
        PipelineConfig::default()
            .with_chunker(Chunker::cdc(256))
            .with_tiers(TierTopology::partner(1)),
    );
    let app = DenseCg::new(32, 30);
    let (report, records) =
        clean_run_of("cg_clean_run1", 2, &cfg, tiered.clone(), &app);
    assert!(report.last_committed.is_some_and(|last| last >= 3));
    assert!(report.stats.iter().all(|s| s.app_state_bytes_clean > 0));
    assert!(!tier_drains(&records).is_empty());

    tiered.wipe_tier(0).unwrap();

    let (report2, records2) =
        clean_run_of("cg_clean_run2", 2, &cfg, tiered.clone(), &app);
    assert_eq!(report2.outputs, report.outputs);
    assert!(
        has_tier_recovery(&records2, 1),
        "the state must have been served by the partner tier"
    );
}

/// Losing up to `parity` erasure shards of every key: recovery
/// reconstructs each blob from the surviving k-of-n shards.
#[test]
fn lost_shards_within_parity_are_reconstructed() {
    let tiered = Arc::new(TieredBackend::new(
        vec![
            TierSpec::direct(Arc::new(MemoryBackend::new())),
            TierSpec::erasure(Arc::new(MemoryBackend::new()), 3, 2),
        ],
        3,
    ));
    let cfg = C3Config::every_ops(9).with_io(
        PipelineConfig::default().with_tiers(TierTopology::erasure(3, 2)),
    );
    let (outputs, _) = clean_run("erasure_run1", 3, &cfg, tiered.clone());

    // The whole local tier is gone AND two shards (the parity budget) of
    // every surviving key are lost — lowest indices first, so data
    // shards go and every read is a genuine reconstruction.
    tiered.wipe_tier(0).unwrap();
    for key in tiered.list("").unwrap() {
        tiered.lose_shards(1, &key, 2).unwrap();
    }

    let (outputs2, records2) =
        clean_run("erasure_run2", 3, &cfg, tiered.clone());
    assert_eq!(
        outputs2, outputs,
        "restart from reconstructed shards must reproduce the job"
    );
    assert!(
        tiered.reconstructions() > 0,
        "reads must have reconstructed from k-of-n shards"
    );
    assert!(
        has_tier_recovery(&records2, 1),
        "recovery must have fallen through to the erasure tier"
    );
}

/// Losing more than `parity` shards of the newest line: that line is
/// unrecoverable and restart falls back to the previous whole committed
/// line (`keep_last = 2` retains it on every tier).
#[test]
fn damage_beyond_parity_falls_back_a_whole_checkpoint_line() {
    let tiered = Arc::new(TieredBackend::new(
        vec![
            TierSpec::direct(Arc::new(MemoryBackend::new())),
            TierSpec::erasure(Arc::new(MemoryBackend::new()), 2, 1),
        ],
        3,
    ));
    // Two retained lines so a fallback target exists. Lines share chunks,
    // so the damage is to the newest line's own keys: its manifests.
    let io = PipelineConfig::default()
        .with_keep_last(2)
        .with_tiers(TierTopology::erasure(2, 1));
    let cfg = C3Config::every_ops(9).with_io(io);
    let (outputs, _) = clean_run("fallback_run1", 3, &cfg, tiered.clone());

    let store = ckptstore::CheckpointStore::new(
        tiered.clone() as Arc<dyn StorageBackend>,
        3,
    );
    let newest = store.latest_committed().unwrap().expect("commits exist");
    assert!(newest >= 2, "need two committed lines, got {newest}");

    // The local tier is gone and the newest line's rank manifests lose
    // two of three shards — beyond the (2, 1) parity budget. The COMMIT
    // record survives, so fallback must come from `latest_recoverable`'s
    // servability probe, not from a missing commit marker.
    tiered.wipe_tier(0).unwrap();
    let keys = tiered.list(&format!("ckpt/{newest:08}/")).unwrap();
    let manifests: Vec<&String> =
        keys.iter().filter(|k| k.ends_with(".m")).collect();
    assert!(manifests.len() >= 6, "every rank's blobs: {keys:?}");
    for key in manifests {
        tiered.lose_shards(1, key, 2).unwrap();
    }
    assert_eq!(
        store.latest_recoverable().unwrap(),
        Some(newest - 1),
        "the damaged newest line must be passed over"
    );

    let (outputs2, records2) =
        clean_run("fallback_run2", 3, &cfg, tiered.clone());
    assert_eq!(
        outputs2, outputs,
        "restart from the older line must reproduce the job"
    );
    let recovered: Vec<u64> = records2
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::RecoveryStart { ckpt, .. } => Some(ckpt),
            _ => None,
        })
        .collect();
    assert!(
        recovered.iter().all(|&c| c == newest - 1),
        "recovery must use line {} (got {recovered:?})",
        newest - 1
    );
}

/// A slow simulated remote tier (seeded latency profile on the global
/// tier's backend) while ranks are killed right in the tier-drain
/// window: the drain is off the commit path, so recovery keeps working
/// from the intact local tier and every invariant — including I14
/// tier-provenance — holds. The recorded trace feeds the CI `c3verify`
/// jobs.
#[test]
fn kills_during_slow_remote_tier_drain_stay_clean() {
    for seed in [11u64, 12] {
        let name = format!("tier_slow_remote_s{seed}");
        let remote = Arc::new(FaultInjectingBackend::new(
            Arc::new(MemoryBackend::new()),
            FaultPlan::none().latency(1, 2, seed),
        ));
        let tiered = Arc::new(TieredBackend::new(
            vec![
                TierSpec::direct(Arc::new(MemoryBackend::new())),
                TierSpec::partner(Arc::new(MemoryBackend::new()), 1),
                TierSpec::erasure(remote, 2, 1),
            ],
            3,
        ));
        let io = PipelineConfig::default()
            .with_keep_last(2)
            .with_tiers(TierTopology::partner_and_erasure(1, 2, 1));
        let reference =
            run_job(3, &C3Config::every_ops(10).with_io(io.clone()), None, {
                &Laplace { n: 16, iters: 36 }
            })
            .unwrap();

        let sink = TraceSink::new();
        let schedule = FailureSchedule::kill_during_tier_drain(seed, 3, 10, 2);
        let cfg = schedule
            .apply(C3Config::every_ops(10).with_io(io))
            .with_trace(sink.clone());
        let report = run_job(
            3,
            &cfg,
            Some(tiered.clone()),
            &Laplace { n: 16, iters: 36 },
        )
        .unwrap_or_else(|e| panic!("{name}: failed to recover: {e}"));
        assert!(report.restarts >= 1, "{name}: the kill must fire");
        assert_eq!(
            report.outputs, reference.outputs,
            "{name}: recovery diverged from the reference"
        );

        let records = sink.take();
        let verdict = analyze(&records);
        assert!(
            verdict.is_clean(),
            "{name}: invariants violated:\n{}",
            verdict.render()
        );
        let races = race_check(&records);
        assert!(
            races.is_clean(),
            "{name}: happens-before races:\n{}",
            races.render()
        );
        assert!(
            !tier_drains(&records).is_empty(),
            "{name}: the surviving attempt must drain tiers"
        );
        c3verify::write_trace(&name, &records).expect("write trace artifact");
    }
}

/// Mutation side of I14: a trace whose restart claims a deeper recovery
/// tier than anything the mover drained must be flagged, and stripping a
/// justifying `TierDrained` must likewise be caught. (The clean side is
/// covered by every other test in this file.)
#[test]
fn forged_recovery_tier_violates_i14() {
    // A failure-free job leaves committed lines on the store, so the
    // traced job's restart after its kill recovers from a committed line
    // whatever the threads did before the kill. Its first attempt starts
    // from that job's lines; the analyzer exempts a first attempt from
    // I14, as it may continue an earlier job.
    let tiered = Arc::new(TieredBackend::new(
        vec![
            TierSpec::direct(Arc::new(MemoryBackend::new())),
            TierSpec::partner(Arc::new(MemoryBackend::new()), 1),
        ],
        3,
    ));
    let io = PipelineConfig::default()
        .with_keep_last(2)
        .with_tiers(TierTopology::partner(1));
    let cfg = C3Config::every_ops(10).with_io(io);
    let backend = || Some(tiered.clone() as Arc<dyn StorageBackend>);
    let first = run_job(3, &cfg, backend(), &Laplace { n: 16, iters: 12 });
    assert!(first.unwrap().last_committed.is_some(), "lines committed");
    let sink = TraceSink::new();
    let cfg = cfg.with_failure(1, 15).with_trace(sink.clone());
    let report =
        run_job(3, &cfg, backend(), &Laplace { n: 16, iters: 36 }).unwrap();
    assert_eq!(report.restarts, 1, "the kill must fire");
    let records = sink.take();
    assert!(
        analyze(&records).is_clean(),
        "reference trace must be clean"
    );

    // The killed attempt never finalized, so nothing was drained before
    // the restart: any claimed recovery tier > 0 in a later attempt is
    // unjustifiable.
    let mut forged = records.clone();
    let target = forged
        .iter_mut()
        .find(|r| {
            r.attempt > 1
                && matches!(r.event, TraceEvent::TierRecovered { .. })
        })
        .expect("restart must record its recovery tier");
    let TraceEvent::TierRecovered { tier, .. } = &mut target.event else {
        unreachable!()
    };
    assert_eq!(*tier, 0, "the local copy was intact across the in-job kill");
    *tier = 1;
    let verdict = analyze(&forged);
    assert!(
        verdict
            .violations
            .iter()
            .any(|v| v.invariant == invariant::I14),
        "forged recovery tier must violate I14:\n{}",
        verdict.render()
    );
}

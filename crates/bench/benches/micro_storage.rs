//! Multi-level storage micro-benchmark: what does the SCR-style tier
//! hierarchy buy on the checkpoint critical path?
//!
//! Four ranks each stage 256 KiB of state per round. The "remote" tier
//! is a memory backend behind a seeded per-operation latency profile
//! (`FaultPlan::latency`) — a stand-in for a parallel file system. Each
//! cell commits several rounds and records:
//!
//! * **staged MB/s** — throughput of the commit critical path (stage on
//!   all ranks + drain barrier + commit). With local staging this path
//!   touches only the node-local tier; writing the remote tier directly
//!   puts every slow `put` on it.
//! * **tier-drain p99** — worst-percentile latency of the *background*
//!   promotion of a committed checkpoint to the deeper tiers (partner
//!   replication, Reed–Solomon encoding, the slow remote). This is the
//!   cost staging moves off the critical path.
//!
//! Besides the printed lines, the bench rewrites `BENCH_storage.json` at
//! the workspace root so the numbers are tracked in-repo. The headline
//! comparison — local staging beats direct remote writes — is asserted,
//! not just reported.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use c3_bench::report::{self, Report};
use ckptpipe::{CheckpointPipeline, PipelineConfig};
use ckptstore::{
    CheckpointStore, Codec, FaultInjectingBackend, FaultPlan, MemoryBackend,
    RankBlobKind, StorageBackend, TierSpec, TieredBackend,
};

const RANKS: usize = 4;
const STATE_BYTES: usize = 256 << 10;
const ROUNDS: u64 = 12;
const REMOTE_BASE_MS: u64 = 2;
const REMOTE_JITTER_MS: u64 = 1;
const SEED: u64 = 42;

/// Commit rounds per cell, shrunk under `C3_BENCH_SMOKE=1`.
fn rounds() -> u64 {
    if report::smoke() {
        3
    } else {
        ROUNDS
    }
}

/// The simulated parallel file system: every operation pays a seeded
/// base + jitter delay.
fn remote() -> Arc<dyn StorageBackend> {
    Arc::new(FaultInjectingBackend::new(
        Arc::new(MemoryBackend::new()),
        FaultPlan::none().latency(REMOTE_BASE_MS, REMOTE_JITTER_MS, SEED),
    ))
}

/// Whole blobs, no chunking or compression: put counts stay identical
/// across cells, so the tier topology is the only variable.
fn io() -> PipelineConfig {
    PipelineConfig::default()
        .with_incremental(false)
        .with_codec(Codec::None)
}

fn state_of(rank: usize, round: u64) -> Vec<u8> {
    (0..STATE_BYTES)
        .map(|i| {
            (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64 ^ round) as u8
        })
        .collect()
}

struct Cell {
    config: &'static str,
    staged_mb_per_s: f64,
    crit_ms_per_ckpt: f64,
    drain_p99_ms: f64,
}

fn p99_ms(mut samples: Vec<u128>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = (samples.len() * 99).div_ceil(100).saturating_sub(1);
    samples[idx] as f64 / 1e6
}

/// Run `rounds()` commit rounds against one backend topology, timing
/// the critical path and the background tier drain separately.
fn run_cell(config: &'static str, backend: Arc<dyn StorageBackend>) -> Cell {
    let store = CheckpointStore::new(backend, RANKS);
    let pipeline = CheckpointPipeline::new(store.clone(), io());
    let mut crit_ns = 0u128;
    let mut drain_samples = Vec::new();
    for round in 1..=rounds() {
        let t0 = Instant::now();
        for rank in 0..RANKS {
            pipeline
                .stage(round, rank, RankBlobKind::State, state_of(rank, round))
                .unwrap();
            pipeline
                .stage(round, rank, RankBlobKind::Log, vec![0u8; 64])
                .unwrap();
        }
        pipeline.drain(round).unwrap();
        store.commit(round).unwrap();
        crit_ns += t0.elapsed().as_nanos();
        // The drain normally overlaps the next compute round; timing it
        // back-to-back here yields its full (un-overlapped) latency.
        let t1 = Instant::now();
        pipeline.schedule_tier_drain(round);
        pipeline.flush_tier_drains();
        drain_samples.push(t1.elapsed().as_nanos());
        pipeline.gc_keeping(round).unwrap();
    }
    assert_eq!(
        pipeline.tier_drain_errors(),
        0,
        "{config}: tier drain must not error"
    );
    pipeline.shutdown();
    let crit_s = crit_ns as f64 / 1e9;
    let total_mb =
        (RANKS * STATE_BYTES) as f64 * rounds() as f64 / (1024.0 * 1024.0);
    Cell {
        config,
        staged_mb_per_s: total_mb / crit_s,
        crit_ms_per_ckpt: crit_ns as f64 / rounds() as f64 / 1e6,
        drain_p99_ms: p99_ms(drain_samples),
    }
}

fn cells() -> Vec<Cell> {
    let local = || Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>;
    vec![
        run_cell("local_only", local()),
        run_cell(
            "staged_partner",
            Arc::new(TieredBackend::new(
                vec![
                    TierSpec::direct(local()),
                    TierSpec::partner(remote(), 1),
                ],
                RANKS,
            )),
        ),
        run_cell(
            "staged_erasure",
            Arc::new(TieredBackend::new(
                vec![
                    TierSpec::direct(local()),
                    TierSpec::erasure(remote(), 3, 2),
                ],
                RANKS,
            )),
        ),
        run_cell(
            "staged_partner_erasure",
            Arc::new(TieredBackend::new(
                vec![
                    TierSpec::direct(local()),
                    TierSpec::partner(local(), 1),
                    TierSpec::erasure(remote(), 2, 1),
                ],
                RANKS,
            )),
        ),
        run_cell("direct_remote", remote()),
    ]
}

fn write_json(cells: &[Cell]) {
    let mut report = Report::new("micro_storage")
        .param("ranks", RANKS)
        .param("state_bytes_per_rank", STATE_BYTES)
        .param("checkpoints", rounds())
        .param("remote_base_ms", REMOTE_BASE_MS)
        .param("remote_jitter_ms", REMOTE_JITTER_MS)
        .param("latency_seed", SEED);
    for c in cells {
        report.push_cell(
            report::Cell::new()
                .field("config", c.config)
                .field("staged_mb_per_s", c.staged_mb_per_s)
                .field("crit_ms_per_ckpt", c.crit_ms_per_ckpt)
                .field("tier_drain_p99_ms", c.drain_p99_ms),
        );
    }
    report.write("BENCH_storage.json");
}

fn bench_storage(c: &mut Criterion) {
    let results = cells();
    for cell in &results {
        println!(
            "storage/{}: {:.1} MB/s staged, crit {:.3} ms/ckpt, \
             tier-drain p99 {:.3} ms",
            cell.config,
            cell.staged_mb_per_s,
            cell.crit_ms_per_ckpt,
            cell.drain_p99_ms
        );
    }
    // The point of the hierarchy: every staged configuration's commit
    // critical path beats writing the remote tier directly.
    let direct = results
        .iter()
        .find(|c| c.config == "direct_remote")
        .unwrap()
        .staged_mb_per_s;
    for cell in &results {
        if cell.config != "direct_remote" {
            assert!(
                cell.staged_mb_per_s > direct,
                "{} ({:.1} MB/s) must beat direct remote ({direct:.1} MB/s)",
                cell.config,
                cell.staged_mb_per_s
            );
        }
    }
    write_json(&results);

    // Criterion display of the two endpoints of the comparison.
    let mut g = c.benchmark_group("storage_commit");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((RANKS * STATE_BYTES) as u64));
    for (name, backend) in [
        (
            "staged_local",
            Arc::new(TieredBackend::new(
                vec![
                    TierSpec::direct(Arc::new(MemoryBackend::new())
                        as Arc<dyn StorageBackend>),
                    TierSpec::erasure(remote(), 2, 1),
                ],
                RANKS,
            )) as Arc<dyn StorageBackend>,
        ),
        ("direct_remote", remote()),
    ] {
        let store = CheckpointStore::new(backend, RANKS);
        let pipeline = CheckpointPipeline::new(store.clone(), io());
        let mut round = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                round += 1;
                for rank in 0..RANKS {
                    pipeline
                        .stage(
                            round,
                            rank,
                            RankBlobKind::State,
                            state_of(rank, round),
                        )
                        .unwrap();
                    pipeline
                        .stage(round, rank, RankBlobKind::Log, vec![0u8; 64])
                        .unwrap();
                }
                pipeline.drain(round).unwrap();
                store.commit(round).unwrap();
                pipeline.gc_keeping(round).unwrap();
            })
        });
        pipeline.shutdown();
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_storage
}
criterion_main!(benches);

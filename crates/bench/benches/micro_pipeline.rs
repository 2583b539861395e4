//! Checkpoint I/O pipeline micro-benchmark: full vs incremental writing,
//! synchronous vs asynchronous staging, fixed-size vs content-defined
//! chunking, PackBits vs LZ4.
//!
//! Two workloads, both 4 ranks × 1 MiB of state over several commit
//! rounds (stage on all ranks, drain, commit, GC):
//!
//! * **dirty** — 1/8 of the 4 KiB-aligned pages change per round (the
//!   Dense CG shape: a large read-mostly matrix block dominating the
//!   snapshot). Chunk-aligned edits, so fixed-size chunking dedups fine.
//! * **shifted** — every round *inserts* a fresh run of bytes at the
//!   front of otherwise unchanged (incompressible) state. Every fixed
//!   chunk boundary downstream of the insertion shifts, so fixed-size
//!   dedup collapses; FastCDC cut points re-align after the edit and
//!   dedup survives. This is the workload the CDC tentpole is for.
//!
//! Each cell records stage latency (the rank's critical path), drain
//! latency (the initiator's phase-4 barrier), net bytes written, and the
//! dedup hit ratio. Besides the printed lines, the bench rewrites
//! `BENCH_pipeline.json` at the workspace root so the numbers are
//! tracked in-repo, and asserts the CDC+LZ4 wins in-bench:
//!
//! * CDC+LZ4 writes strictly fewer bytes than fixed-size/PackBits on the
//!   shifted workload (always checked);
//! * stage+drain of the async CDC+LZ4 cell beats the pre-CDC pipeline's
//!   async-incremental cell (recorded below as `BEFORE_*`) by ≥ 1.5×
//!   at equal workload parameters (full runs only — smoke rounds are
//!   too short to time).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use c3_bench::report::{self, Report};
use ckptpipe::{
    CheckpointPipeline, Chunker, Codec, PipelineConfig, WriteMode,
};
use ckptstore::{
    CheckpointStore, MemoryBackend, RankBlobKind, StorageBackend,
};

const RANKS: usize = 4;
const STATE_BYTES: usize = 1 << 20;
const CHUNK: usize = 4096;
const DIRTY_ONE_IN: usize = 8;
const ROUNDS: u64 = 6;

/// Pre-CDC pipeline reference (BENCH_pipeline.json as of the serial
/// fixed-chunk/PackBits pipeline): the async-incremental cell's
/// stage + drain ms/ckpt at these exact workload parameters. The
/// in-bench throughput assertion holds the rebuilt pipeline to ≥ 1.5×
/// this number.
const BEFORE_ASYNC_INCR_STAGE_MS: f64 = 1.0839;
const BEFORE_ASYNC_INCR_DRAIN_MS: f64 = 14.3266;

/// Commit rounds per cell, shrunk under `C3_BENCH_SMOKE=1`.
fn rounds() -> u64 {
    if report::smoke() {
        2
    } else {
        ROUNDS
    }
}

/// Rank `rank`'s dirty-workload state at round `round`: a fixed byte
/// pattern with every `DIRTY_ONE_IN`-th page rewritten per round
/// (rotating which pages).
fn state_dirty(rank: usize, round: u64) -> Vec<u8> {
    let mut s: Vec<u8> = (0..STATE_BYTES)
        .map(|i| {
            (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(rank as u64) as u8
        })
        .collect();
    let nchunks = STATE_BYTES / CHUNK;
    for c in 0..nchunks {
        if c % DIRTY_ONE_IN == (round as usize) % DIRTY_ONE_IN {
            let tag = round.wrapping_mul(31).wrapping_add(c as u64);
            for (k, b) in s[c * CHUNK..(c + 1) * CHUNK].iter_mut().enumerate()
            {
                *b = tag.wrapping_add(k as u64) as u8;
            }
        }
    }
    s
}

/// Rank `rank`'s shifted-workload state at round `round`: a per-rank
/// incompressible base (seeded SplitMix64 stream) with `round` stacked
/// front-insertions of 1019 fresh bytes each. Everything after the
/// insertion point is byte-identical to the previous round — just no
/// longer at the same offset.
fn state_shifted(rank: usize, round: u64) -> Vec<u8> {
    let ins = 1019 * round as usize;
    let mut s = Vec::with_capacity(ins + STATE_BYTES);
    for i in 0..ins {
        s.push(
            (i as u64)
                .wrapping_mul(0x94D0_49BB)
                .wrapping_add(round ^ 0xC3) as u8,
        );
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (rank as u64).wrapping_mul(0xA5A5);
    while s.len() < ins + STATE_BYTES {
        x = x.wrapping_mul(0xD120_2E87_82B9_029D).wrapping_add(1);
        s.extend_from_slice(&x.to_le_bytes());
    }
    s.truncate(ins + STATE_BYTES);
    s
}

struct Cell {
    mode: &'static str,
    workload: &'static str,
    chunking: &'static str,
    codec: &'static str,
    incremental: bool,
    stage_ms_per_ckpt: f64,
    drain_ms_per_ckpt: f64,
    bytes_written: u64,
    dedup_hit_ratio: f64,
}

/// Run `rounds()` commit rounds under one pipeline configuration.
fn run_cell(
    mode: &'static str,
    workload: &'static str,
    io: PipelineConfig,
) -> Cell {
    let incremental = io.incremental;
    let chunking = match io.chunker {
        Chunker::Fixed { .. } => "fixed",
        Chunker::Cdc { .. } => "cdc",
    };
    let codec = if !incremental {
        "none"
    } else {
        match io.codec {
            Codec::None => "none",
            Codec::PackBits => "packbits",
            Codec::Lz4 => "lz4",
        }
    };
    let state = match workload {
        "shifted" => state_shifted as fn(usize, u64) -> Vec<u8>,
        _ => state_dirty,
    };
    let backend = Arc::new(MemoryBackend::new());
    let store = CheckpointStore::new(
        backend.clone() as Arc<dyn StorageBackend>,
        RANKS,
    );
    let pipeline = CheckpointPipeline::new(store.clone(), io);
    let mut stage_ns = 0u128;
    let mut drain_ns = 0u128;
    for round in 1..=rounds() {
        let t0 = Instant::now();
        for rank in 0..RANKS {
            pipeline
                .stage(round, rank, RankBlobKind::State, state(rank, round))
                .unwrap();
            pipeline
                .stage(round, rank, RankBlobKind::Log, vec![0u8; 64])
                .unwrap();
        }
        stage_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        pipeline.drain(round).unwrap();
        drain_ns += t1.elapsed().as_nanos();
        store.commit(round).unwrap();
        pipeline.gc_keeping(round).unwrap();
    }
    let stats = pipeline.stats();
    pipeline.shutdown();
    let probes = stats.chunks_deduped + stats.chunks_written;
    Cell {
        mode,
        workload,
        chunking,
        codec,
        incremental,
        stage_ms_per_ckpt: stage_ns as f64 / rounds() as f64 / 1e6,
        drain_ms_per_ckpt: drain_ns as f64 / rounds() as f64 / 1e6,
        bytes_written: backend.bytes_written(),
        dedup_hit_ratio: if probes == 0 {
            0.0
        } else {
            stats.chunks_deduped as f64 / probes as f64
        },
    }
}

fn cells() -> Vec<Cell> {
    let asynch = WriteMode::Async {
        writers: 2,
        queue_depth: 8,
    };
    vec![
        // The pre-CDC columns, unchanged for continuity.
        run_cell("sync", "dirty", PipelineConfig::sync_full()),
        run_cell(
            "sync",
            "dirty",
            PipelineConfig::sync_full()
                .with_incremental(true)
                .with_chunker(Chunker::fixed(CHUNK)),
        ),
        run_cell(
            "async",
            "dirty",
            PipelineConfig::default()
                .with_mode(asynch)
                .with_incremental(false)
                .with_codec(Codec::None),
        ),
        run_cell(
            "async",
            "dirty",
            PipelineConfig::default()
                .with_mode(asynch)
                .with_codec(Codec::None)
                .with_chunker(Chunker::fixed(CHUNK)),
        ),
        // The rebuilt pipeline: content-defined chunking + LZ4.
        run_cell(
            "async",
            "dirty",
            PipelineConfig::default()
                .with_mode(asynch)
                .with_chunker(Chunker::cdc(CHUNK))
                .with_codec(Codec::Lz4),
        ),
        // Shifted-state workload: before (fixed/PackBits) vs after
        // (CDC/LZ4) columns — the shift-resistance win as a number.
        run_cell(
            "async",
            "shifted",
            PipelineConfig::default()
                .with_mode(asynch)
                .with_chunker(Chunker::fixed(CHUNK))
                .with_codec(Codec::PackBits),
        ),
        run_cell(
            "async",
            "shifted",
            PipelineConfig::default()
                .with_mode(asynch)
                .with_chunker(Chunker::cdc(CHUNK))
                .with_codec(Codec::Lz4),
        ),
    ]
}

fn find<'a>(
    cells: &'a [Cell],
    workload: &str,
    chunking: &str,
    codec: &str,
) -> &'a Cell {
    cells
        .iter()
        .find(|c| {
            c.workload == workload
                && c.chunking == chunking
                && c.codec == codec
        })
        .expect("cell exists")
}

/// The tentpole's acceptance gates, enforced every time the bench runs.
fn assert_wins(cells: &[Cell]) {
    let before = find(cells, "shifted", "fixed", "packbits");
    let after = find(cells, "shifted", "cdc", "lz4");
    assert!(
        after.bytes_written < before.bytes_written,
        "CDC+LZ4 must write strictly fewer bytes than fixed/PackBits on \
         the shifted workload: {} vs {}",
        after.bytes_written,
        before.bytes_written
    );
    assert!(
        after.dedup_hit_ratio > before.dedup_hit_ratio,
        "CDC dedup must survive the shifts: hit ratio {:.3} vs {:.3}",
        after.dedup_hit_ratio,
        before.dedup_hit_ratio
    );
    if !report::smoke() {
        let after = find(cells, "dirty", "cdc", "lz4");
        let after_ms = after.stage_ms_per_ckpt + after.drain_ms_per_ckpt;
        let before_ms =
            BEFORE_ASYNC_INCR_STAGE_MS + BEFORE_ASYNC_INCR_DRAIN_MS;
        assert!(
            after_ms * 1.5 <= before_ms,
            "rebuilt pipeline must beat the pre-CDC async-incremental \
             cell by 1.5x: {after_ms:.3} ms/ckpt vs {before_ms:.3} before"
        );
    }
}

fn write_json(cells: &[Cell]) {
    let mut report = Report::new("micro_pipeline")
        .param("ranks", RANKS)
        .param("state_bytes_per_rank", STATE_BYTES)
        .param("chunk_bytes", CHUNK)
        .param("dirty_chunk_fraction", 1.0 / DIRTY_ONE_IN as f64)
        .param("checkpoints", rounds())
        .param("before_async_incr_stage_ms", BEFORE_ASYNC_INCR_STAGE_MS)
        .param("before_async_incr_drain_ms", BEFORE_ASYNC_INCR_DRAIN_MS);
    for c in cells {
        report.push_cell(
            report::Cell::new()
                .field("mode", c.mode)
                .field("workload", c.workload)
                .field("chunking", c.chunking)
                .field("codec", c.codec)
                .field("incremental", c.incremental)
                .field("stage_ms_per_ckpt", c.stage_ms_per_ckpt)
                .field("drain_ms_per_ckpt", c.drain_ms_per_ckpt)
                .field("bytes_written", c.bytes_written)
                .field("dedup_hit_ratio", c.dedup_hit_ratio),
        );
    }
    report.write("BENCH_pipeline.json");
}

fn bench_pipeline(c: &mut Criterion) {
    let results = cells();
    for cell in &results {
        let kind = if cell.incremental {
            "incremental"
        } else {
            "full"
        };
        println!(
            "pipeline/{}/{}/{kind}/{}+{}: stage {:.3} ms/ckpt, drain {:.3} \
             ms/ckpt, {} bytes written, dedup hit ratio {:.3} over {} \
             checkpoints",
            cell.mode,
            cell.workload,
            cell.chunking,
            cell.codec,
            cell.stage_ms_per_ckpt,
            cell.drain_ms_per_ckpt,
            cell.bytes_written,
            cell.dedup_hit_ratio,
            rounds()
        );
    }
    write_json(&results);
    assert_wins(&results);

    // Criterion display of the critical-path metric: one full commit
    // round per iteration.
    let mut g = c.benchmark_group("pipeline_round");
    g.sample_size(5);
    g.throughput(Throughput::Bytes((RANKS * STATE_BYTES) as u64));
    for (name, io) in [
        ("sync_full", PipelineConfig::sync_full()),
        (
            "async_incremental",
            PipelineConfig::default()
                .with_codec(Codec::None)
                .with_chunker(Chunker::fixed(CHUNK)),
        ),
        (
            "async_cdc_lz4",
            PipelineConfig::default()
                .with_chunker(Chunker::cdc(CHUNK))
                .with_codec(Codec::Lz4),
        ),
    ] {
        let backend = Arc::new(MemoryBackend::new());
        let store =
            CheckpointStore::new(backend as Arc<dyn StorageBackend>, RANKS);
        let pipeline = CheckpointPipeline::new(store.clone(), io);
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
                            state_dirty(rank, round),
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
    targets = bench_pipeline
}
criterion_main!(benches);

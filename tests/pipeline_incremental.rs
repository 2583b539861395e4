//! Incremental checkpoints store measurably fewer bytes than the state
//! they checkpoint.
//!
//! Both the paper's benchmark shapes have large state regions that are
//! stable between consecutive checkpoints — Dense CG persists its
//! read-only matrix block with every snapshot, and the Laplace grid's
//! interior stays exactly zero until the boundary heat front reaches it —
//! so content-addressed chunking must skip most of the bytes from the
//! second checkpoint on. The comparison is against what storing every
//! line whole would cost at the least, the application state the ranks
//! serialised (`app_state_bytes`), and counts the raw length of every
//! chunk put across at least three committed checkpoints, so compression
//! cannot hide a dedup regression.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use c3_apps::dense_cg::CgState;
use c3_apps::linalg::{block_range, spd_entry};
use c3_apps::{DenseCg, Laplace};
use c3_core::recovery::RankCheckpoint;
use c3_core::{run_job, C3App, C3Config, Chunker, PipelineConfig};
use ckptstore::manifest::parse_chunk_key;
use ckptstore::{
    CheckpointStore, ChunkRef, Encoder, Form, MemoryBackend, RankBlobKind,
    StorageBackend, StoreResult,
};
use statesave::snapshot::restore_from_bytes;

/// Run `app` at 4 ranks and cuts around 256 bytes, and compare the raw
/// bytes of the chunks it put with the application state its lines
/// serialised.
fn assert_incremental_writes_fewer<A>(name: &str, app: &A, interval: u64)
where
    A: C3App,
{
    let backend = Arc::new(CountingPuts::default());
    let io = PipelineConfig::default().with_chunker(Chunker::cdc(256));
    let cfg = C3Config::every_ops(interval).with_io(io);
    let report = run_job(
        4,
        &cfg,
        Some(backend.clone() as Arc<dyn StorageBackend>),
        app,
    )
    .expect("job");
    assert_eq!(report.restarts, 0, "these runs are failure-free");
    let ckpts = report.last_committed.unwrap_or(0);
    assert!(
        ckpts >= 3,
        "{name}: need at least 3 committed checkpoints for a delta \
         comparison, got {ckpts}"
    );
    let stored: u64 = backend
        .puts
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(key, &n)| {
            Some(parse_chunk_key(key)?.1 as u64 * n as u64)
        })
        .sum();
    let state: u64 = report.stats.iter().map(|s| s.app_state_bytes).sum();
    // "Measurably" fewer: at least a 10% saving, not a rounding artifact.
    assert!(
        stored * 10 <= state * 9,
        "{name}: saving below 10% ({stored} chunk bytes put for {state} \
         bytes of state)"
    );
}

#[test]
fn dense_cg_incremental_checkpoints_are_smaller() {
    // The matrix block dominates the snapshot and never changes, so the
    // incremental run re-writes only the x/r/p slices and bookkeeping.
    assert_incremental_writes_fewer("dense-cg", &DenseCg::new(64, 24), 8);
}

#[test]
fn laplace_incremental_checkpoints_are_smaller() {
    // The heat front moves one cell per Jacobi sweep, so most interior
    // chunks are still bit-identical zeros at each early checkpoint (and
    // identical *to each other*, deduplicating within a snapshot too).
    assert_incremental_writes_fewer(
        "laplace",
        &Laplace { n: 64, iters: 24 },
        8,
    );
}

#[test]
fn clean_referenced_chunks_outlive_every_gc() {
    // Dense CG's matrix block is written at a rank's first line and only
    // referred to afterwards. With `keep_last = 1` every commit collects
    // the line before it, so the last line's manifest is the only thing
    // keeping the line-1 chunks alive: it must still name all of them,
    // and reassemble to the state the job ended with.
    let (n, nranks) = (64, 2);
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let io = PipelineConfig::default();
    assert_eq!(io.keep_last, 1);
    let cfg = C3Config::every_ops(8).with_io(io);
    let report =
        run_job(nranks, &cfg, Some(backend.clone()), &DenseCg::new(n, 40))
            .expect("job");
    let last = report.last_committed.expect("lines committed");
    assert!(last >= 5, "need at least 5 lines, got {last}");
    for s in &report.stats {
        assert!(s.checkpoints >= last);
        // All but the first line refer to the matrix block.
        let per_line = s.app_state_bytes_clean / (s.checkpoints - 1);
        assert!(per_line >= (n * n / nranks * 8) as u64, "{s:?}");
        assert!(s.app_state_bytes > s.app_state_bytes_clean);
    }
    let store = CheckpointStore::new(backend, nranks);
    for rank in 0..nranks {
        let manifest = store
            .get_rank_manifest(last, rank, RankBlobKind::State)
            .unwrap()
            .expect("written incrementally");
        // The block is named by one run object, stored at line 1.
        assert_eq!(manifest.runs.len(), 1, "rank {rank}");
        let runs = manifest.runs.iter().map(|r| &r.obj);
        for chunk in manifest.chunks.iter().chain(runs) {
            assert!(
                store.has_chunk(&chunk.key()).unwrap(),
                "{chunk:?} was swept"
            );
        }
        let blob = store
            .get_rank_blob(last, rank, RankBlobKind::State)
            .unwrap();
        let (rc, envelope) = RankCheckpoint::load(&blob).unwrap();
        assert_eq!(rc.ckpt, last);
        let state: CgState = restore_from_bytes(&blob[envelope]).unwrap();
        let (lo, hi) = block_range(n, nranks, rank);
        let matrix: Vec<f64> = (lo..hi)
            .flat_map(|i| (0..n).map(move |j| spd_entry(n, i, j)))
            .collect();
        assert!(*state.a_block == matrix, "rank {rank} matrix block");
    }
}

#[test]
fn a_restart_writes_the_matrix_block_by_reference_from_its_first_line() {
    // Killed after line 2, and again after the first line of the restart.
    // Every line either restart writes — its first included — must name
    // the matrix block by a reference adopted from the recovered
    // manifest, so the second restart recovers from such a line; the
    // block's bytes are cut and hashed once per rank in the whole job.
    let (n, nranks) = (256, 2);
    let app = DenseCg::new(n, 40);
    let a_block_len = (8 + n * n / nranks * 8) as u64;
    let chunker = Chunker::cdc(256);
    let io = PipelineConfig::default().with_chunker(chunker);
    let reference = run_job(
        nranks,
        &C3Config::every_ops(10).with_io(io.clone()),
        None,
        &app,
    )
    .unwrap();
    let reg = c3obs::Registry::new();
    let cfg = C3Config::every_ops(10)
        .with_io(io)
        .with_obs(reg.clone())
        .with_failure(1, 60)
        .with_failure_from(1, 60, 2);
    let report = run_job(nranks, &cfg, None, &app).unwrap();
    assert_eq!(report.outputs, reference.outputs);
    assert_eq!(report.restarts, 2);
    let from = &report.recovered_from;
    assert!(from[0] >= 1 && from[1] > from[0], "recovered from {from:?}");
    for s in &report.stats {
        assert!(s.checkpoints >= 1, "{s:?}");
        assert_eq!(s.app_state_bytes_clean, s.checkpoints * a_block_len);
    }
    // Cuts around 256 bytes: each block is some thousand chunks,
    // everything else a line writes (header, vectors, log, journal) a few
    // dozen, over some forty lines; a block cut again costs another
    // thousand.
    let block_chunks: u64 = (0..nranks)
        .map(|rank| {
            let (lo, hi) = block_range(n, nranks, rank);
            let block: Vec<f64> = (lo..hi)
                .flat_map(|i| (0..n).map(move |j| spd_entry(n, i, j)))
                .collect();
            let mut enc = Encoder::new();
            enc.put_f64_slice(&block);
            let bytes = enc.into_bytes();
            assert_eq!(bytes.len() as u64, a_block_len);
            chunker.cut(&bytes).count() as u64
        })
        .sum();
    let cut = reg.snapshot().histogram_count_total("io_chunk_bytes");
    assert!(
        (block_chunks..2 * block_chunks).contains(&cut),
        "{cut} chunks cut, the matrix blocks are {block_chunks}"
    );
}

#[test]
fn a_dense_cg_block_of_shifted_rows_stores_under_0_7_of_the_chunks_it_names() {
    // Each row of Dense CG's matrix is the row before it shifted by one
    // element. Content-defined cuts land on the same bytes row after row,
    // so with rows of 8 KiB a rank's block names many chunks more than
    // once, and stores each once.
    let (n, nranks) = (1024, 2);
    let backend = Arc::new(MemoryBackend::new());
    let cfg = C3Config::every_ops(8);
    let report =
        run_job(nranks, &cfg, Some(backend.clone()), &DenseCg::new(n, 12))
            .expect("job");
    let line = report.last_committed.expect("lines committed");
    let store = CheckpointStore::new(backend, nranks);
    for rank in 0..nranks {
        let m = store.get_rank_manifest(line, rank, RankBlobKind::State);
        let m = m.unwrap().expect("written incrementally");
        assert_eq!(m.runs.len(), 1, "rank {rank}: the block is one run");
        let named = &m.chunks[m.runs[0].chunks.clone()];
        let stored: HashSet<_> = named.iter().map(ChunkRef::addr).collect();
        assert!(
            stored.len() * 10 <= named.len() * 7,
            "rank {rank}: the block names {} chunks and stores {}",
            named.len(),
            stored.len()
        );
    }
}

/// A `MemoryBackend` that counts the puts of each key, batched or not.
#[derive(Default)]
struct CountingPuts {
    inner: MemoryBackend,
    puts: Mutex<HashMap<String, usize>>,
}

impl CountingPuts {
    fn count(&self, key: &str) {
        let mut puts = self.puts.lock().unwrap();
        *puts.entry(key.to_owned()).or_default() += 1;
    }
}

impl StorageBackend for CountingPuts {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        self.count(key);
        self.inner.put(key, value)
    }
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        items.iter().for_each(|(key, _)| self.count(key));
        self.inner.put_many(items)
    }
    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        self.inner.get(key)
    }
    fn contains(&self, key: &str) -> StoreResult<bool> {
        self.inner.contains(key)
    }
    fn delete(&self, key: &str) -> StoreResult<()> {
        self.inner.delete(key)
    }
    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        self.inner.list(prefix)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

#[test]
fn a_restart_names_the_run_it_recovered_from_without_a_put() {
    // Dense CG's matrix block is one tracked value of many chunks, which
    // every state line names by one run entry. Killed under
    // `FullRestart`, the job recovers bit-identically from such a line,
    // and the first line the restart writes names the same run object:
    // put once in the whole job, at the first line.
    let (n, nranks) = (256, 2);
    let app = DenseCg::new(n, 40);
    let io = PipelineConfig::default().with_keep_last(1000);
    let cfg = C3Config::every_ops(10).with_io(io);
    let reference = run_job(nranks, &cfg, None, &app).unwrap();
    let backend = Arc::new(CountingPuts::default());
    let report = run_job(
        nranks,
        &cfg.with_failure(1, 60),
        Some(backend.clone() as Arc<dyn StorageBackend>),
        &app,
    )
    .unwrap();
    assert_eq!(report.outputs, reference.outputs);
    assert_eq!(report.restarts, 1);
    let from = report.recovered_from[0];
    assert!(from >= 1, "recovered from line {from}");
    let store = CheckpointStore::new(backend.clone(), nranks);
    let puts = backend.puts.lock().unwrap();
    for rank in 0..nranks {
        let run = |ckpt| {
            let m = store.get_rank_manifest(ckpt, rank, RankBlobKind::State);
            let runs = m.unwrap().expect("written incrementally").runs;
            assert_eq!(runs.len(), 1, "rank {rank} line {ckpt}");
            runs[0].obj
        };
        let recovered = run(from);
        assert_eq!(run(from + 1), recovered, "rank {rank}");
        assert_eq!(puts[&recovered.key()], 1, "rank {rank}");
    }
}

#[test]
fn laplace_lines_mix_both_lz4_forms_and_recover_from_them() {
    // The default codec keeps each chunk's smaller LZ4 form: a band's
    // smooth rows go in as byte planes (id 3), other chunks as plain LZ4
    // (id 2). A restart reassembles both from the line it recovers from
    // and ends as the failure-free job does — with cuts around 4 KiB and
    // around 1 KiB. Chunks whose length is not a multiple of 8 (every cut
    // but a few) keep their tail as it is.
    let app = Laplace { n: 64, iters: 64 };
    for chunker in [Chunker::default(), Chunker::cdc(1024)] {
        let io = PipelineConfig::default()
            .with_chunker(chunker)
            .with_keep_last(1000);
        let cfg = C3Config::every_ops(8).with_io(io);
        let reference = run_job(2, &cfg, None, &app).expect("job");
        let backend = Arc::new(MemoryBackend::new());
        let report = run_job(
            2,
            &cfg.with_failure(1, 60),
            Some(backend.clone() as Arc<dyn StorageBackend>),
            &app,
        )
        .expect("job");
        assert_eq!(report.outputs, reference.outputs, "{chunker:?}");
        assert_eq!(report.restarts, 1, "{chunker:?}");
        let store = CheckpointStore::new(backend, 2);
        let state_chunks = |ckpt| -> Vec<ChunkRef> {
            (0..2)
                .flat_map(|rank| {
                    let m = store.get_rank_manifest(
                        ckpt,
                        rank,
                        RankBlobKind::State,
                    );
                    m.unwrap().expect("written incrementally").chunks
                })
                .collect()
        };
        // Every committed line is still on storage (`keep_last`): the one
        // recovered from names planes chunks, and the committed lines
        // name plain ones too.
        let last = report.last_committed.expect("lines committed");
        let from = report.recovered_from[0];
        let forms = |lines: std::ops::RangeInclusive<u64>| -> HashSet<Form> {
            lines.flat_map(state_chunks).map(|c| c.form).collect()
        };
        assert!(from >= 1, "{chunker:?}: recovered from line {from}");
        assert!(forms(from..=from).contains(&Form::Lz4Planes), "{chunker:?}");
        let all = forms(1..=last);
        assert!(all.contains(&Form::Lz4), "{chunker:?}: {all:?}");
        let ragged = (1..=last)
            .flat_map(state_chunks)
            .filter(|c| c.form == Form::Lz4Planes && c.len % 8 != 0)
            .count();
        assert!(ragged > 0, "{chunker:?}: no ragged planes chunk");
    }
}

#[test]
fn a_killed_dense_cg_job_restores_from_predicted_chunks() {
    // Away from the diagonal, a row of Dense CG's matrix is a slowly
    // varying `f64` field, so at n = 1024 most of a block's chunks go in
    // as the planes of their lanes' order-2 residuals (id 4). A job
    // killed after its first lines recovers from a line whose state
    // blobs name such chunks, and ends as the failure-free job does.
    let (n, nranks) = (1024, 2);
    let app = DenseCg::new(n, 40);
    let io = PipelineConfig::default().with_keep_last(1000);
    let cfg = C3Config::every_ops(10).with_io(io);
    let reference = run_job(nranks, &cfg, None, &app).expect("job");
    let backend = Arc::new(MemoryBackend::new());
    let report = run_job(
        nranks,
        &cfg.with_failure(1, 60),
        Some(backend.clone() as Arc<dyn StorageBackend>),
        &app,
    )
    .expect("job");
    assert_eq!(report.outputs, reference.outputs);
    assert_eq!(report.restarts, 1);
    let from = report.recovered_from[0];
    assert!(from >= 1, "recovered from line {from}");
    let store = CheckpointStore::new(backend, nranks);
    for rank in 0..nranks {
        let m = store.get_rank_manifest(from, rank, RankBlobKind::State);
        let m = m.unwrap().expect("written incrementally");
        let predicted = m
            .chunks
            .iter()
            .filter(|c| c.form == Form::Lz4Predicted)
            .count();
        assert!(
            predicted * 2 >= m.chunks.len(),
            "rank {rank}: {predicted} of {} chunks predicted",
            m.chunks.len()
        );
    }
}

#[test]
fn a_line_repeating_planes_chunks_names_them_from_the_line_record() {
    // `Laplace { n: 24, .. }` converges bit for bit long before 6 000
    // sweeps; from then on every line repeats the previous line's grid
    // chunks, most of them stored as planes. A chunk the previous line
    // of its stream names goes into the manifest from that line's
    // record, form included: the codec never sees it. So the bytes the
    // codec saw are exactly those of the chunks no previous line names.
    let reg = c3obs::Registry::new();
    let backend = Arc::new(MemoryBackend::new());
    let io = PipelineConfig::default()
        .with_chunker(Chunker::cdc(256))
        .with_keep_last(1000);
    let cfg = C3Config::every_ops(500).with_io(io).with_obs(reg.clone());
    let app = Laplace { n: 24, iters: 6000 };
    let report = run_job(
        2,
        &cfg,
        Some(backend.clone() as Arc<dyn StorageBackend>),
        &app,
    )
    .expect("job");
    let store = CheckpointStore::new(backend, 2);
    let last = report.last_committed.expect("lines committed");
    let (mut encoded, mut repeated_planes) = (0, 0);
    for rank in 0..2 {
        for kind in [
            RankBlobKind::State,
            RankBlobKind::Log,
            RankBlobKind::MpiObjects,
        ] {
            let mut prev = HashMap::new();
            for ckpt in 1..=last + 1 {
                let Some(m) =
                    store.get_rank_manifest(ckpt, rank, kind).unwrap()
                else {
                    continue;
                };
                for c in &m.chunks {
                    match prev.get(&(c.hash, c.len)) {
                        Some(&form) => {
                            assert_eq!(form, c.form);
                            repeated_planes +=
                                usize::from(form == Form::Lz4Planes);
                        }
                        None => encoded += u64::from(c.len),
                    }
                }
                prev = m
                    .chunks
                    .iter()
                    .map(|c| ((c.hash, c.len), c.form))
                    .collect();
            }
        }
    }
    assert!(
        repeated_planes >= 100,
        "{repeated_planes} repeated planes chunks"
    );
    let seen = reg.snapshot().counter_total("io_precompress_bytes_total");
    assert_eq!(seen, encoded);
}

//! Asynchronous, incremental checkpoint I/O for the c3rs system.
//!
//! The PPoPP 2003 protocol is *non-blocking* precisely so that useful
//! work overlaps checkpointing — but a synchronous full-snapshot write at
//! `potentialCheckpoint` time puts the entire storage cost back on the
//! rank's critical path (it dominates the paper's Figure 8 overhead at
//! 40 MB/s stable storage). This crate moves that cost off the critical
//! path without weakening the recovery guarantee:
//!
//! * **Staging** — a rank hands its snapshot bytes to
//!   [`CheckpointPipeline::stage`] and returns immediately (async mode);
//!   a bounded queue applies backpressure instead of buffering without
//!   limit.
//! * **Chunking + dedup** — writer threads cut the blob into
//!   content-defined FastCDC chunks, which keep dedup working when state
//!   shifts (see [`Chunker`]), address each by a 128-bit content hash +
//!   length, and skip chunks already stored by this blob or a previous
//!   checkpoint (incremental / delta checkpoints, per the
//!   differential-checkpointing line of work). Every rank blob is stored
//!   this way, as a manifest naming its chunks. Surviving chunks are
//!   LZ4-compressed, as they are, as byte planes or as the planes of
//!   their lanes' order-2 residuals, whichever is smallest
//!   ([`ckptstore::Form::encode`]), or stored raw when none shrinks
//!   them; each is sealed once under the CRC that also folds into the
//!   blob's, and fresh chunks leave in batched puts of 64 — a write holds
//!   its blob and one batch, never a second copy of the blob.
//! * **Retry** — transient storage faults (see
//!   `ckptstore::FaultInjectingBackend`) are retried with exponential
//!   backoff.
//! * **Drain before commit** — the initiator calls
//!   [`CheckpointPipeline::drain`] in phase 4 of the protocol and only
//!   then `CheckpointStore::commit`. A crash mid-write therefore leaves
//!   an uncommitted, invisible checkpoint and recovery falls back to the
//!   previous committed one. The offline analyzer (`c3verify`) checks
//!   this ordering on recorded traces.
//! * **GC through the pipeline** — the initiator's post-commit
//!   [`CheckpointPipeline::gc_keeping`] serializes the store's orphan
//!   sweep against in-flight blob writes, so a chunk a writer just wrote
//!   or deduplicated against is never swept before its manifest lands.

#![deny(missing_docs)]

pub mod config;
pub(crate) mod obs;
pub mod pipeline;

pub use config::{PipelineConfig, RetryPolicy, TierTopology, WriteMode};
pub use pipeline::{CheckpointPipeline, PipelineStats, StagedBlob};

// The chunker lives in ckptstore (the store owns the chunk wire format);
// re-exported here so pipeline users configure everything from one crate.
pub use ckptstore::Chunker;

#[cfg(test)]
mod test_alloc {
    //! A global allocator for this crate's unit tests that tracks live
    //! heap bytes per thread and their high-water mark, so a write path
    //! can pin how much it holds at once. A thread's count is only
    //! meaningful for memory it both allocates and frees (sync-mode
    //! writes on the test's own thread).

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<i64> = const { Cell::new(0) };
        static PEAK: Cell<i64> = const { Cell::new(0) };
    }

    fn add(bytes: i64) {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + bytes);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }

    struct TrackingAlloc;

    // SAFETY: delegates entirely to `System`; the counters use
    // `try_with` so allocation during thread-local teardown is safe.
    unsafe impl GlobalAlloc for TrackingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            add(layout.size() as i64);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            add(-(layout.size() as i64));
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: Layout,
            new_size: usize,
        ) -> *mut u8 {
            add(new_size as i64 - layout.size() as i64);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: TrackingAlloc = TrackingAlloc;

    /// Restart this thread's high-water mark at what it holds now, and
    /// return that.
    pub fn reset_peak() -> i64 {
        let live = LIVE.try_with(Cell::get).unwrap_or(0);
        let _ = PEAK.try_with(|peak| peak.set(live));
        live
    }

    /// The most this thread has held since [`reset_peak`].
    pub fn peak() -> i64 {
        PEAK.try_with(Cell::get).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use ckptstore::{
        CheckpointStore, ChunkRef, Encoder, FaultInjectingBackend, FaultPlan,
        MemoryBackend, RankBlobKind, StorageBackend, Tracked,
    };

    use super::*;

    fn mem_store(nranks: usize) -> (Arc<MemoryBackend>, CheckpointStore) {
        let backend = Arc::new(MemoryBackend::new());
        (backend.clone(), CheckpointStore::new(backend, nranks))
    }

    fn blob(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_add((i % 61) as u8))
            .collect()
    }

    fn stage_full_checkpoint(
        pipe: &CheckpointPipeline,
        ckpt: u64,
        payloads: &[Vec<u8>],
    ) {
        for (rank, payload) in payloads.iter().enumerate() {
            pipe.stage(ckpt, rank, RankBlobKind::State, payload.clone())
                .unwrap();
            pipe.stage(ckpt, rank, RankBlobKind::Log, b"log".to_vec())
                .unwrap();
        }
    }

    #[test]
    fn sync_mode_stores_each_blob_before_stage_returns() {
        let (_, store) = mem_store(2);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default().with_mode(WriteMode::Sync),
        );
        let payloads = vec![blob(1, 500), blob(2, 500)];
        stage_full_checkpoint(&pipe, 1, &payloads);
        for rank in 0..2 {
            for kind in [RankBlobKind::State, RankBlobKind::Log] {
                assert!(store.has_rank_blob(1, rank, kind).unwrap());
            }
        }
        assert_eq!(pipe.drain(1).unwrap(), 4);
        store.commit(1).unwrap();
        for (rank, payload) in payloads.iter().enumerate() {
            assert_eq!(
                store.get_rank_blob(1, rank, RankBlobKind::State).unwrap(),
                *payload
            );
        }
    }

    #[test]
    fn async_incremental_round_trips_and_dedups() {
        let (backend, store) = mem_store(1);
        let chunker = Chunker::cdc(256);
        let cfg = PipelineConfig::default().with_chunker(chunker);
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        let v1 = blob(7, 4096);
        pipe.stage(1, 0, RankBlobKind::State, v1.clone()).unwrap();
        pipe.stage(1, 0, RankBlobKind::Log, b"l1".to_vec()).unwrap();
        assert_eq!(pipe.drain(1).unwrap(), 2);
        store.commit(1).unwrap();
        let after_first = backend.bytes_written();

        // Second checkpoint: mutate one chunk's worth of data.
        let mut v2 = v1.clone();
        v2[200] ^= 0xFF;
        pipe.stage(2, 0, RankBlobKind::State, v2.clone()).unwrap();
        pipe.stage(2, 0, RankBlobKind::Log, b"l2".to_vec()).unwrap();
        pipe.drain(2).unwrap();
        store.commit(2).unwrap();
        let delta = backend.bytes_written() - after_first;
        // The delta is the chunk around the edit, rewritten, plus the new
        // manifest (25 bytes per chunk entry for the 128-bit content
        // address) — far below rewriting the 4 KiB blob.
        assert!(
            delta < v2.len() as u64 / 3,
            "checkpoint 2 should be a small delta, wrote {delta} bytes"
        );
        // Every piece of checkpoint 2 that checkpoint 1 also cut dedups.
        let first: HashSet<&[u8]> = chunker.cut(&v1).collect();
        let kept = chunker.cut(&v2).filter(|c| first.contains(c)).count();
        assert!(kept + 1 >= chunker.cut(&v2).count(), "one piece changed");
        let stats = pipe.stats();
        assert_eq!(stats.chunks_deduped, kept as u64, "stats: {stats:?}");
        assert_eq!(
            store.get_rank_blob(2, 0, RankBlobKind::State).unwrap(),
            v2
        );
        pipe.gc_keeping(2).unwrap();
        assert_eq!(
            store.get_rank_blob(2, 0, RankBlobKind::State).unwrap(),
            v2
        );
    }

    #[test]
    fn drain_blocks_until_slow_writes_finish() {
        let (_, _) = mem_store(1);
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FaultInjectingBackend::new(
                Arc::new(MemoryBackend::new()),
                FaultPlan::none().slow_ms(5),
            ));
        let store = CheckpointStore::new(backend, 2);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default().with_mode(WriteMode::Async {
                writers: 2,
                queue_depth: 4,
            }),
        );
        let payloads = vec![blob(3, 2000), blob(4, 2000)];
        stage_full_checkpoint(&pipe, 1, &payloads);
        // The barrier: after drain, commit must find every blob present.
        assert_eq!(pipe.drain(1).unwrap(), 4);
        store.commit(1).unwrap();
        assert_eq!(
            store.get_rank_blob(1, 1, RankBlobKind::State).unwrap(),
            payloads[1]
        );
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let inject = Arc::new(FaultInjectingBackend::new(
            Arc::new(MemoryBackend::new()),
            FaultPlan::none().fail_n(3),
        ));
        let store =
            CheckpointStore::new(inject.clone() as Arc<dyn StorageBackend>, 1);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default().with_chunker(Chunker::cdc(256)),
        );
        pipe.stage(1, 0, RankBlobKind::State, blob(9, 1000))
            .unwrap();
        pipe.stage(1, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        pipe.drain(1).unwrap();
        store.commit(1).unwrap();
        assert!(inject.faults_injected() >= 3);
        assert!(pipe.stats().retries >= 3, "stats: {:?}", pipe.stats());
    }

    #[test]
    fn exhausted_retries_surface_at_drain_and_block_commit() {
        let inject = Arc::new(FaultInjectingBackend::new(
            Arc::new(MemoryBackend::new()),
            FaultPlan::none().fail_n(1000),
        ));
        let store =
            CheckpointStore::new(inject.clone() as Arc<dyn StorageBackend>, 1);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default().with_retry(RetryPolicy {
                max_retries: 2,
                backoff_base_ms: 0,
            }),
        );
        pipe.stage(1, 0, RankBlobKind::State, blob(1, 100)).unwrap();
        let err = pipe.drain(1).unwrap_err();
        assert!(err.is_transient(), "{err}");
        // The checkpoint has no complete blob set; commit refuses.
        assert!(store.commit(1).is_err());
    }

    #[test]
    fn drain_error_with_in_flight_writes_leaves_pipeline_usable() {
        // Regression: drain used to retire the ticket as soon as it saw
        // an error, even with writes still outstanding; the straggling
        // writer's completion then resurrected the ticket at count zero
        // and underflowed it (panic + poisoned mutex in debug builds, a
        // wrapped counter and a hung later drain in release builds).
        // First three puts fail: blob 1's chunk batch, then the chunk's
        // own put and its only retry. The slow-put keeps blobs 2 and 3 in
        // flight long enough that drain reliably observes the error while
        // outstanding > 0.
        let inject = Arc::new(FaultInjectingBackend::new(
            Arc::new(MemoryBackend::new()),
            FaultPlan::none().fail_n(3).slow_ms(5),
        ));
        let store =
            CheckpointStore::new(inject.clone() as Arc<dyn StorageBackend>, 1);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default()
                .with_mode(WriteMode::Async {
                    writers: 1,
                    queue_depth: 8,
                })
                .with_retry(RetryPolicy {
                    max_retries: 1,
                    backoff_base_ms: 0,
                }),
        );
        // Three staged blobs, one writer: when the first write fails,
        // the other two are still queued/in flight at drain time.
        for kind in [
            RankBlobKind::State,
            RankBlobKind::Log,
            RankBlobKind::MpiObjects,
        ] {
            pipe.stage(1, 0, kind, blob(5, 400)).unwrap();
        }
        assert!(pipe.drain(1).is_err());
        assert!(inject.faults_injected() >= 3);
        // The next checkpoint must succeed on the same pipeline, with no
        // panic, poisoned lock, or hung drain.
        pipe.stage(2, 0, RankBlobKind::State, blob(6, 400)).unwrap();
        pipe.stage(2, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        assert_eq!(pipe.drain(2).unwrap(), 2);
        store.commit(2).unwrap();
        assert_eq!(
            store.get_rank_blob(2, 0, RankBlobKind::State).unwrap(),
            blob(6, 400)
        );
    }

    #[test]
    fn gc_does_not_break_dedup_of_resurrected_chunks() {
        // A chunk whose only references were in collected checkpoints is
        // swept by GC; if the same content reappears later, the dedup
        // path must notice the chunk is gone and write it again rather
        // than trusting a stale dedup set (which would commit a manifest
        // naming a deleted chunk — unrecoverable).
        let (backend, store) = mem_store(1);
        let cfg = PipelineConfig::default().with_mode(WriteMode::Sync);
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        // Blobs below the chunker's minimum cut are one chunk each.
        let a = vec![0xAAu8; 64];
        let b = vec![0xBBu8; 64];
        // Checkpoint 1 stores chunks A and B; checkpoint 2 drops B.
        for (ckpt, log) in [(1u64, &b), (2u64, &a)] {
            pipe.stage(ckpt, 0, RankBlobKind::State, a.clone()).unwrap();
            pipe.stage(ckpt, 0, RankBlobKind::Log, log.clone()).unwrap();
            pipe.drain(ckpt).unwrap();
            store.commit(ckpt).unwrap();
        }
        pipe.gc_keeping(2).unwrap();
        // B's only reference was checkpoint 1's log manifest: it is gone
        // (chunk A survives).
        assert!(!store.has_chunk(&ChunkRef::for_piece(&b).key()).unwrap());
        assert_eq!(backend.list("chunk/").unwrap().len(), 1);
        // Checkpoint 3 resurrects content B. It must round-trip after a
        // GC that keeps only checkpoint 3.
        pipe.stage(3, 0, RankBlobKind::State, b.clone()).unwrap();
        pipe.stage(3, 0, RankBlobKind::Log, a.clone()).unwrap();
        pipe.drain(3).unwrap();
        store.commit(3).unwrap();
        pipe.gc_keeping(3).unwrap();
        assert_eq!(store.get_rank_blob(3, 0, RankBlobKind::State).unwrap(), b);
    }

    #[test]
    fn pipeline_records_obs_metrics() {
        // The default codec stores the period-61 state chunk as 61
        // literals and one match (79 bytes).
        let reg = c3obs::Registry::new();
        let (_, mut store) = mem_store(1);
        store.attach_obs(&reg);
        let pipe =
            CheckpointPipeline::new(store.clone(), PipelineConfig::default());
        pipe.stage(1, 0, RankBlobKind::State, blob(1, 2048))
            .unwrap();
        pipe.stage(1, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        pipe.drain(1).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("io_staged_bytes_total"), 2048 + 3);
        assert_eq!(snap.histogram_count_total("io_stage_ns"), 2);
        assert_eq!(snap.histogram_count_total("io_write_ns"), 2);
        assert_eq!(snap.histogram_count_total("io_drain_ns"), 1);
        assert_eq!(snap.counter_total("io_retries_total"), 0);
        assert_eq!(snap.counter_total("io_precompress_bytes_total"), 2048 + 3);
        assert_eq!(snap.counter_total("io_postcompress_bytes_total"), 79 + 3);
        assert!(snap.self_check().is_empty());
    }

    #[test]
    fn shutdown_finishes_queued_writes() {
        let (_, store) = mem_store(1);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default().with_mode(WriteMode::Async {
                writers: 1,
                queue_depth: 16,
            }),
        );
        for k in 0..8u64 {
            pipe.stage(1, 0, RankBlobKind::State, blob(k as u8, 300))
                .unwrap();
        }
        drop(pipe);
        // Every staged write must have landed even though drain was never
        // called (a failed attempt's pipeline is dropped, not drained).
        assert_eq!(
            store.get_rank_blob(1, 0, RankBlobKind::State).unwrap(),
            blob(7, 300)
        );
    }

    #[test]
    fn stage_after_shutdown_is_an_error() {
        let (_, store) = mem_store(1);
        let pipe = CheckpointPipeline::new(store, PipelineConfig::default());
        pipe.shutdown();
        assert!(pipe
            .stage(1, 0, RankBlobKind::State, vec![1, 2, 3])
            .is_err());
    }

    #[test]
    fn compression_shrinks_runs() {
        let (backend, store) = mem_store(1);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default()
                .with_mode(WriteMode::Sync)
                .with_chunker(Chunker::cdc(1024)),
        );
        // Highly compressible state: long zero runs.
        let v = vec![0u8; 64 * 1024];
        pipe.stage(1, 0, RankBlobKind::State, v.clone()).unwrap();
        pipe.drain(1).unwrap();
        assert!(
            backend.bytes_written() < 8 * 1024,
            "compressed zeros still cost {} bytes",
            backend.bytes_written()
        );
        assert_eq!(store.get_rank_blob(1, 0, RankBlobKind::State).unwrap(), v);
        assert!(pipe.stats().chunks_compressed > 0);
    }

    #[test]
    fn incompressible_chunks_are_stored_raw_and_read_back() {
        // Noise neither LZ4 form shrinks: every chunk keeps its bytes.
        let (_, store) = mem_store(1);
        let cfg = PipelineConfig::default().with_mode(WriteMode::Sync);
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        let mut state = 7;
        let v: Vec<u8> = (0..64 << 10)
            .map(|_| ckptstore::splitmix64(&mut state) as u8)
            .collect();
        pipe.stage(1, 0, RankBlobKind::State, v.clone()).unwrap();
        let m = store.get_rank_manifest(1, 0, RankBlobKind::State);
        let m = m.unwrap().expect("every blob leaves a manifest");
        assert!(m.chunks.len() >= 8, "{} chunks", m.chunks.len());
        for c in &m.chunks {
            assert_eq!((c.form, c.stored_len), (ckptstore::Form::Raw, c.len));
        }
        assert_eq!(store.get_rank_blob(1, 0, RankBlobKind::State).unwrap(), v);
    }

    #[test]
    fn cdc_dedup_survives_a_front_insertion() {
        // The FastCDC win over fixed-size chunking: insert bytes at the
        // front of the state and every fixed chunk boundary would shift
        // (a full rewrite), while content-defined cuts re-align after the
        // edit.
        let mut base = Vec::with_capacity(256 * 1024);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while base.len() < 256 * 1024 {
            x = x.wrapping_mul(0xD120_2E87_82B9_029D).wrapping_add(1);
            base.extend_from_slice(&x.to_le_bytes());
        }
        let mut shifted = vec![0x5Au8; 97];
        shifted.extend_from_slice(&base);

        let (backend, store) = mem_store(1);
        let cfg = PipelineConfig::default().with_mode(WriteMode::Sync);
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        pipe.stage(1, 0, RankBlobKind::State, base.clone()).unwrap();
        pipe.stage(1, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        pipe.drain(1).unwrap();
        store.commit(1).unwrap();
        let first = backend.bytes_written();
        pipe.stage(2, 0, RankBlobKind::State, shifted.clone())
            .unwrap();
        pipe.stage(2, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        pipe.drain(2).unwrap();
        store.commit(2).unwrap();
        assert_eq!(
            store.get_rank_blob(2, 0, RankBlobKind::State).unwrap(),
            shifted
        );
        // CDC rewrites only the chunks around the edit.
        let delta = backend.bytes_written() - first;
        assert!(
            delta * 4 < first,
            "delta {delta} should be far below the first line's {first}"
        );
    }

    #[test]
    fn parallel_preparation_preserves_manifest_order() {
        // A many-chunk blob written by a 4-writer pipeline reassembles
        // byte-identically.
        let (_, store) = mem_store(1);
        let cfg = PipelineConfig::default()
            .with_mode(WriteMode::Async {
                writers: 4,
                queue_depth: 8,
            })
            .with_chunker(Chunker::cdc(1024));
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        let v = blob(13, 512 * 1024);
        pipe.stage(1, 0, RankBlobKind::State, v.clone()).unwrap();
        pipe.stage(1, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        assert_eq!(pipe.drain(1).unwrap(), 2);
        store.commit(1).unwrap();
        assert_eq!(store.get_rank_blob(1, 0, RankBlobKind::State).unwrap(), v);
        let stats = pipe.stats();
        assert!(stats.chunks_written > 0, "stats: {stats:?}");
    }

    /// `len` seeded bytes alternating incompressible stretches, long runs
    /// and a repeat of the opening stretch (a within-blob duplicate).
    fn mixed_blob(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let draw = ckptstore::splitmix64(&mut state);
            let stretch = 2048 + (draw % 6000) as usize;
            match draw >> 62 {
                0 => out.extend(std::iter::repeat_n(draw as u8, stretch)),
                1 if out.len() >= stretch => out.extend_from_within(..stretch),
                _ => out.extend(
                    (0..stretch)
                        .map(|_| ckptstore::splitmix64(&mut state) as u8),
                ),
            }
        }
        out.truncate(len);
        out
    }

    #[test]
    fn four_writers_store_what_sync_stores() {
        // Stored form is a pure function of the bytes: which thread wrote a
        // blob, and in what order blobs landed, changes neither a manifest
        // nor the set of keys on storage. Two ranks, two lines (the second
        // mutates one stretch, so previous-line hits run too).
        let line1 = [mixed_blob(1, 640 * 1024), mixed_blob(2, 512 * 1024)];
        let mut line2 = line1.clone();
        for (i, b) in line2[0][300_000..303_000].iter_mut().enumerate() {
            *b = i as u8;
        }
        let run = |mode: WriteMode, chunker: Chunker| {
            let (backend, store) = mem_store(2);
            let cfg = PipelineConfig::default()
                .with_mode(mode)
                .with_chunker(chunker);
            let pipe = CheckpointPipeline::new(store.clone(), cfg);
            let mut manifests = Vec::new();
            for (ckpt, line) in [(1, &line1), (2, &line2)] {
                stage_full_checkpoint(&pipe, ckpt, line);
                assert_eq!(pipe.drain(ckpt).unwrap(), 4);
                store.commit(ckpt).unwrap();
                for rank in 0..2 {
                    let m = store
                        .get_rank_manifest(ckpt, rank, RankBlobKind::State)
                        .unwrap()
                        .expect("incremental writes leave a manifest");
                    assert!(m.chunks.len() >= 16, "{} chunks", m.chunks.len());
                    manifests.push(m);
                }
            }
            let stats = pipe.stats();
            assert!(stats.chunks_compressed > 0, "stats: {stats:?}");
            assert!(stats.chunks_deduped > 0, "stats: {stats:?}");
            (manifests, backend.list("").unwrap())
        };
        let four = WriteMode::Async {
            writers: 4,
            queue_depth: 8,
        };
        for chunker in [Chunker::cdc(1024), Chunker::default()] {
            let (sync_manifests, sync_keys) = run(WriteMode::Sync, chunker);
            let (async_manifests, async_keys) = run(four, chunker);
            assert_eq!(sync_manifests, async_manifests, "{chunker:?}");
            assert_eq!(sync_keys, async_keys, "{chunker:?}");
        }
    }

    #[test]
    fn dedup_hits_skip_recompression() {
        // An identical second checkpoint dedups every chunk against the
        // previous manifest's stored forms — no chunk is re-encoded.
        let (_, store) = mem_store(1);
        let cfg = PipelineConfig::default()
            .with_mode(WriteMode::Sync)
            .with_chunker(Chunker::cdc(512));
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        let v: Vec<u8> =
            (0..16 * 1024).map(|i| ((i / 7) % 251) as u8).collect();
        let mut after_first = 0;
        for ckpt in [1u64, 2] {
            pipe.stage(ckpt, 0, RankBlobKind::State, v.clone()).unwrap();
            pipe.stage(ckpt, 0, RankBlobKind::Log, b"log".to_vec())
                .unwrap();
            pipe.drain(ckpt).unwrap();
            store.commit(ckpt).unwrap();
            if ckpt == 1 {
                after_first = pipe.stats().chunks_compressed;
            }
        }
        let stats = pipe.stats();
        let pieces: Vec<&[u8]> = Chunker::cdc(512).cut(&v).collect();
        let distinct: HashSet<&[u8]> = pieces.iter().copied().collect();
        assert!(distinct.len() >= 4, "{} distinct pieces", distinct.len());
        // Checkpoint 1 repeats some pieces, checkpoint 2 all of them.
        let repeats = 2 * pieces.len() - distinct.len();
        assert_eq!(stats.chunks_deduped, repeats as u64 + 1, "and a log");
        // Every chunk was compressed during checkpoint 1; checkpoint 2's
        // dedup hits reused the stored forms without re-encoding.
        assert_eq!(after_first, distinct.len() as u64);
        assert_eq!(stats.chunks_compressed, after_first, "stats: {stats:?}");
        assert_eq!(store.get_rank_blob(2, 0, RankBlobKind::State).unwrap(), v);
    }

    #[test]
    fn a_piece_repeated_in_one_blob_is_encoded_once() {
        // A zero page cuts into one piece many times over: the codec sees
        // it once, and every repeat names the first one's stored form.
        let reg = c3obs::Registry::new();
        let (_, mut store) = mem_store(1);
        store.attach_obs(&reg);
        let cfg = PipelineConfig::default()
            .with_mode(WriteMode::Sync)
            .with_chunker(Chunker::cdc(1024));
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        let v = vec![0u8; 64 * 1024];
        pipe.stage(1, 0, RankBlobKind::State, v.clone()).unwrap();
        let pieces: Vec<&[u8]> = Chunker::cdc(1024).cut(&v).collect();
        let distinct: HashSet<&[u8]> = pieces.iter().copied().collect();
        assert!(pieces.len() >= 8 + distinct.len(), "{}", pieces.len());
        let fed = reg.snapshot().counter_total("io_precompress_bytes_total");
        let once: usize = distinct.iter().map(|p| p.len()).sum();
        assert_eq!(fed, once as u64);
        let m = store.get_rank_manifest(1, 0, RankBlobKind::State);
        let m = m.unwrap().expect("every blob leaves a manifest");
        assert_eq!(m.chunks.len(), pieces.len());
        let first = &m.chunks[0];
        let repeats = m.chunks.iter().filter(|c| c.addr() == first.addr());
        assert!(repeats.clone().count() >= 8);
        for c in repeats {
            assert_eq!((c.stored_len, c.form), (first.stored_len, first.form));
        }
        assert_ne!(first.form, ckptstore::Form::Raw);
        assert_eq!(store.get_rank_blob(1, 0, RankBlobKind::State).unwrap(), v);
    }

    /// A rank state with one large, rarely written field.
    struct TrackedState {
        iter: u64,
        big: Tracked<Vec<u8>>,
        tail: Vec<u8>,
    }

    impl TrackedState {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u64(self.iter);
            enc.put(&self.big);
            enc.put_bytes(&self.tail);
        }

        fn plain(&self) -> Vec<u8> {
            let mut enc = Encoder::new();
            self.encode(&mut enc);
            enc.into_bytes()
        }

        /// Encode against `pipe`'s record of rank 0's state stream.
        fn against(&self, pipe: &CheckpointPipeline) -> Encoder<'static> {
            let base = pipe.clean_base(0, RankBlobKind::State);
            let mut enc = Encoder::against(base);
            self.encode(&mut enc);
            enc
        }
    }

    impl TrackedState {
        /// Decode a state blob as a restart does, and hand `pipe` the
        /// blob with the tracked spans the decoder saw.
        fn recover(
            pipe: &CheckpointPipeline,
            ckpt: u64,
        ) -> ckptstore::StoreResult<TrackedState> {
            let (blob, chunk_crcs) = pipe.store().get_rank_blob_crcs(
                ckpt,
                0,
                RankBlobKind::State,
            )?;
            let mut dec = ckptstore::Decoder::new(&blob);
            let state = TrackedState {
                iter: dec.get_u64().unwrap(),
                big: dec.get().unwrap(),
                tail: dec.get_bytes().unwrap().to_vec(),
            };
            dec.finish("state").unwrap();
            pipe.adopt_line(
                ckpt,
                0,
                RankBlobKind::State,
                &chunk_crcs,
                dec.tracked_spans(),
            )?;
            Ok(state)
        }
    }

    fn commit_line(
        pipe: &CheckpointPipeline,
        ckpt: u64,
        state: impl Into<StagedBlob>,
    ) {
        pipe.stage(ckpt, 0, RankBlobKind::State, state).unwrap();
        pipe.stage(ckpt, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        pipe.drain(ckpt).unwrap();
        pipe.store().commit(ckpt).unwrap();
        pipe.gc_keeping(ckpt).unwrap();
    }

    #[test]
    fn clean_references_write_what_plain_bytes_would() {
        for chunker in [Chunker::cdc(256), Chunker::cdc(1024)] {
            let reg = c3obs::Registry::new();
            let cfg = PipelineConfig::default().with_chunker(chunker);
            let mut tracked_store = mem_store(1).1;
            tracked_store.attach_obs(&reg);
            let tracked = CheckpointPipeline::new(tracked_store, cfg.clone());
            let plain = CheckpointPipeline::new(mem_store(1).1, cfg);
            let mut state = TrackedState {
                iter: 0,
                big: Tracked::new(blob(3, 40_000)),
                tail: blob(1, 700),
            };
            let big_len = 8 + 40_000;
            // Line 1 has no base and line 3 follows a write to the big
            // field: those encode as bytes. Lines 2 and 4 refer.
            let mut clean_total = 0;
            for (ckpt, clean) in
                [(1u64, 0), (2, big_len), (3, 0), (4, big_len)]
            {
                state.iter = ckpt;
                state.tail[0] = ckpt as u8;
                if ckpt == 3 {
                    state.big[17] ^= 0xFF;
                }
                let enc = state.against(&tracked);
                assert_eq!(enc.clean_len(), clean, "line {ckpt}");
                clean_total += clean as u64;
                commit_line(&tracked, ckpt, enc);
                commit_line(&plain, ckpt, state.plain());
                // Only line `ckpt` survives the GC, and its manifest is
                // whole: same length, same end-to-end CRC, same bytes.
                let m = |p: &CheckpointPipeline| {
                    let m = p.store().get_rank_manifest(
                        ckpt,
                        0,
                        RankBlobKind::State,
                    );
                    m.unwrap().expect("written incrementally")
                };
                let (mt, mp) = (m(&tracked), m(&plain));
                assert_eq!(mt.total_len, mp.total_len, "line {ckpt}");
                assert_eq!(mt.blob_crc, mp.blob_crc, "line {ckpt}");
                let read = tracked.store().get_rank_blob(
                    ckpt,
                    0,
                    RankBlobKind::State,
                );
                assert_eq!(read.unwrap(), state.plain(), "line {ckpt}");
                assert_eq!(tracked.stats().bytes_clean, clean_total);
            }
            let (st, sp) = (tracked.stats(), plain.stats());
            assert_eq!(st.bytes_staged, sp.bytes_staged);
            assert_eq!(sp.bytes_clean, 0);
            assert_eq!(
                reg.snapshot().counter_total("io_clean_bytes_total"),
                clean_total
            );
        }
    }

    #[test]
    fn a_restart_keeps_the_clean_references_the_store_holds() {
        let (_, store) = mem_store(1);
        let cfg = PipelineConfig::default().with_mode(WriteMode::Sync);
        let new_attempt =
            || CheckpointPipeline::new(store.clone(), cfg.clone());
        let big_len = 8 + 40_000;
        let pipe = new_attempt();
        let mut state = TrackedState {
            iter: 1,
            big: Tracked::new(blob(3, 40_000)),
            tail: blob(1, 700),
        };
        commit_line(&pipe, 1, state.against(&pipe));
        // Restart twice: the second recovers from a line whose big field
        // is itself a reference adopted from a recovered manifest.
        for ckpt in [2u64, 3] {
            let pipe = new_attempt();
            let mut state = TrackedState::recover(&pipe, ckpt - 1).unwrap();
            assert_eq!(*state.big, blob(3, 40_000));
            state.iter = ckpt;
            state.tail[0] ^= 0xFF;
            let enc = state.against(&pipe);
            assert_eq!(enc.clean_len(), big_len, "line {ckpt}");
            commit_line(&pipe, ckpt, enc);
            let stats = pipe.stats();
            assert_eq!(stats.bytes_clean, big_len as u64);
            // Cut, hashed and written: the header and tail, not the field.
            assert!(stats.chunks_written <= 4, "{stats:?}");
            let read =
                store.get_rank_blob(ckpt, 0, RankBlobKind::State).unwrap();
            assert_eq!(read, state.plain(), "line {ckpt}");
        }
        state.iter = 3;
        state.tail[0] = blob(1, 1)[0];
        let line3 = state.plain();

        // A manifest another chunker cut (straight through the parts)
        // and one naming the whole blob as one chunk adopt nothing, and
        // still recover.
        let mut foreign = ckptstore::Manifest::for_blob(&line3);
        let mut chunks = Vec::new();
        for piece in line3.chunks(300) {
            let chunk = ChunkRef::for_piece(piece);
            chunks.push((chunk.key(), ckptstore::seal(piece)));
            foreign.chunks.push(chunk);
        }
        store.put_chunks(&chunks).unwrap();
        store
            .put_rank_manifest(4, 0, RankBlobKind::State, &foreign)
            .unwrap();
        store
            .put_rank_blob(5, 0, RankBlobKind::State, &line3)
            .unwrap();
        for ckpt in [4u64, 5] {
            let pipe = new_attempt();
            let state = TrackedState::recover(&pipe, ckpt).unwrap();
            assert_eq!(state.plain(), line3);
            let base = pipe.clean_base(0, RankBlobKind::State);
            assert!(base.unwrap().clean.is_empty(), "line {ckpt}");
            assert_eq!(state.against(&pipe).clean_len(), 0);
        }
    }

    /// Accepts every put and keeps nothing, so the only live bytes are
    /// the write path's own.
    struct Sink;
    impl StorageBackend for Sink {
        fn put(&self, _: &str, _: &[u8]) -> ckptstore::StoreResult<()> {
            Ok(())
        }
        fn get(&self, key: &str) -> ckptstore::StoreResult<Vec<u8>> {
            Err(ckptstore::StoreError::Missing(key.to_owned()))
        }
        fn contains(&self, _: &str) -> ckptstore::StoreResult<bool> {
            Ok(false)
        }
        fn delete(&self, _: &str) -> ckptstore::StoreResult<()> {
            Ok(())
        }
        fn list(&self, _: &str) -> ckptstore::StoreResult<Vec<String>> {
            Ok(Vec::new())
        }
        fn bytes_written(&self) -> u64 {
            0
        }
    }

    #[test]
    fn writing_a_fresh_blob_holds_one_batch_beside_it() {
        let pipe = CheckpointPipeline::new(
            CheckpointStore::new(Arc::new(Sink), 1),
            PipelineConfig::default().with_mode(WriteMode::Sync),
        );
        // 4 MiB of `f64`s, every chunk distinct: all fresh, all stored
        // encoded (each tried three times in the same reused buffers).
        let fresh: Vec<u8> = (0..512 * 1024)
            .flat_map(|i| (1.0 + i as f64).sqrt().to_le_bytes())
            .collect();
        let chunks = Chunker::default().cut(&fresh).count() as u64;
        // The blob is live from here on; the mark counts what joins it.
        let with_blob = crate::test_alloc::reset_peak();
        pipe.stage(1, 0, RankBlobKind::State, fresh).unwrap();
        let beside = crate::test_alloc::peak() - with_blob;
        assert_eq!(pipe.stats().chunks_written, chunks);
        // One batch of 64 sealed chunks of some 4 KiB and their keys; the
        // manifest's chunk list (grown by doubling), its encoding and the
        // line record: some 300 KiB together. A copy of every fresh
        // chunk, raw or sealed, would be 4 MiB more.
        assert!(
            beside <= 512 << 10,
            "the write held {beside} bytes beside its 4 MiB blob"
        );
    }

    #[test]
    fn writing_a_fresh_tracked_value_holds_one_window_and_batch_beside_it() {
        let pipe = CheckpointPipeline::new(
            CheckpointStore::new(Arc::new(Sink), 1),
            PipelineConfig::default().with_mode(WriteMode::Sync),
        );
        // A rank's 4 MiB block of `f64`s, tracked and not yet written.
        let block = Tracked::new(
            (0..512 * 1024)
                .map(|i| (1.0 + i as f64).sqrt())
                .collect::<Vec<f64>>(),
        );
        // The header's chunk, the block's and its run object.
        let mut plain = Encoder::new();
        plain.put_f64_slice(&block);
        let chunks = Chunker::default().cut(&plain.into_bytes()).count();
        // The value is live from here on; the mark counts what joins it.
        let with_value = crate::test_alloc::reset_peak();
        let mut enc =
            Encoder::against(pipe.clean_base(0, RankBlobKind::State));
        enc.put_u64(1);
        block.save_with(&mut enc, |v, enc| enc.put_f64_slice(v));
        pipe.stage(1, 0, RankBlobKind::State, enc).unwrap();
        let beside = crate::test_alloc::peak() - with_value;
        assert_eq!(pipe.stats().chunks_written, chunks as u64 + 2);
        // One 64 KiB window, one batch of 64 sealed chunks, the manifest,
        // the run object and the line record. Encoding the value into the
        // blob first would hold 4 MiB more.
        assert!(
            beside <= 512 << 10,
            "the write held {beside} bytes beside its 4 MiB value"
        );
    }

    #[test]
    fn a_value_mutated_in_flight_is_written_as_it_was_staged() {
        // Every put and get waits 20 ms: the line is still being written
        // when the rank mutates the value.
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FaultInjectingBackend::new(
                Arc::new(MemoryBackend::new()),
                FaultPlan::none().latency(20, 0, 1),
            ));
        let pipe = CheckpointPipeline::new(
            CheckpointStore::new(backend, 1),
            PipelineConfig::default().with_mode(WriteMode::Async {
                writers: 1,
                queue_depth: 4,
            }),
        );
        let mut state = TrackedState {
            iter: 1,
            big: Tracked::new(blob(3, 40_000)),
            tail: blob(1, 700),
        };
        let line1 = state.plain();
        let before: *const Vec<u8> = &*state.big;
        pipe.stage(1, 0, RankBlobKind::State, state.against(&pipe))
            .unwrap();
        // Copy-on-write: the staged line holds the value, so the write
        // below copies it and the line keeps the bytes it was given.
        state.big[17] ^= 0xFF;
        assert!(!std::ptr::eq(before, &*state.big), "the line held it");
        pipe.stage(1, 0, RankBlobKind::Log, b"log".to_vec())
            .unwrap();
        pipe.drain(1).unwrap();
        pipe.store().commit(1).unwrap();
        let read = pipe.store().get_rank_blob(1, 0, RankBlobKind::State);
        assert_eq!(read.unwrap(), line1);
        // The new version is a fresh part; the line after names it, and
        // the debug build re-encodes the value against that reference.
        for (ckpt, clean) in [(2u64, 0), (3, 8 + 40_000)] {
            let enc = state.against(&pipe);
            assert_eq!(enc.clean_len(), clean, "line {ckpt}");
            commit_line(&pipe, ckpt, enc);
            let read =
                pipe.store().get_rank_blob(ckpt, 0, RankBlobKind::State);
            assert_eq!(read.unwrap(), state.plain(), "line {ckpt}");
        }
    }

    #[test]
    fn a_fault_mid_stream_is_retried_and_a_permanent_one_surfaces_at_drain() {
        // 400 KB of noise: a hundred 4 KiB chunks, so the first batch of
        // 64 leaves while the value is still streaming.
        let mut seed = 7;
        let noise: Vec<u8> = (0..400_000)
            .map(|_| ckptstore::splitmix64(&mut seed) as u8)
            .collect();
        let write = |plan: FaultPlan| {
            let memory = Arc::new(MemoryBackend::new());
            let inject =
                Arc::new(FaultInjectingBackend::new(memory.clone(), plan));
            let pipe = CheckpointPipeline::new(
                CheckpointStore::new(inject.clone(), 1),
                PipelineConfig::default()
                    .with_mode(WriteMode::Async {
                        writers: 1,
                        queue_depth: 4,
                    })
                    .with_retry(RetryPolicy {
                        max_retries: 2,
                        backoff_base_ms: 0,
                    }),
            );
            let state = TrackedState {
                iter: 1,
                big: Tracked::new(noise.clone()),
                tail: Vec::new(),
            };
            pipe.stage(1, 0, RankBlobKind::State, state.against(&pipe))
                .unwrap();
            let drained = pipe.drain(1);
            let stored: Vec<(String, Vec<u8>)> = memory
                .list("")
                .unwrap()
                .into_iter()
                .map(|k| (k.clone(), memory.get(&k).unwrap()))
                .collect();
            (drained, stored, inject.faults_injected(), pipe.stats())
        };
        let (clean, stored, _, _) = write(FaultPlan::none());
        assert_eq!(clean.unwrap(), 1);
        let (once, stored_once, faults, stats) =
            write(FaultPlan::none().fail_n(1));
        assert_eq!(once.unwrap(), 1);
        assert_eq!((faults, stats.retries), (1, 1));
        assert_eq!(stored_once, stored, "the same keys and bytes");
        let (permanent, _, _, _) = write(FaultPlan::none().fail_n(1000));
        assert!(permanent.unwrap_err().is_transient());
    }

    #[test]
    fn a_blob_whose_base_line_was_swept_is_refused() {
        let (_, store) = mem_store(1);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default()
                .with_mode(WriteMode::Sync)
                .with_chunker(Chunker::cdc(256)),
        );
        let mut state = TrackedState {
            iter: 1,
            big: Tracked::new(blob(3, 4_000)),
            tail: Vec::new(),
        };
        commit_line(&pipe, 1, state.against(&pipe));
        // Encoded against line 1, but held back while lines 2 and 3 are
        // written with a different big field and line 1 is collected.
        let stale = state.against(&pipe);
        assert!(stale.clean_len() > 0);
        for ckpt in [2, 3] {
            *state.big = blob(ckpt as u8 + 9, 4_000);
            commit_line(&pipe, ckpt, state.against(&pipe));
        }
        let err = pipe.stage(4, 0, RankBlobKind::State, stale).unwrap_err();
        assert!(err.to_string().contains("garbage-collected"), "{err}");
        // Nothing of line 4 was written: no manifest names swept chunks.
        let m = store.get_rank_manifest(4, 0, RankBlobKind::State);
        assert!(m.unwrap().is_none());
        assert!(pipe.drain(4).is_err());
    }

    /// A `u8` that can change behind `&self`: what `Tracked` forbids.
    struct Leaky(std::sync::atomic::AtomicU8);

    impl ckptstore::SaveLoad for Leaky {
        fn save(&self, enc: &mut Encoder) {
            enc.put_u8(self.0.load(std::sync::atomic::Ordering::Relaxed));
        }
        fn load(
            dec: &mut ckptstore::Decoder<'_>,
        ) -> Result<Self, ckptstore::codec::CodecError> {
            dec.get_u8().map(|b| Leaky(b.into()))
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed without a new version")]
    fn mutation_behind_deref_trips_the_debug_cross_check() {
        let (_, store) = mem_store(1);
        let pipe = CheckpointPipeline::new(
            store,
            PipelineConfig::default().with_mode(WriteMode::Sync),
        );
        let leaky = Tracked::new(Leaky(1.into()));
        let mut enc = Encoder::new();
        enc.put(&leaky);
        commit_line(&pipe, 1, enc);
        leaky.0.store(2, std::sync::atomic::Ordering::Relaxed);
        let mut enc =
            Encoder::against(pipe.clean_base(0, RankBlobKind::State));
        enc.put(&leaky);
    }

    #[test]
    fn tier_drain_promotes_committed_checkpoints() {
        use ckptstore::{TierSpec, TieredBackend};
        let local = Arc::new(MemoryBackend::new());
        let partner = Arc::new(MemoryBackend::new());
        let global = Arc::new(MemoryBackend::new());
        let tiered = Arc::new(TieredBackend::new(
            vec![
                TierSpec::direct(local.clone()),
                TierSpec::partner(partner, 1),
                TierSpec::erasure(global, 2, 1),
            ],
            2,
        ));
        let store =
            CheckpointStore::new(tiered.clone() as Arc<dyn StorageBackend>, 2);
        let pipe = CheckpointPipeline::new(
            store.clone(),
            PipelineConfig::default().with_chunker(Chunker::cdc(256)),
        );
        let payloads = vec![blob(11, 1500), blob(12, 1500)];
        stage_full_checkpoint(&pipe, 1, &payloads);
        pipe.drain(1).unwrap();
        store.commit(1).unwrap();
        // Commit covers tier-local durability only; the mover promotes in
        // the background and flush waits for it.
        pipe.schedule_tier_drain(1);
        let done = pipe.flush_tier_drains();
        assert_eq!(done, vec![(1, 1), (1, 2)], "both lower tiers drained");
        assert_eq!(pipe.tier_drain_errors(), 0);
        // The local staging tier can now vanish entirely and every rank
        // blob is still served from a replica or reconstructed shards.
        tiered.wipe_tier(0).unwrap();
        for (rank, payload) in payloads.iter().enumerate() {
            assert_eq!(
                store.get_rank_blob(1, rank, RankBlobKind::State).unwrap(),
                *payload
            );
        }
        // Flushing with nothing queued is an empty no-op, not a hang.
        assert!(pipe.flush_tier_drains().is_empty());
    }

    #[test]
    fn many_ranks_stage_concurrently() {
        let (_, store) = mem_store(8);
        let pipe =
            CheckpointPipeline::new(store.clone(), PipelineConfig::default());
        std::thread::scope(|scope| {
            for rank in 0..8 {
                let pipe = pipe.clone();
                scope.spawn(move || {
                    pipe.stage(
                        1,
                        rank,
                        RankBlobKind::State,
                        blob(rank as u8, 5000),
                    )
                    .unwrap();
                    pipe.stage(1, rank, RankBlobKind::Log, vec![rank as u8])
                        .unwrap();
                });
            }
        });
        assert_eq!(pipe.drain(1).unwrap(), 16);
        store.commit(1).unwrap();
        for rank in 0..8 {
            assert_eq!(
                store.get_rank_blob(1, rank, RankBlobKind::State).unwrap(),
                blob(rank as u8, 5000)
            );
        }
    }
}

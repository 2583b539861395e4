//! The checkpoint write pipeline.
//!
//! One [`CheckpointPipeline`] is shared by every rank of a job (it is
//! cheaply clonable). Ranks call [`CheckpointPipeline::stage`] at
//! `potentialCheckpoint` / `finalizeLog` time with an owned byte blob and
//! return to computing; writer threads chunk, deduplicate, compress and
//! store the blob with retry on transient faults. The initiator calls
//! [`CheckpointPipeline::drain`] in phase 4 — the per-checkpoint
//! [`WriteTicket`] barrier — before `CheckpointStore::commit`, so the
//! two-phase commit invariant survives asynchrony: **no checkpoint is
//! committed while any of its blobs is still in flight**, and a crash
//! mid-write recovers from the previous committed checkpoint.
//!
//! What a write costs follows what changed. After each manifest put the
//! pipeline keeps a [`LineRecord`] of the `(rank, kind)` stream: the
//! stored form of every chunk address, and per tracked-value version
//! (`ckptstore::codec::Tracked`) the chunk run, length and CRC-32 it put
//! on storage. A rank takes that record with
//! [`CheckpointPipeline::clean_base`], encodes its next line against it,
//! and stages the resulting [`StagedBlob`], in which a tracked value the
//! record holds is a *clean reference* with no bytes. The writer names
//! the value's run object — its chunk list, stored once when the value
//! was written — in the new manifest and folds the CRC in
//! (`crc32_combine`); only the other parts are cut, hashed and looked
//! up. The store resolves runs back into the flat chunk list for every
//! reader. A restart keeps the arrangement:
//! [`CheckpointPipeline::adopt_line`] rebuilds the record, clean runs
//! included, from the manifest a rank recovered from and the places in
//! the recovered blob its tracked values were decoded from.
//!
//! GC counts rather than lists. The pipeline keeps a [`LiveIndex`] of
//! how many manifests on storage name each chunk and run object, noting
//! each manifest as it is put; a collection releases what the dead lines
//! named and deletes what nothing names any more. An attempt's first GC
//! builds the index with the store's listing sweep.
//!
//! A byte that does have to be written is touched once per purpose: one
//! CRC per chunk (the seal of a chunk stored raw *and* its share of the
//! part's and the blob's CRC), one hash, and one copy into the sealed
//! buffer the backend is handed. The codec tries each fresh piece three
//! times, as it is, as byte planes and as its residuals' planes, in
//! buffers the write reuses from chunk to chunk, and only the form it
//! keeps is copied out.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use bytes::Bytes;
use ckptstore::codec::{Encoder, Fresh, Part, TrackedSpan};
use ckptstore::integrity::{crc32, crc32_combine, seal, seal_with};
use ckptstore::manifest::{
    encode_run, AddrMap, ChunkRef, CleanRun, LineRecord, Manifest,
    RUN_MIN_CHUNKS,
};
use ckptstore::store::LiveIndex;
use ckptstore::{
    CheckpointStore, CkptId, Form, RankBlobKind, StoreError, StoreResult,
    Trials,
};

use crate::config::{PipelineConfig, WriteMode};

/// A blob as [`CheckpointPipeline::stage`] takes it: the bytes that were
/// produced, the parts that lay them out, the fresh tracked values the
/// writer streams, and the base line the clean references among the
/// parts resolve against. `Bytes` and `Vec<u8>` convert to one part with
/// no base; an [`Encoder`] built [`against`](Encoder::against) a
/// stream's [`CheckpointPipeline::clean_base`] converts to whatever it
/// recorded. The payload is refcounted, so a caller still holding a view
/// of it stages without a copy.
pub struct StagedBlob {
    bytes: Bytes,
    parts: Vec<Part>,
    fresh: Vec<Fresh>,
    base: Option<Arc<LineRecord>>,
}

impl StagedBlob {
    /// Bytes the parts stand for, and of them the bytes covered by clean
    /// references.
    fn lens(&self) -> (usize, usize) {
        self.parts.iter().fold((0, 0), |(all, clean), p| match *p {
            Part::Clean { len, .. } => (all + len, clean + len),
            Part::Bytes { len, .. } | Part::Fresh { len, .. } => {
                (all + len, clean)
            }
        })
    }
}

impl From<Bytes> for StagedBlob {
    fn from(bytes: Bytes) -> Self {
        StagedBlob {
            parts: vec![Part::Bytes {
                len: bytes.len(),
                version: None,
            }],
            bytes,
            fresh: Vec::new(),
            base: None,
        }
    }
}

impl From<Vec<u8>> for StagedBlob {
    fn from(bytes: Vec<u8>) -> Self {
        Bytes::from(bytes).into()
    }
}

impl From<Encoder<'_>> for StagedBlob {
    fn from(enc: Encoder<'_>) -> Self {
        let (bytes, parts, fresh, base) = enc.into_parts();
        StagedBlob {
            bytes: bytes.into(),
            parts,
            fresh,
            base,
        }
    }
}

/// What one blob write carries from piece to piece: fresh sealed chunks
/// not yet put, the addresses the blob already holds with their stored
/// lengths and forms, and the codec's buffers, reused from chunk to chunk.
#[derive(Default)]
struct Pieces {
    batch: Vec<(String, Vec<u8>)>,
    seen: AddrMap<(u32, Form)>,
    trials: Trials,
}

/// Fresh chunks leave a blob write for the backend this many at a time
/// (256 KiB of 4 KiB chunks): enough to amortize the backend's per-call
/// cost, small enough that a write never holds a second copy of its blob.
const PUT_BATCH: usize = 64;

/// One staged blob write.
struct Job {
    ckpt: CkptId,
    rank: usize,
    kind: RankBlobKind,
    blob: StagedBlob,
}

/// Per-checkpoint barrier state: how many staged blobs are still in
/// flight, and the first write error if any. The initiator's
/// [`CheckpointPipeline::drain`] waits on this before commit.
#[derive(Default)]
struct WriteTicket {
    staged: u64,
    outstanding: u64,
    error: Option<StoreError>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Cumulative pipeline counters (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Blobs accepted by `stage`.
    pub blobs_staged: u64,
    /// Raw bytes accepted by `stage`.
    pub bytes_staged: u64,
    /// Chunks physically written to storage.
    pub chunks_written: u64,
    /// Chunks skipped because an identical chunk was already stored.
    pub chunks_deduped: u64,
    /// Raw bytes the deduplicated chunks would have cost.
    pub bytes_deduped: u64,
    /// Of `bytes_staged`, the bytes that arrived as clean references:
    /// never serialized, CRC'd, cut or hashed (their chunks are counted
    /// in `chunks_deduped` / `bytes_deduped` too).
    pub bytes_clean: u64,
    /// Chunks stored in compressed form.
    pub chunks_compressed: u64,
    /// Retries performed after transient storage faults.
    pub retries: u64,
}

#[derive(Default)]
struct StatCells {
    blobs_staged: AtomicU64,
    bytes_staged: AtomicU64,
    chunks_written: AtomicU64,
    chunks_deduped: AtomicU64,
    bytes_deduped: AtomicU64,
    bytes_clean: AtomicU64,
    chunks_compressed: AtomicU64,
    retries: AtomicU64,
}

/// What the pipeline knows of the lines on storage, under one lock.
#[derive(Default)]
struct Lines {
    /// The most recent [`LineRecord`] per `(rank, kind)` stream: the
    /// fast-path dedup set and the base of clean references. Its `ckpt`
    /// lets [`CheckpointPipeline::gc_keeping`] drop records whose
    /// manifest was just collected, so dedup never trusts a chunk that
    /// only a dead checkpoint referenced.
    records: HashMap<(usize, u8), Arc<LineRecord>>,
    /// What GC collects by: every manifest on storage, counted. `None`
    /// until the attempt's first GC lists the store, and again after
    /// something may have left chunks no manifest names (a failed write,
    /// a splice).
    index: Option<LiveIndex>,
}

struct Shared {
    store: CheckpointStore,
    cfg: PipelineConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    tickets: Mutex<HashMap<CkptId, WriteTicket>>,
    drained: Condvar,
    // Keys accepted via `stage_once`, for duplicate suppression when a
    // respawned rank re-executes an attempt against this still-running
    // pipeline (localized recovery).
    staged_once: Mutex<HashSet<(CkptId, usize, RankBlobKind)>>,
    // Dedup misses fall back to `CheckpointStore::has_chunk`, which also
    // catches chunks written by earlier job attempts.
    lines: Mutex<Lines>,
    // Writer-vs-GC gate, holding the GC floor (the highest `keep` a GC
    // ran with). A blob write holds it shared from its first chunk probe
    // to its manifest put, so chunks and the manifest that makes them
    // live become visible to GC atomically; `gc_keeping` holds it
    // exclusively so the orphan sweep can neither delete a chunk a
    // writer just deduplicated against nor reap chunks whose manifest is
    // still in flight.
    gc_gate: RwLock<CkptId>,
    stats: StatCells,
    obs: Option<crate::obs::PipeObs>,
}

/// Joins the writer threads when the last pipeline clone drops, after
/// processing everything still queued (staged blobs are never silently
/// discarded — an uncommitted checkpoint's blobs are garbage-collected by
/// the store, not by losing writes).
struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handle to the job-wide checkpoint write pipeline. Clones share state;
/// each rank thread and the initiator hold one.
#[derive(Clone)]
pub struct CheckpointPipeline {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
}

impl CheckpointPipeline {
    /// Create a pipeline over `store`, spawning writer threads when the
    /// mode is asynchronous. It records into the registry the store was
    /// given ([`CheckpointStore::obs`]), if any.
    pub fn new(store: CheckpointStore, cfg: PipelineConfig) -> Self {
        let obs = store.obs().map(crate::obs::PipeObs::register);
        let shared = Arc::new(Shared {
            store,
            cfg,
            obs,
            queue: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            tickets: Mutex::new(HashMap::new()),
            drained: Condvar::new(),
            staged_once: Mutex::new(HashSet::new()),
            lines: Mutex::default(),
            gc_gate: RwLock::new(0),
            stats: StatCells::default(),
        });
        let mut handles = Vec::new();
        if let WriteMode::Async { writers, .. } = shared.cfg.mode {
            for _ in 0..writers.max(1) {
                let shared = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || worker_loop(&shared)));
            }
        }
        CheckpointPipeline {
            pool: Arc::new(WorkerPool {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
            }),
            shared,
        }
    }

    /// The store this pipeline writes through.
    pub fn store(&self) -> &CheckpointStore {
        &self.shared.store
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PipelineStats {
        let s = &self.shared.stats;
        PipelineStats {
            blobs_staged: s.blobs_staged.load(Ordering::Relaxed),
            bytes_staged: s.bytes_staged.load(Ordering::Relaxed),
            chunks_written: s.chunks_written.load(Ordering::Relaxed),
            chunks_deduped: s.chunks_deduped.load(Ordering::Relaxed),
            bytes_deduped: s.bytes_deduped.load(Ordering::Relaxed),
            bytes_clean: s.bytes_clean.load(Ordering::Relaxed),
            chunks_compressed: s.chunks_compressed.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
        }
    }

    /// Stage one rank blob of checkpoint `ckpt` for writing.
    ///
    /// Sync mode writes on the calling thread and returns the result.
    /// Async mode enqueues (blocking only when the queue is full) and
    /// returns immediately; write errors surface at [`Self::drain`].
    pub fn stage(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        blob: impl Into<StagedBlob>,
    ) -> StoreResult<()> {
        let timer =
            self.shared.obs.as_ref().map(|_| c3obs::Stopwatch::start());
        let res = self.stage_inner(ckpt, rank, kind, blob.into());
        if let (Some(o), Some(t)) = (self.shared.obs.as_ref(), timer) {
            o.stage_ns.record(t.elapsed_ns());
        }
        res
    }

    /// Stage one rank blob at most once per pipeline lifetime: a repeat
    /// call for a `(ckpt, rank, kind)` this pipeline already accepted is
    /// dropped, returning `false`. A respawned rank re-executing an
    /// attempt under localized recovery re-stages blobs its dead
    /// predecessor already handed to this (shared, still-running)
    /// pipeline; writing them again would double-count blobs at the
    /// drain barrier and spend write bandwidth on bit-identical bytes.
    pub fn stage_once(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        blob: impl Into<StagedBlob>,
    ) -> StoreResult<bool> {
        if !self
            .shared
            .staged_once
            .lock()
            .unwrap()
            .insert((ckpt, rank, kind))
        {
            return Ok(false);
        }
        match self.stage(ckpt, rank, kind, blob) {
            Ok(()) => Ok(true),
            Err(e) => {
                // The blob never entered the queue; let a retry re-stage.
                self.shared
                    .staged_once
                    .lock()
                    .unwrap()
                    .remove(&(ckpt, rank, kind));
                Err(e)
            }
        }
    }

    fn stage_inner(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        blob: StagedBlob,
    ) -> StoreResult<()> {
        let shared = &self.shared;
        let (staged, clean) = blob.lens();
        let (staged, clean) = (staged as u64, clean as u64);
        if let Some(o) = &shared.obs {
            o.staged_bytes.add(staged);
            o.clean_bytes.add(clean);
        }
        shared.stats.blobs_staged.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .bytes_staged
            .fetch_add(staged, Ordering::Relaxed);
        shared.stats.bytes_clean.fetch_add(clean, Ordering::Relaxed);
        {
            let mut tickets = shared.tickets.lock().unwrap();
            let t = tickets.entry(ckpt).or_default();
            t.staged += 1;
            t.outstanding += 1;
        }
        let job = Job {
            ckpt,
            rank,
            kind,
            blob,
        };
        match shared.cfg.mode {
            WriteMode::Sync => {
                // The ticket is updated either way so drain sees sync and
                // async writes identically; the caller additionally gets
                // the error directly (in sync mode the write *is* on the
                // rank's critical path).
                let res = shared.write_blob(&job);
                let done = res.as_ref().copied().map_err(clone_error);
                shared.complete_job(ckpt, done);
                res
            }
            WriteMode::Async { queue_depth, .. } => {
                let mut q = shared.queue.lock().unwrap();
                while q.jobs.len() >= queue_depth.max(1) && !q.shutdown {
                    q = shared.not_full.wait(q).unwrap();
                }
                if q.shutdown {
                    drop(q);
                    let msg = "checkpoint pipeline is shut down";
                    let e = StoreError::Commit(msg.into());
                    shared.complete_job(ckpt, Err(clone_error(&e)));
                    return Err(e);
                }
                q.jobs.push_back(job);
                drop(q);
                shared.not_empty.notify_one();
                Ok(())
            }
        }
    }

    /// The drain barrier: block until every blob staged for `ckpt` — by
    /// any rank — has reached storage, then retire the ticket. Returns
    /// the number of blobs drained; propagates the first write error (a
    /// transient fault that exhausted its retries, or a permanent one),
    /// in which case the initiator must not commit `ckpt`.
    pub fn drain(&self, ckpt: CkptId) -> StoreResult<u64> {
        let timer =
            self.shared.obs.as_ref().map(|_| c3obs::Stopwatch::start());
        let res = self.drain_inner(ckpt);
        if let (Some(o), Some(t)) = (self.shared.obs.as_ref(), timer) {
            o.drain_ns.record(t.elapsed_ns());
        }
        res
    }

    fn drain_inner(&self, ckpt: CkptId) -> StoreResult<u64> {
        let mut tickets = self.shared.tickets.lock().unwrap();
        loop {
            let t = tickets.entry(ckpt).or_default();
            // Wait for every in-flight writer even when an error has
            // already been recorded: retiring the ticket while a write
            // is still outstanding would let that writer's completion
            // resurrect it at count zero and underflow `outstanding`.
            if t.outstanding == 0 {
                let mut t = tickets.remove(&ckpt).expect("entry exists");
                return match t.error.take() {
                    Some(err) => Err(err),
                    None => Ok(t.staged),
                };
            }
            tickets = self.shared.drained.wait(tickets).unwrap();
        }
    }

    /// Garbage-collect through the pipeline: collect every line older
    /// than `keep` while no blob write is in flight.
    ///
    /// Calling the store's GC directly while background writers run is
    /// unsound: a writer that deduplicated against (or just wrote) a
    /// chunk whose referencing manifest is not yet on storage would see
    /// that chunk swept as an orphan, and the checkpoint later commits
    /// with a manifest naming a deleted chunk. The exclusive gate here
    /// serializes the sweep against each whole blob write, and line
    /// records of collected checkpoints' manifests are dropped so they
    /// cannot vouch for chunks the sweep removed. A blob already encoded
    /// against such a record still carries it; the raised floor makes its
    /// write fail instead.
    ///
    /// The collection counts instead of listing
    /// ([`CheckpointStore::gc_indexed`]): the pipeline's live index knows
    /// how many manifests name each chunk and run object, so a GC touches
    /// what the dead lines named. The attempt's first GC has no index and
    /// runs the store's listing sweep, which builds it.
    pub fn gc_keeping(&self, keep: CkptId) -> StoreResult<()> {
        let mut floor = self.shared.gc_gate.write().unwrap();
        *floor = (*floor).max(keep);
        let mut lines = self.shared.lines();
        let res = self.shared.store.gc_indexed(&mut lines.index, keep);
        lines.records.retain(|_, rec| rec.ckpt >= keep);
        res
    }

    /// Make the next GC list the store rather than count. A localized
    /// splice calls this: the rank it replaces may have died mid-write,
    /// with chunks on storage that no manifest names.
    pub fn relist_at_next_gc(&self) {
        self.shared.lines().index = None;
    }

    /// The record of the last line written on the `(rank, kind)` stream,
    /// for the rank to encode its next line against
    /// (`Encoder::against`). `None` — everything encodes as bytes — when
    /// the stream has no record: the first line of an attempt, a line
    /// still in flight, a record GC dropped.
    pub fn clean_base(
        &self,
        rank: usize,
        kind: RankBlobKind,
    ) -> Option<Arc<LineRecord>> {
        self.shared
            .lines()
            .records
            .get(&(rank, kind.tag()))
            .cloned()
    }

    /// Take the manifest a rank just recovered from as its stream's
    /// record, unless the stream already has one (a respawned incarnation
    /// meets its predecessor's). `spans` are where in the recovered blob
    /// the restored state's tracked values were decoded from and
    /// `chunk_crcs` what `CheckpointStore::get_rank_blob_crcs` returned
    /// with the blob: each span that starts and ends on chunk boundaries
    /// of the manifest (a value the writing line tracked does — cuts
    /// restart at every part) becomes a clean run under the decoded
    /// value's version, its CRC folded from its chunks', naming the run
    /// object the line stored for it. The first line
    /// after a restart then finds the whole restored state in the record:
    /// it neither encodes the tracked values nor probes the store for
    /// anything. A span that does not align is not adopted.
    pub fn adopt_line(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        chunk_crcs: &[u32],
        spans: &[TrackedSpan],
    ) -> StoreResult<()> {
        let shared = &self.shared;
        let slot = (rank, kind.tag());
        // Under the gate, like a write: a GC cannot collect the line
        // between the manifest read and the insert.
        let floor = shared.gc_gate.read().unwrap();
        if ckpt < *floor || shared.lines().records.contains_key(&slot) {
            return Ok(());
        }
        if let Some(m) = shared.store.get_rank_manifest(ckpt, rank, kind)? {
            let mut clean = HashMap::new();
            if chunk_crcs.len() == m.chunks.len() {
                for span in spans {
                    let Some(at) = m.run_at(span.offset, span.len) else {
                        continue;
                    };
                    // A value of several chunks is named by the run object
                    // its line stored; one stored without is not adopted.
                    let run = m.runs.iter().find(|r| r.chunks == at);
                    let run = run.map(|r| r.obj);
                    if run.is_none() && at.len() >= RUN_MIN_CHUNKS {
                        continue;
                    }
                    let chunks = m.chunks[at.clone()].to_vec();
                    let crc = chunks.iter().zip(&chunk_crcs[at]).fold(
                        0,
                        |crc, (chunk, &chunk_crc)| {
                            crc32_combine(crc, chunk_crc, chunk.len.into())
                        },
                    );
                    let run = CleanRun {
                        len: span.len,
                        crc,
                        chunks,
                        run,
                    };
                    clean.insert(span.version, Arc::new(run));
                }
            }
            let record = LineRecord::new(ckpt, &m, clean);
            shared
                .lines()
                .records
                .entry(slot)
                .or_insert_with(|| Arc::new(record));
        }
        Ok(())
    }

    /// Shut the pipeline down explicitly: finish every queued write and
    /// join the writer threads. Also happens
    /// automatically when the last clone drops.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    shared.not_full.notify_all();
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.not_empty.wait(q).unwrap();
            }
        };
        let result = shared.write_blob(&job);
        shared.complete_job(job.ckpt, result);
    }
}

impl Shared {
    /// Lock what the pipeline knows of the lines on storage.
    fn lines(&self) -> std::sync::MutexGuard<'_, Lines> {
        self.lines.lock().expect("pipeline lock poisoned")
    }

    fn complete_job(&self, ckpt: CkptId, result: StoreResult<()>) {
        let mut tickets = self.tickets.lock().unwrap();
        // `stage` registers the job before any writer can complete it,
        // and `drain` retires a ticket only once outstanding == 0, so
        // the ticket exists here. Tolerate (rather than resurrect) a
        // missing one: recreating it via or_default would decrement a
        // fresh counter from zero.
        if let Some(t) = tickets.get_mut(&ckpt) {
            t.outstanding = t.outstanding.saturating_sub(1);
            if let Err(err) = result {
                if t.error.is_none() {
                    t.error = Some(err);
                }
            }
        }
        drop(tickets);
        self.drained.notify_all();
    }

    fn write_blob(&self, job: &Job) -> StoreResult<()> {
        let timer = self.obs.as_ref().map(|_| c3obs::Stopwatch::start());
        let res = self.write_blob_inner(job);
        if res.is_err() {
            // It may have put chunks no manifest names: the next GC lists.
            self.lines().index = None;
        }
        if let (Some(o), Some(t)) = (self.obs.as_ref(), timer) {
            o.write_ns.record(t.elapsed_ns());
        }
        res
    }

    fn write_blob_inner(&self, job: &Job) -> StoreResult<()> {
        // Shared side of the writer-vs-GC gate: everything this write
        // stores (chunks, then the manifest that makes them live) lands
        // atomically with respect to `CheckpointPipeline::gc_keeping`.
        let floor = self.gc_gate.read().unwrap();
        let blob = &job.blob;
        let refused = |why: &str| {
            StoreError::Commit(format!(
                "checkpoint {} rank {} {:?} blob refused: {why}",
                job.ckpt, job.rank, job.kind
            ))
        };
        // A base below the GC floor vouches for chunks the sweep may have
        // deleted. The initiator starts a line only after the previous
        // one's commit and GC, so no job gets here.
        if blob.base.as_ref().is_some_and(|b| b.ckpt < *floor) {
            return Err(refused("its base line has been garbage-collected"));
        }
        let dedup_slot = (job.rank, job.kind.tag());
        let prev = blob
            .base
            .clone()
            .or_else(|| self.lines().records.get(&dedup_slot).cloned());

        // Part by part, in manifest order. A clean reference is resolved
        // from the base without touching bytes. Any other part is cut
        // (cuts restart at every part, so a tracked value's chunks do not
        // depend on what precedes it) and CRC'd, hashed and encoded chunk
        // by chunk on the thread writing the blob; a fresh value is
        // encoded from the value itself a window at a time. Fresh chunks
        // go out in bounded batches, so what a write holds beside the
        // blob itself is one batch and one window; `seen` catches
        // within-blob duplicates without a store probe or an encoding.
        let mut manifest = Manifest::default();
        let mut clean: HashMap<u64, Arc<CleanRun>> = HashMap::new();
        let mut pieces = Pieces::default();
        let mut fresh = blob.fresh.iter();
        let mut off = 0;
        for part in &blob.parts {
            let first = manifest.chunks.len();
            let mut crc = 0;
            let (len, version) = match *part {
                Part::Clean { version, len } => {
                    let run = blob
                        .base
                        .as_ref()
                        .and_then(|b| b.clean.get(&version))
                        .filter(|run| run.len == len)
                        .ok_or_else(|| {
                            refused("unresolvable clean reference")
                        })?;
                    manifest.chunks.extend_from_slice(&run.chunks);
                    manifest.push_run(first, run.run);
                    self.count_deduped(run.chunks.len(), len);
                    clean.insert(version, Arc::clone(run));
                    crc = run.crc;
                    (len, None)
                }
                Part::Bytes { len, version } => {
                    let bytes = &blob.bytes[off..off + len];
                    off += len;
                    let chunks = &mut manifest.chunks;
                    let prev = prev.as_deref();
                    self.write_pieces(
                        bytes,
                        true,
                        &mut crc,
                        prev,
                        chunks,
                        &mut pieces,
                    )?;
                    (len, version)
                }
                Part::Fresh { version, len } => {
                    let value = fresh
                        .next()
                        .ok_or_else(|| refused("a fresh part has no value"))?;
                    let chunks = &mut manifest.chunks;
                    let prev = prev.as_deref();
                    let streamed = self.stream_part(
                        value,
                        &mut crc,
                        prev,
                        chunks,
                        &mut pieces,
                    )?;
                    if streamed != len {
                        return Err(refused("a tracked value changed length"));
                    }
                    (len, Some(version))
                }
            };
            if let Some(version) = version {
                let chunks = manifest.chunks[first..].to_vec();
                let run = self.store_run(&chunks, &mut pieces)?;
                manifest.push_run(first, run);
                let run = CleanRun {
                    len,
                    crc,
                    chunks,
                    run,
                };
                clean.insert(version, Arc::new(run));
            }
            manifest.blob_crc =
                crc32_combine(manifest.blob_crc, crc, len as u64);
            manifest.total_len += len as u64;
        }
        self.put_chunk_batch(&mut pieces.batch)?;
        self.retrying(|| {
            self.store
                .put_rank_manifest(job.ckpt, job.rank, job.kind, &manifest)
        })?;
        // Noted under the gate, after the put: a GC counts the manifest
        // exactly when it can find it on storage.
        let record = Arc::new(LineRecord::new(job.ckpt, &manifest, clean));
        let mut lines = self.lines();
        lines.records.insert(dedup_slot, record);
        if let Some(index) = &mut lines.index {
            let key =
                CheckpointStore::manifest_key(job.ckpt, job.rank, job.kind);
            index.note(key, Some(&manifest));
        }
        Ok(())
    }

    /// Cut, CRC, hash and dedup `bytes`, the next stretch of one part:
    /// its chunk references go onto `chunks` in order, the sealed stored
    /// form of each chunk nothing vouches for onto the batch, which goes
    /// to the store whenever it reaches [`PUT_BATCH`]. Each piece's one
    /// CRC is folded into `crc` (the part's CRC-32) and also seals a
    /// chunk stored raw. Every piece is final but the last, which waits
    /// for the next stretch unless `last`; returns the bytes done with.
    /// The stored form is [`Form::encode`]'s choice, a pure
    /// function of the piece: dedup is first-writer-wins, so every writer
    /// has to agree on what a given piece is stored as.
    fn write_pieces(
        &self,
        bytes: &[u8],
        last: bool,
        crc: &mut u32,
        prev: Option<&LineRecord>,
        chunks: &mut Vec<ChunkRef>,
        pieces: &mut Pieces,
    ) -> StoreResult<usize> {
        let mut done = 0;
        let mut cut = self.cfg.chunker.cut(bytes).peekable();
        while let Some(piece) = cut.next() {
            if !last && cut.peek().is_none() {
                break;
            }
            let piece_crc = crc32(piece);
            *crc = crc32_combine(*crc, piece_crc, piece.len() as u64);
            if let Some(o) = &self.obs {
                o.chunk_bytes.record(piece.len() as u64);
            }
            let (chunk, fresh) =
                self.store_piece(piece, piece_crc, prev, pieces)?;
            if !fresh {
                self.count_deduped(1, piece.len());
            }
            chunks.push(chunk);
            done += piece.len();
        }
        Ok(done)
    }

    /// Write a fresh tracked value's part from the value itself: its
    /// encoding reaches [`Shared::write_pieces`] a window at a time, and
    /// the last piece of each window waits for the next, so the pieces
    /// are exactly those the whole encoding is cut into. Returns the
    /// encoding's length.
    fn stream_part(
        &self,
        value: &Fresh,
        crc: &mut u32,
        prev: Option<&LineRecord>,
        chunks: &mut Vec<ChunkRef>,
        pieces: &mut Pieces,
    ) -> StoreResult<usize> {
        let mut failed = Ok(0);
        let (tail, len) = value.stream(&mut |window: &[u8]| {
            if failed.is_ok() {
                failed = self
                    .write_pieces(window, false, crc, prev, chunks, pieces);
            }
            // After a failure the rest of the value is only let through.
            *failed.as_ref().unwrap_or(&window.len())
        });
        failed?;
        self.write_pieces(&tail, true, crc, prev, chunks, pieces)?;
        Ok(len)
    }

    /// The reference of one piece, stored unless something already holds
    /// it: the stream's previous line or this blob (both also know the
    /// stored form: no encoding, no probe), or the store (whose hit still
    /// needs the codec, to learn the form). Otherwise it is fresh: its
    /// key, formatted once, and its stored form, sealed, go onto `batch`,
    /// and the flag says so.
    fn store_piece(
        &self,
        piece: &[u8],
        piece_crc: u32,
        prev: Option<&LineRecord>,
        pieces: &mut Pieces,
    ) -> StoreResult<(ChunkRef, bool)> {
        let mut chunk = ChunkRef::for_piece(piece);
        let addr = chunk.addr();
        if let Some(&(stored_len, form)) = prev
            .and_then(|p| p.chunks.get(&addr))
            .or_else(|| pieces.seen.get(&addr))
        {
            chunk.stored_len = stored_len;
            chunk.form = form;
            return Ok((chunk, false));
        }
        let (form, stored) = Form::encode(piece, &mut pieces.trials);
        chunk.stored_len = stored.len() as u32;
        chunk.form = form;
        if let Some(o) = &self.obs {
            o.precompress_bytes.add(piece.len() as u64);
            o.postcompress_bytes.add(stored.len() as u64);
        }
        pieces.seen.insert(addr, (chunk.stored_len, form));
        let key = chunk.key();
        if self.store.has_chunk(&key)? {
            return Ok((chunk, false));
        }
        let sealed = if form == Form::Raw {
            seal_with(piece, piece_crc)
        } else {
            self.stats.chunks_compressed.fetch_add(1, Ordering::Relaxed);
            seal(stored)
        };
        if let Some(o) = &self.obs {
            o.dedup_misses.inc();
        }
        pieces.batch.push((key, sealed));
        if pieces.batch.len() >= PUT_BATCH {
            self.put_chunk_batch(&mut pieces.batch)?;
        }
        Ok((chunk, true))
    }

    /// The run object naming a tracked part's `chunks`, stored as a piece
    /// of its own unless something already holds it; `None` below
    /// [`RUN_MIN_CHUNKS`], where the manifest names the chunks directly.
    fn store_run(
        &self,
        chunks: &[ChunkRef],
        pieces: &mut Pieces,
    ) -> StoreResult<Option<ChunkRef>> {
        if chunks.len() < RUN_MIN_CHUNKS {
            return Ok(None);
        }
        let bytes = encode_run(chunks);
        let crc = crc32(&bytes);
        let (obj, _) = self.store_piece(&bytes, crc, None, pieces)?;
        Ok(Some(obj))
    }

    /// Account `chunks` chunks of `bytes` raw bytes as not written.
    fn count_deduped(&self, chunks: usize, bytes: usize) {
        self.stats
            .chunks_deduped
            .fetch_add(chunks as u64, Ordering::Relaxed);
        self.stats
            .bytes_deduped
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.dedup_hits.add(chunks as u64);
        }
    }

    /// Store the batch of fresh sealed chunks and empty it: one `put_many`
    /// round-trip on the happy path. A transient batch failure falls back
    /// to per-chunk retried puts rather than retrying the whole batch —
    /// under an injected per-key fault rate `p`, a batch of `n` fails with
    /// probability `1 - (1-p)^n`, so whole-batch retry could spin
    /// near-forever while per-chunk retry converges. Chunk puts are
    /// idempotent (content-addressed, immutable), so re-putting the
    /// prefix the failed batch already landed is harmless.
    fn put_chunk_batch(
        &self,
        batch: &mut Vec<(String, Vec<u8>)>,
    ) -> StoreResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        match self.store.put_chunks(batch) {
            Ok(()) => {}
            Err(e) if e.is_transient() => {
                // The fallback is the batch's retry: count it as one.
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &self.obs {
                    o.retries.inc();
                }
                for chunk in batch.iter() {
                    let one = std::slice::from_ref(chunk);
                    self.retrying(|| self.store.put_chunks(one))?;
                }
            }
            Err(e) => return Err(e),
        }
        self.stats
            .chunks_written
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch.clear();
        Ok(())
    }

    fn retrying<T>(&self, op: impl Fn() -> StoreResult<T>) -> StoreResult<T> {
        let mut attempt: u32 = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e)
                    if e.is_transient()
                        && attempt < self.cfg.retry.max_retries =>
                {
                    let delay = self.cfg.retry.delay_ms(attempt);
                    attempt += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &self.obs {
                        o.retries.inc();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(
                        delay,
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

// `StoreError` is not `Clone` (it can wrap `std::io::Error`); sync-mode
// staging needs the outcome both on the ticket and in the caller's hands.
fn clone_error(e: &StoreError) -> StoreError {
    match e {
        StoreError::Missing(k) => StoreError::Missing(k.clone()),
        StoreError::Corrupt { key, detail } => StoreError::Corrupt {
            key: key.clone(),
            detail: detail.clone(),
        },
        StoreError::Io(io) => {
            StoreError::Io(std::io::Error::new(io.kind(), io.to_string()))
        }
        StoreError::Commit(m) => StoreError::Commit(m.clone()),
        StoreError::Transient(m) => StoreError::Transient(m.clone()),
    }
}

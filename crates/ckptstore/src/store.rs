//! Two-phase global-checkpoint commit over a [`StorageBackend`].
//!
//! The paper's protocol (Section 4.1) ends with the initiator recording "on
//! stable storage that the checkpoint that was just created is the one to be
//! used for recovery". This module is that record-keeping:
//!
//! * **Phase A** — each rank writes its local blobs (state snapshot at
//!   `potentialCheckpoint` time; message/non-determinism log at
//!   `finalizeLog` time) under the checkpoint number.
//! * **Phase B** — after every rank has reported `stoppedLogging`, the
//!   initiator calls [`CheckpointStore::commit`], which validates that all
//!   rank blobs exist and writes a single `COMMIT` record.
//!
//! Recovery restarts from [`CheckpointStore::latest_recoverable`], the
//! newest checkpoint with a `COMMIT` record. A checkpoint whose creation
//! was interrupted by a failure has no `COMMIT` record and is invisible,
//! so the job falls back to the previous committed checkpoint (or a
//! from-scratch restart).

use std::collections::HashMap;
use std::sync::Arc;

use crate::backend::StorageBackend;
use crate::codec::{decode_exact, encode};
use crate::error::{StoreError, StoreResult};
use crate::integrity::{
    crc32, crc32_combine, hash128, seal_vec, seal_with, unseal_crc,
};
use crate::manifest::{
    chunk_key, decode_run, parse_chunk_key, AddrMap, ChunkRef, Manifest,
};

/// Global checkpoint number. Checkpoint `n` separates epoch `n-1` from epoch
/// `n` in the paper's terminology; the start of the program acts as an
/// implicit committed checkpoint 0.
pub type CkptId = u64;

/// The categories of per-rank blob a checkpoint is made of. The
/// discriminants are the kinds' [`tag`](RankBlobKind::tag)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RankBlobKind {
    /// Application + protocol-layer snapshot taken at `potentialCheckpoint`.
    /// Present for every rank in a committable checkpoint.
    State = 0,
    /// The log written between the local checkpoint and `finalizeLog`: late
    /// messages, non-deterministic decisions, collective-call results.
    Log = 1,
    /// Record/replay journal for persistent MPI opaque objects (Section 5.2).
    MpiObjects = 2,
}

impl RankBlobKind {
    fn as_str(self) -> &'static str {
        match self {
            RankBlobKind::State => "state",
            RankBlobKind::Log => "log",
            RankBlobKind::MpiObjects => "mpi",
        }
    }

    /// The kind as one stable byte: 0 = state, 1 = log, 2 = MPI objects.
    /// The `BlobStaged` trace record carries it on the wire.
    pub fn tag(self) -> u8 {
        self as u8
    }
}

/// Metadata stored in a `COMMIT` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committed checkpoint number.
    pub ckpt: CkptId,
    /// Number of ranks participating in the checkpoint.
    pub nranks: usize,
}

crate::impl_saveload_struct!(CommitRecord {
    ckpt: CkptId,
    nranks: usize,
});

/// Extra attempts [`CheckpointStore::commit`] gives the commit-marker
/// put when the backend reports a transient fault. Matches the
/// pipeline's default data-put retry budget.
const COMMIT_PUT_RETRIES: usize = 4;

/// Commit-layer view of stable storage shared by all ranks of a job.
///
/// Cloning is cheap (the backend is shared); each rank thread holds a clone.
#[derive(Clone)]
pub struct CheckpointStore {
    backend: Arc<dyn StorageBackend>,
    nranks: usize,
    obs: Option<c3obs::Registry>,
}

impl CheckpointStore {
    /// Create a store for a job with `nranks` processes.
    pub fn new(backend: Arc<dyn StorageBackend>, nranks: usize) -> Self {
        assert!(nranks > 0, "a job has at least one rank");
        CheckpointStore {
            backend,
            nranks,
            obs: None,
        }
    }

    /// The number of ranks this store validates commits against.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Rewrap the backend in an [`crate::obs::ObservedBackend`] so every
    /// put/get through this store (and its future clones) records
    /// latency and byte metrics into `reg`. Pass-through accounting
    /// (`bytes_written`) still reaches the original backend.
    pub fn attach_obs(&mut self, reg: &c3obs::Registry) {
        self.backend = Arc::new(crate::obs::ObservedBackend::new(
            Arc::clone(&self.backend),
            reg,
        ));
        self.obs = Some(reg.clone());
    }

    /// The registry [`Self::attach_obs`] attached, if any: a write
    /// pipeline over this store records into it too.
    pub fn obs(&self) -> Option<&c3obs::Registry> {
        self.obs.as_ref()
    }

    /// Key of the manifest of a rank blob, under the checkpoint directory
    /// so GC scopes it naturally. Every rank blob is a manifest naming
    /// content-addressed chunks.
    pub fn manifest_key(
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
    ) -> String {
        format!("ckpt/{ckpt:08}/rank{rank}/{}.m", kind.as_str())
    }

    fn commit_key(ckpt: CkptId) -> String {
        format!("ckpt/{ckpt:08}/COMMIT")
    }

    /// Phase A: persist one rank blob for checkpoint `ckpt` as a manifest
    /// naming the whole blob as one raw chunk, through the puts the write
    /// pipeline makes: the sealed chunk, then the manifest. The pipeline
    /// cuts, deduplicates and compresses where this stores the bytes as
    /// they are; it is the direct form, for writing a line by hand.
    pub fn put_rank_blob(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        bytes: &[u8],
    ) -> StoreResult<()> {
        let mut manifest = Manifest::for_blob(bytes);
        if !bytes.is_empty() {
            let chunk = ChunkRef::for_piece(bytes);
            self.put_chunks(&[(
                chunk.key(),
                seal_with(bytes, manifest.blob_crc),
            )])?;
            manifest.chunks.push(chunk);
        }
        self.put_rank_manifest(ckpt, rank, kind, &manifest)
    }

    /// Fetch one rank blob of a checkpoint (recovery path), reassembled
    /// from its manifest and chunk set (chunks may have been written by
    /// any older checkpoint) and validated: corruption surfaces as
    /// [`StoreError::Corrupt`], never as wrong bytes.
    pub fn get_rank_blob(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
    ) -> StoreResult<Vec<u8>> {
        self.get_rank_blob_crcs(ckpt, rank, kind)
            .map(|(blob, _)| blob)
    }

    /// [`Self::get_rank_blob`], also yielding the CRC-32 of each chunk's
    /// raw bytes as reassembly verified it, in manifest order. A restart
    /// hands these back to the write pipeline with the spans it wants to
    /// keep by reference (`ckptpipe::CheckpointPipeline::adopt_line`), so
    /// no recovered byte is CRC'd a second time.
    pub fn get_rank_blob_crcs(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
    ) -> StoreResult<(Vec<u8>, Vec<u32>)> {
        let key = Self::manifest_key(ckpt, rank, kind);
        match self.read_manifest(&key)? {
            Some(manifest) => self.reassemble(&key, &manifest),
            None => Err(StoreError::Missing(key)),
        }
    }

    fn reassemble(
        &self,
        manifest_key: &str,
        manifest: &Manifest,
    ) -> StoreResult<(Vec<u8>, Vec<u32>)> {
        // Reserve the exact blob length up front and decode every chunk
        // straight into it — recovery of a large blob costs one output
        // allocation, not one temporary per chunk. Chunks stored as
        // planes or predicted planes pass through one scratch buffer,
        // reused.
        let mut blob = Vec::with_capacity(manifest.total_len as usize);
        let mut crcs = Vec::with_capacity(manifest.chunks.len());
        let mut scratch = Vec::new();
        let mut blob_crc = 0;
        for chunk in &manifest.chunks {
            let crc = self.get_chunk_into(chunk, &mut blob, &mut scratch)?;
            blob_crc = crc32_combine(blob_crc, crc, u64::from(chunk.len));
            crcs.push(crc);
        }
        // End-to-end check over the reassembled blob: per-chunk CRCs
        // cannot catch ordering bugs or a manifest naming wrong chunks.
        // The blob's CRC is folded from the CRCs of the chunks' raw bytes,
        // each verified or computed a moment ago, in the order they were
        // appended — the same value a pass over `blob` would give.
        if blob.len() as u64 != manifest.total_len
            || blob_crc != manifest.blob_crc
        {
            return Err(StoreError::Corrupt {
                key: manifest_key.to_owned(),
                detail: "reassembled blob fails whole-blob CRC".into(),
            });
        }
        Ok((blob, crcs))
    }

    /// True if the given rank blob's manifest exists.
    pub fn has_rank_blob(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
    ) -> StoreResult<bool> {
        self.backend.contains(&Self::manifest_key(ckpt, rank, kind))
    }

    /// Persist the chunk manifest of a rank blob. A committed checkpoint
    /// is immutable: its manifests are refused.
    pub fn put_rank_manifest(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        manifest: &Manifest,
    ) -> StoreResult<()> {
        if self.is_committed(ckpt)? {
            return Err(StoreError::Commit(format!(
                "checkpoint {ckpt} is already committed; rank {rank} may not \
                 modify it"
            )));
        }
        self.backend.put(
            &Self::manifest_key(ckpt, rank, kind),
            &seal_vec(manifest.encode()),
        )
    }

    /// Read back a rank blob's chunk manifest, its runs resolved; `None`
    /// means the blob was not written.
    pub fn get_rank_manifest(
        &self,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
    ) -> StoreResult<Option<Manifest>> {
        self.read_manifest(&Self::manifest_key(ckpt, rank, kind))
    }

    /// Read the manifest under `key` and resolve its run entries: each run
    /// object is fetched and verified like a chunk, its entries must sum
    /// to what the manifest says it covers, and its chunks are spliced in
    /// place. Every reader of a manifest — reassembly, a restart's
    /// adoption, GC — sees the flat chunk list.
    fn read_manifest(&self, key: &str) -> StoreResult<Option<Manifest>> {
        let sealed = match self.backend.get(key) {
            Ok(b) => b,
            Err(StoreError::Missing(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let corrupt = |key, detail| StoreError::Corrupt { key, detail };
        let payload = crate::integrity::unseal(&sealed).ok_or_else(|| {
            corrupt(key.into(), "CRC-32 integrity check failed".into())
        })?;
        let (mut m, runs) = Manifest::decode(payload)
            .map_err(|e| corrupt(key.into(), e.to_string()))?;
        let direct = std::mem::take(&mut m.chunks);
        let mut next = 0;
        for (at, obj, len) in runs {
            m.chunks.extend_from_slice(&direct[next..at]);
            next = at;
            let named = decode_run(&self.get_chunk(&obj)?, len)
                .map_err(|e| corrupt(obj.key(), e.to_string()))?;
            let first = m.chunks.len();
            m.chunks.extend(named);
            m.push_run(first, Some(obj));
        }
        m.chunks.extend_from_slice(&direct[next..]);
        Ok(Some(m))
    }

    /// The manifest under `key` as GC reads it: `None` also when it or a
    /// run it names does not resolve — that blob is already
    /// unrecoverable, so it names nothing.
    fn manifest_at(&self, key: &str) -> StoreResult<Option<Manifest>> {
        match self.read_manifest(key) {
            Err(StoreError::Corrupt { .. } | StoreError::Missing(_)) => {
                Ok(None)
            }
            other => other,
        }
    }

    /// Store content-addressed chunks through one
    /// [`StorageBackend::put_many`] call. Each item is a chunk's key
    /// ([`ChunkRef::key`]) and its stored representation (encoded in the
    /// chunk's form, raw for [`Form::Raw`](crate::compress::Form::Raw))
    /// *already sealed* — the writer builds that buffer once and nothing
    /// copies it again on the way to the backend. Chunks are immutable and
    /// shared across checkpoints, so re-putting an existing chunk is
    /// harmless (same key, same content), and so is the prefix a failed
    /// batch leaves behind.
    pub fn put_chunks(&self, sealed: &[(String, Vec<u8>)]) -> StoreResult<()> {
        self.backend.put_many(sealed)
    }

    /// True if a chunk is already stored under `key` (the dedup test).
    pub fn has_chunk(&self, key: &str) -> StoreResult<bool> {
        self.backend.contains(key)
    }

    /// Fetch and validate one chunk, returning its raw (decoded) bytes.
    pub fn get_chunk(&self, chunk: &ChunkRef) -> StoreResult<Vec<u8>> {
        let mut out = Vec::with_capacity(chunk.len as usize);
        self.get_chunk_into(chunk, &mut out, &mut Vec::new())?;
        Ok(out)
    }

    /// Fetch and validate one chunk, appending its raw bytes to `out`
    /// (the zero-temporary reassembly path, `scratch` reused by every
    /// chunk stored as planes or predicted planes) and returning their
    /// CRC-32: the seal's, just verified, when the chunk is stored raw, a
    /// pass over the decoded bytes otherwise. On error `out` is restored
    /// to its original length.
    fn get_chunk_into(
        &self,
        chunk: &ChunkRef,
        out: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> StoreResult<u32> {
        let key = chunk.key();
        let corrupt = |detail: &str| StoreError::Corrupt {
            key: key.clone(),
            detail: detail.into(),
        };
        let sealed = self.backend.get(&key)?;
        let (stored, stored_crc) = unseal_crc(&sealed)
            .ok_or_else(|| corrupt("CRC-32 integrity check failed"))?;
        let (start, len) = (out.len(), chunk.len as usize);
        // On failure the decoder leaves `out` as it was.
        let decoded = chunk.form.decode_into(stored, len, out, scratch);
        decoded.ok_or_else(|| corrupt("chunk decode failed"))?;
        let raw = &out[start..];
        if raw.len() as u32 != chunk.len || hash128(raw) != chunk.hash {
            out.truncate(start);
            return Err(corrupt("chunk content disagrees with its address"));
        }
        Ok(if chunk.compressed() {
            crc32(raw)
        } else {
            stored_crc
        })
    }

    /// Phase B: atomically mark checkpoint `ckpt` as the recovery line.
    ///
    /// Fails if any rank is missing its `State` or `Log` blob (the protocol
    /// guarantees both are written before `stoppedLogging` is sent) or if the
    /// checkpoint is already committed.
    pub fn commit(&self, ckpt: CkptId) -> StoreResult<()> {
        if self.is_committed(ckpt)? {
            return Err(StoreError::Commit(format!(
                "checkpoint {ckpt} is already committed"
            )));
        }
        for rank in 0..self.nranks {
            for kind in [RankBlobKind::State, RankBlobKind::Log] {
                if !self.has_rank_blob(ckpt, rank, kind)? {
                    return Err(StoreError::Commit(format!(
                        "cannot commit checkpoint {ckpt}: rank {rank} has no \
                         {} blob",
                        kind.as_str()
                    )));
                }
            }
        }
        let record = CommitRecord {
            ckpt,
            nranks: self.nranks,
        };
        // The commit marker gets the same transient-fault discipline as
        // data puts (which the pipeline retries): a glitch on this one
        // small write must not abandon a fully staged, validated line.
        let bytes = encode(&record);
        let key = Self::commit_key(ckpt);
        let mut last = None;
        for _ in 0..=COMMIT_PUT_RETRIES {
            match self.backend.put(&key, &bytes) {
                Err(e) if e.is_transient() => last = Some(e),
                other => return other,
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    /// True if `ckpt` has a `COMMIT` record.
    pub fn is_committed(&self, ckpt: CkptId) -> StoreResult<bool> {
        self.backend.contains(&Self::commit_key(ckpt))
    }

    /// Read back a commit record (validates it decodes and matches `ckpt`).
    pub fn commit_record(&self, ckpt: CkptId) -> StoreResult<CommitRecord> {
        let key = Self::commit_key(ckpt);
        let bytes = self.backend.get(&key)?;
        let rec: CommitRecord = decode_exact(&bytes, "commit record")
            .map_err(|e| StoreError::Corrupt {
                key: key.clone(),
                detail: e.to_string(),
            })?;
        if rec.ckpt != ckpt {
            return Err(StoreError::Corrupt {
                key,
                detail: format!(
                    "commit record names checkpoint {}, expected {ckpt}",
                    rec.ckpt
                ),
            });
        }
        Ok(rec)
    }

    /// The highest committed checkpoint number, if any. This is the
    /// recovery line: restart loads exactly this checkpoint's blobs.
    /// Commit validated every rank's blobs, and nothing deletes a
    /// committed line's blobs but GC, which keeps this one.
    pub fn latest_recoverable(&self) -> StoreResult<Option<CkptId>> {
        let keys = self.backend.list("ckpt/")?;
        Ok(keys.iter().filter_map(|k| Self::parse_commit_key(k)).max())
    }

    fn parse_commit_key(key: &str) -> Option<CkptId> {
        let rest = key.strip_prefix("ckpt/")?;
        let (num, tail) = rest.split_once('/')?;
        if tail != "COMMIT" {
            return None;
        }
        num.parse().ok()
    }

    /// Delete every blob of every checkpoint older than `keep`, plus any
    /// *uncommitted* checkpoint older than the latest committed one. Called
    /// by the initiator after a successful commit, mirroring the paper's
    /// assumption that only the latest global checkpoint is retained.
    ///
    /// Chunks are refcounted through manifests: a chunk referenced by any
    /// surviving checkpoint (id ≥ `keep`, committed or still being
    /// written) is retained even if it was first written by a checkpoint
    /// being collected; chunks no surviving manifest references are
    /// deleted. A run object a surviving manifest names survives, and so
    /// do the chunks it names.
    ///
    /// This is the listing sweep: every `ckpt/` and `chunk/` key is
    /// listed and every surviving manifest read. The pipeline counts
    /// instead ([`Self::gc_indexed`]) and sweeps only to start counting.
    ///
    /// **Concurrency**: the orphan sweep can only see chunks whose
    /// referencing manifest is already on storage. Callers with
    /// background writers in flight (the async I/O pipeline) must
    /// serialize GC against whole blob writes — use
    /// `ckptpipe::CheckpointPipeline::gc_keeping`, which wraps this
    /// under the pipeline's writer-vs-GC gate — or a freshly written /
    /// deduplicated chunk may be swept before its manifest lands.
    pub fn gc_keeping(&self, keep: CkptId) -> StoreResult<()> {
        let keys = self.backend.list("ckpt/")?;
        self.sweep_listed(keys, |id| id >= keep).map(drop)
    }

    /// [`Self::gc_keeping`] by a [`LiveIndex`]: delete the dead lines'
    /// keys (`ckpt/` listed once), release what their manifests and any
    /// overwritten one named, and delete what no manifest names any more;
    /// no `chunk/` listing, no manifest read. With no index, or when the
    /// listing shows a manifest it has not noted, this is the listing
    /// sweep — which also collects chunks a killed attempt put without a
    /// manifest — and `index` becomes what the sweep found. An error
    /// after the listing leaves `index` `None`, so the next call lists
    /// again.
    ///
    /// **Concurrency**: as [`Self::gc_keeping`]; besides, the index must
    /// have noted every manifest put since it was built.
    pub fn gc_indexed(
        &self,
        index: &mut Option<LiveIndex>,
        keep: CkptId,
    ) -> StoreResult<()> {
        let keys = self.backend.list("ckpt/")?;
        let noted = |ix: &LiveIndex| {
            keys.iter()
                .all(|k| !k.ends_with(".m") || ix.manifests.contains_key(k))
        };
        let Some(mut ix) = index.take().filter(noted) else {
            *index = Some(self.sweep_listed(keys, |id| id >= keep)?);
            return Ok(());
        };
        for key in &keys {
            if Self::parse_ckpt_id(key).is_some_and(|id| id < keep) {
                self.backend.delete(key)?;
            }
        }
        let mut gone = std::mem::take(&mut ix.released);
        ix.manifests.retain(|key, named| {
            let live = Self::parse_ckpt_id(key).is_some_and(|id| id >= keep);
            if !live {
                gone.append(named);
            }
            live
        });
        let mut dead = Vec::new();
        ix.release(gone, &mut dead);
        for (hash, len) in dead {
            self.backend.delete(&chunk_key(hash, len))?;
        }
        *index = Some(ix);
        Ok(())
    }

    /// Delete every listed `ckpt/` key of the lines `live` rejects, then
    /// every chunk and run object the surviving manifests do not name.
    /// Returns the [`LiveIndex`] of what survives.
    fn sweep_listed(
        &self,
        keys: Vec<String>,
        live: impl Fn(CkptId) -> bool,
    ) -> StoreResult<LiveIndex> {
        let mut index = LiveIndex::default();
        for key in keys {
            let Some(id) = Self::parse_ckpt_id(&key) else {
                continue;
            };
            if !live(id) {
                self.backend.delete(&key)?;
            } else if key.ends_with(".m") {
                let manifest = self.manifest_at(&key)?;
                index.note(key, manifest.as_ref());
            }
        }
        // Drop orphaned chunks and runs — and anything under `chunk/`
        // that is not a chunk key, which no manifest can name.
        for key in self.backend.list("chunk/")? {
            let live = parse_chunk_key(&key)
                .is_some_and(|addr| index.refs.contains_key(&addr));
            if !live {
                self.backend.delete(&key)?;
            }
        }
        Ok(index)
    }

    fn parse_ckpt_id(key: &str) -> Option<CkptId> {
        let rest = key.strip_prefix("ckpt/")?;
        let (num, _) = rest.split_once('/')?;
        num.parse().ok()
    }
}

/// A chunk's or run object's content address `(hash128, len)`.
type Addr = (u128, u32);

/// How many manifests on storage name each chunk and run object (a run's
/// own chunks counted once while it is named): the live set, counted
/// instead of listed. [`CheckpointStore::gc_indexed`] builds one with a
/// listing sweep and collects by it; the writer notes every manifest it
/// puts.
#[derive(Default)]
pub struct LiveIndex {
    refs: AddrMap<u32>,
    /// Each named run's chunk addresses.
    runs: AddrMap<Vec<Addr>>,
    /// What each noted manifest, by key, names itself.
    manifests: HashMap<String, Vec<Addr>>,
    /// What overwritten manifests named, released by the next collection.
    released: Vec<Addr>,
}

impl LiveIndex {
    /// Count the manifest just put under `key`
    /// ([`CheckpointStore::manifest_key`]); `None` notes one that names
    /// nothing. What a manifest it overwrote named is released by the
    /// next collection.
    pub fn note(&mut self, key: String, manifest: Option<&Manifest>) {
        let mut named = Vec::new();
        if let Some(m) = manifest {
            let mut next = 0;
            for run in &m.runs {
                let before = &m.chunks[next..run.chunks.start];
                named.extend(before.iter().map(ChunkRef::addr));
                named.push(run.obj.addr());
                if !self.runs.contains_key(&run.obj.addr()) {
                    let chunks: Vec<Addr> = m.chunks[run.chunks.clone()]
                        .iter()
                        .map(ChunkRef::addr)
                        .collect();
                    for &addr in &chunks {
                        *self.refs.entry(addr).or_default() += 1;
                    }
                    self.runs.insert(run.obj.addr(), chunks);
                }
                next = run.chunks.end;
            }
            named.extend(m.chunks[next..].iter().map(ChunkRef::addr));
        }
        for &addr in &named {
            *self.refs.entry(addr).or_default() += 1;
        }
        if let Some(old) = self.manifests.insert(key, named) {
            self.released.extend(old);
        }
    }

    /// Drop one reference to each of `addrs`, pushing every address no
    /// longer named onto `dead` (a dead run's chunks lose its reference).
    fn release(&mut self, addrs: Vec<Addr>, dead: &mut Vec<Addr>) {
        for addr in addrs {
            let Some(count) = self.refs.get_mut(&addr) else {
                continue;
            };
            *count -= 1;
            if *count == 0 {
                self.refs.remove(&addr);
                if let Some(chunks) = self.runs.remove(&addr) {
                    self.release(chunks, dead);
                }
                dead.push(addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::compress::{Form, Trials};
    use crate::manifest::encode_run;

    fn store(nranks: usize) -> CheckpointStore {
        CheckpointStore::new(Arc::new(MemoryBackend::new()), nranks)
    }

    fn write_full_checkpoint(s: &CheckpointStore, ckpt: CkptId) {
        for r in 0..s.nranks() {
            s.put_rank_blob(ckpt, r, RankBlobKind::State, b"state")
                .unwrap();
            s.put_rank_blob(ckpt, r, RankBlobKind::Log, b"log").unwrap();
        }
    }

    #[test]
    fn commit_retries_a_transient_marker_fault() {
        // Regression (found by ftfuzz seed 6): a transient storage
        // fault on the COMMIT-marker put abandoned a fully staged,
        // validated line. Each key's first put fails once; blob staging
        // retries by re-calling, and commit must retry internally.
        let inject = Arc::new(crate::FaultInjectingBackend::new(
            Arc::new(MemoryBackend::new()),
            crate::FaultPlan::none().fail_key_once(),
        ));
        let s = CheckpointStore::new(inject.clone(), 1);
        for kind in [RankBlobKind::State, RankBlobKind::Log] {
            while s.put_rank_blob(1, 0, kind, b"x").is_err() {}
        }
        s.commit(1).unwrap();
        assert!(s.is_committed(1).unwrap());
        assert!(inject.faults_injected() > 0, "faults must have fired");
    }

    #[test]
    fn commit_requires_all_rank_blobs() {
        let s = store(3);
        s.put_rank_blob(5, 0, RankBlobKind::State, b"s").unwrap();
        s.put_rank_blob(5, 0, RankBlobKind::Log, b"l").unwrap();
        // Ranks 1 and 2 have not checkpointed: commit must fail.
        let err = s.commit(5).unwrap_err();
        assert!(matches!(err, StoreError::Commit(_)), "{err}");
        assert!(!s.is_committed(5).unwrap());

        write_full_checkpoint(&s, 5);
        s.commit(5).unwrap();
        assert!(s.is_committed(5).unwrap());
        assert_eq!(
            s.commit_record(5).unwrap(),
            CommitRecord { ckpt: 5, nranks: 3 }
        );
    }

    #[test]
    fn double_commit_is_rejected() {
        let s = store(1);
        write_full_checkpoint(&s, 1);
        s.commit(1).unwrap();
        assert!(s.commit(1).is_err());
    }

    #[test]
    fn committed_checkpoints_are_immutable() {
        let s = store(1);
        write_full_checkpoint(&s, 1);
        s.commit(1).unwrap();
        let err = s
            .put_rank_blob(1, 0, RankBlobKind::State, b"tampered")
            .unwrap_err();
        assert!(matches!(err, StoreError::Commit(_)));
        assert_eq!(
            s.get_rank_blob(1, 0, RankBlobKind::State).unwrap(),
            b"state"
        );
    }

    #[test]
    fn latest_committed_ignores_partial_checkpoints() {
        let s = store(2);
        assert_eq!(s.latest_recoverable().unwrap(), None);

        write_full_checkpoint(&s, 1);
        s.commit(1).unwrap();
        assert_eq!(s.latest_recoverable().unwrap(), Some(1));

        // Checkpoint 2 is interrupted: rank 1 never writes. Recovery must
        // still name checkpoint 1.
        s.put_rank_blob(2, 0, RankBlobKind::State, b"s").unwrap();
        s.put_rank_blob(2, 0, RankBlobKind::Log, b"l").unwrap();
        assert_eq!(s.latest_recoverable().unwrap(), Some(1));

        write_full_checkpoint(&s, 3);
        s.commit(3).unwrap();
        assert_eq!(s.latest_recoverable().unwrap(), Some(3));
    }

    #[test]
    fn gc_drops_older_checkpoints_only() {
        let s = store(1);
        for ckpt in [1, 2, 3] {
            write_full_checkpoint(&s, ckpt);
            s.commit(ckpt).unwrap();
        }
        s.gc_keeping(3).unwrap();
        assert!(!s.is_committed(1).unwrap());
        assert!(!s.is_committed(2).unwrap());
        assert!(s.is_committed(3).unwrap());
        assert!(s.get_rank_blob(3, 0, RankBlobKind::State).is_ok());
        assert!(s.get_rank_blob(2, 0, RankBlobKind::State).is_err());
    }

    #[test]
    fn corrupted_blob_is_detected_on_read() {
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        s.put_rank_blob(1, 0, RankBlobKind::State, b"snapshot")
            .unwrap();
        // Flip one byte behind the store's back (bit rot / torn write).
        let key = "ckpt/00000001/rank0/state.m";
        let mut raw = backend.get(key).unwrap();
        raw[3] ^= 0x40;
        backend.put(key, &raw).unwrap();
        let err = s.get_rank_blob(1, 0, RankBlobKind::State).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
    }

    #[test]
    fn mpi_objects_blob_is_optional_for_commit() {
        let s = store(1);
        write_full_checkpoint(&s, 1);
        s.put_rank_blob(1, 0, RankBlobKind::MpiObjects, b"calls")
            .unwrap();
        s.commit(1).unwrap();
        assert_eq!(
            s.get_rank_blob(1, 0, RankBlobKind::MpiObjects).unwrap(),
            b"calls"
        );
    }

    /// Store one chunk's stored representation, sealing it.
    fn put_chunk(s: &CheckpointStore, chunk: &ChunkRef, stored: &[u8]) {
        assert_eq!(stored.len() as u32, chunk.stored_len);
        s.put_chunks(&[(chunk.key(), crate::integrity::seal(stored))])
            .unwrap();
    }

    /// Write an incremental (manifest + chunks) blob: the raw bytes are
    /// cut into `chunk_size` pieces, each stored content-addressed.
    fn put_incremental(
        s: &CheckpointStore,
        ckpt: CkptId,
        rank: usize,
        kind: RankBlobKind,
        blob: &[u8],
        chunk_size: usize,
    ) {
        let mut manifest = Manifest::for_blob(blob);
        for piece in blob.chunks(chunk_size.max(1)) {
            let chunk = ChunkRef::for_piece(piece);
            if !s.has_chunk(&chunk.key()).unwrap() {
                put_chunk(s, &chunk, piece);
            }
            manifest.chunks.push(chunk);
        }
        s.put_rank_manifest(ckpt, rank, kind, &manifest).unwrap();
    }

    /// Write rank 0's blob of 64-byte chunks naming chunks `first..`
    /// through one run object, as the pipeline stores a tracked value's.
    fn put_with_run(
        s: &CheckpointStore,
        ckpt: CkptId,
        kind: RankBlobKind,
        blob: &[u8],
        first: usize,
    ) -> Manifest {
        let mut m = Manifest::for_blob(blob);
        for piece in blob.chunks(64) {
            let chunk = ChunkRef::for_piece(piece);
            put_chunk(s, &chunk, piece);
            m.chunks.push(chunk);
        }
        let run = encode_run(&m.chunks[first..]);
        let obj = ChunkRef::for_piece(&run);
        put_chunk(s, &obj, &run);
        m.push_run(first, Some(obj));
        s.put_rank_manifest(ckpt, 0, kind, &m).unwrap();
        m
    }

    /// The sorted keys of the chunks and run objects `manifests` name.
    fn keys_of(manifests: &[&Manifest]) -> Vec<String> {
        let mut keys: Vec<String> = manifests
            .iter()
            .flat_map(|m| m.chunks.iter().chain(m.runs.iter().map(|r| &r.obj)))
            .map(ChunkRef::key)
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    #[test]
    fn gc_follows_runs_listing_and_counting() {
        // Each line is a chunk of its own and a run of two chunks that
        // lines 1 and 2 share, and a log every line shares. The GC at line
        // 2 lists and builds the index; the one at line 3 counts.
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        let blob = |head: u8, run: u8| [[head; 64], [run; 64], [!run; 64]];
        let log = Manifest {
            chunks: vec![ChunkRef::for_piece(b"l")],
            ..Manifest::default()
        };
        let mut lines = Vec::new();
        let mut index = None;
        for (ckpt, head, run) in
            [(1, 0xA0, 0xB0), (2, 0xA1, 0xB0), (3, 0xA2, 0xC0)]
        {
            let blob = blob(head, run).concat();
            let m = put_with_run(&s, ckpt, RankBlobKind::State, &blob, 1);
            s.put_rank_blob(ckpt, 0, RankBlobKind::Log, b"l").unwrap();
            s.commit(ckpt).unwrap();
            let read = s.get_rank_manifest(ckpt, 0, RankBlobKind::State);
            assert_eq!(read.unwrap().as_ref(), Some(&m));
            assert_eq!(
                s.get_rank_blob(ckpt, 0, RankBlobKind::State).unwrap(),
                blob
            );
            let key =
                CheckpointStore::manifest_key(ckpt, 0, RankBlobKind::State);
            if let Some(ix) = index.as_mut() {
                LiveIndex::note(ix, key, Some(&m));
            }
            lines.push(m);
            if ckpt >= 2 {
                s.gc_indexed(&mut index, ckpt).unwrap();
                assert_eq!(
                    backend.list("chunk/").unwrap(),
                    keys_of(&[&lines[ckpt as usize - 1], &log])
                );
            }
        }
        assert!(backend
            .list("ckpt/")
            .unwrap()
            .iter()
            .all(|k| k.starts_with("ckpt/00000003/")));
        // A manifest overwritten before the next GC: what it named is
        // released then, what its successor names stays.
        let ix = index.as_mut().unwrap();
        let key = CheckpointStore::manifest_key(4, 0, RankBlobKind::State);
        let state = RankBlobKind::State;
        let old = put_with_run(&s, 4, state, &blob(0xA3, 0xD0).concat(), 1);
        ix.note(key.clone(), Some(&old));
        let new = put_with_run(&s, 4, state, &blob(0xA4, 0xC0).concat(), 1);
        ix.note(key, Some(&new));
        s.gc_indexed(&mut index, 3).unwrap();
        let live = keys_of(&[&lines[2], &new, &log]);
        assert_eq!(backend.list("chunk/").unwrap(), live);
        // It is what the listing sweep leaves.
        s.gc_keeping(3).unwrap();
        assert_eq!(backend.list("chunk/").unwrap(), live);
    }

    #[test]
    fn a_line_naming_a_run_reads_exactly_or_as_corrupt() {
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        let blob: Vec<u8> = (0..256u32).map(|i| (i * 7 % 251) as u8).collect();
        let m = put_with_run(&s, 1, RankBlobKind::State, &blob, 1);
        let read = || s.get_rank_blob(1, 0, RankBlobKind::State);
        assert_eq!(read().unwrap(), blob);
        // Every truncation and every bit and byte flip of the sealed
        // manifest and of the stored run object.
        let manifest_key =
            CheckpointStore::manifest_key(1, 0, RankBlobKind::State);
        for key in [manifest_key, m.runs[0].obj.key()] {
            let good = backend.get(&key).unwrap();
            let mut bad: Vec<Vec<u8>> =
                (0..good.len()).map(|n| good[..n].to_vec()).collect();
            for i in 0..good.len() {
                for flip in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                    let mut v = good.clone();
                    v[i] ^= flip;
                    bad.push(v);
                }
            }
            for v in bad {
                backend.put(&key, &v).unwrap();
                match read() {
                    Ok(got) => assert_eq!(got, blob, "{key}"),
                    Err(e) => assert!(
                        matches!(e, StoreError::Corrupt { .. }),
                        "{key}: {e}"
                    ),
                }
            }
            backend.put(&key, &good).unwrap();
        }
        // Sealed and addressed consistently, and still corrupt: a run
        // naming a run, entries not summing to what the manifest says,
        // and a count the object cannot hold.
        let run = encode_run(&m.chunks[1..]);
        let mut nested = run.clone();
        nested[8 + 24] |= 0x80;
        let short = encode_run(&m.chunks[1..3]);
        let mut counted = run.clone();
        counted[..8].copy_from_slice(&(m.chunks.len() as u64).to_le_bytes());
        for bytes in [nested, short, counted] {
            let mut forged = m.clone();
            forged.runs[0].obj = ChunkRef::for_piece(&bytes);
            put_chunk(&s, &forged.runs[0].obj, &bytes);
            s.put_rank_manifest(1, 0, RankBlobKind::State, &forged)
                .unwrap();
            let err = read().unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        }
        // GC names nothing for a line it cannot resolve, and goes on.
        s.put_rank_blob(1, 0, RankBlobKind::Log, b"l").unwrap();
        s.commit(1).unwrap();
        s.gc_keeping(1).unwrap();
    }

    #[test]
    fn incremental_blob_round_trips_through_manifest() {
        let s = store(1);
        let blob: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        put_incremental(&s, 1, 0, RankBlobKind::State, &blob, 64);
        assert!(s.has_rank_blob(1, 0, RankBlobKind::State).unwrap());
        assert_eq!(s.get_rank_blob(1, 0, RankBlobKind::State).unwrap(), blob);
        assert!(s
            .get_rank_manifest(1, 0, RankBlobKind::State)
            .unwrap()
            .is_some());
    }

    /// 256-byte pieces the LZ4 codec stores in every form: noise raw,
    /// byte runs as plain LZ4, `f64`s that share their high bytes but not
    /// their low ones as planes, a smooth `f64` field as predicted planes.
    fn pieces_in_every_form() -> [Vec<u8>; 4] {
        let mut seed = 0x5701E;
        let noise: Vec<u8> = (0..256)
            .map(|_| crate::splitmix64(&mut seed) as u8)
            .collect();
        [
            noise.clone(),
            (0..256)
                .map(|i| [7u8, 7, 9, (i / 64) as u8][i % 4])
                .collect(),
            noise
                .chunks(8)
                .flat_map(|l| {
                    let low = u64::from_le_bytes(l.try_into().unwrap());
                    (1.0 + (low >> 40) as f64 / 2f64.powi(44)).to_le_bytes()
                })
                .collect(),
            (0..32)
                .flat_map(|i| (0.1 * f64::from(i)).sin().to_le_bytes())
                .collect(),
        ]
    }

    /// Store `piece` in the form [`Form::encode`] picks for it.
    fn put_encoded(
        s: &CheckpointStore,
        piece: &[u8],
        trials: &mut Trials,
    ) -> ChunkRef {
        let (form, stored) = Form::encode(piece, trials);
        let mut chunk = ChunkRef::for_piece(piece);
        chunk.stored_len = stored.len() as u32;
        chunk.form = form;
        put_chunk(s, &chunk, stored);
        chunk
    }

    #[test]
    fn chunks_round_trip_through_every_codec() {
        let s = store(1);
        let mut trials = Trials::default();
        let mut forms = Vec::new();
        for piece in pieces_in_every_form() {
            let chunk = put_encoded(&s, &piece, &mut trials);
            assert_eq!(s.get_chunk(&chunk).unwrap(), piece, "{chunk:?}");
            forms.push(chunk.form);
        }
        let all = [Form::Raw, Form::Lz4, Form::Lz4Planes, Form::Lz4Predicted];
        assert_eq!(forms, all);
    }

    #[test]
    fn put_chunks_batches_and_each_chunk_reads_back() {
        let s = store(1);
        let pieces: Vec<Vec<u8>> =
            (0..16u8).map(|i| vec![i; 100 + i as usize]).collect();
        let chunks: Vec<ChunkRef> =
            pieces.iter().map(|p| ChunkRef::for_piece(p)).collect();
        let batch: Vec<(String, Vec<u8>)> = chunks
            .iter()
            .zip(&pieces)
            .map(|(c, p)| (c.key(), crate::integrity::seal(p)))
            .collect();
        s.put_chunks(&batch).unwrap();
        for (chunk, piece) in chunks.iter().zip(&pieces) {
            assert!(s.has_chunk(&chunk.key()).unwrap());
            assert_eq!(s.get_chunk(chunk).unwrap(), *piece);
        }
        assert!(s.put_chunks(&[]).is_ok());
    }

    #[test]
    fn reassembly_allocates_a_constant_number_per_chunk() {
        const CHUNKS: u64 = 256;
        let s = store(1);
        // A blob stored as 256 chunks of 256 bytes in all four forms,
        // three quarters of them LZ4 over the bytes, their planes or
        // their residuals' planes, so the test covers every decode-into
        // path, not just raw copies.
        let pieces = pieces_in_every_form();
        let blob: Vec<u8> = pieces
            .iter()
            .cycle()
            .take(CHUNKS as usize)
            .flatten()
            .copied()
            .collect();
        let mut manifest = Manifest::for_blob(&blob);
        let mut trials = Trials::default();
        for piece in blob.chunks(256) {
            manifest.chunks.push(put_encoded(&s, piece, &mut trials));
        }
        let count =
            |form| manifest.chunks.iter().filter(|c| c.form == form).count();
        assert_eq!(count(Form::Lz4Predicted), 64);
        assert_eq!(count(Form::Lz4Planes), 64);
        assert_eq!(count(Form::Lz4), 64);
        s.put_rank_manifest(1, 0, RankBlobKind::State, &manifest)
            .unwrap();

        let before = crate::test_alloc::allocations();
        let got = s.get_rank_blob(1, 0, RankBlobKind::State).unwrap();
        let allocs = crate::test_alloc::allocations() - before;
        assert_eq!(got, blob);
        // Per chunk the read path allocates the key string and the
        // backend's returned copy; decoding appends into the single
        // pre-reserved output buffer. Anything per-chunk beyond that
        // (e.g. a temporary decompression buffer) busts this budget.
        assert!(
            allocs <= 3 * CHUNKS + 64,
            "reassembly made {allocs} allocations for {CHUNKS} chunks"
        );
    }

    #[test]
    fn commit_accepts_manifest_backed_blobs() {
        let s = store(2);
        for r in 0..2 {
            put_incremental(&s, 1, r, RankBlobKind::State, &[9u8; 300], 100);
            s.put_rank_blob(1, r, RankBlobKind::Log, b"log").unwrap();
        }
        s.commit(1).unwrap();
        // Committed checkpoints are immutable through the manifest path
        // too.
        let manifest = Manifest::for_blob(b"");
        assert!(matches!(
            s.put_rank_manifest(1, 0, RankBlobKind::State, &manifest)
                .unwrap_err(),
            StoreError::Commit(_)
        ));
    }

    #[test]
    fn corrupt_chunk_is_detected_on_reassembly() {
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        let blob = vec![5u8; 200];
        put_incremental(&s, 1, 0, RankBlobKind::State, &blob, 50);
        // Corrupt one chunk behind the store's back.
        let chunk_keys = backend.list("chunk/").unwrap();
        let mut raw = backend.get(&chunk_keys[0]).unwrap();
        raw[0] ^= 0x01;
        backend.put(&chunk_keys[0], &raw).unwrap();
        assert!(matches!(
            s.get_rank_blob(1, 0, RankBlobKind::State).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn manifest_naming_wrong_chunk_fails_whole_blob_crc() {
        let s = store(1);
        // Two blobs with the same chunk *sizes* but different content.
        put_incremental(&s, 1, 0, RankBlobKind::State, &[1u8; 100], 50);
        // Hand-build a manifest that claims blob "A" but lists a chunk of
        // blob "B" in the wrong position: swap the two (identical, so use
        // different halves) — simplest: manifest with chunks reversed.
        let m = s.get_rank_manifest(1, 0, RankBlobKind::State).unwrap();
        let mut m = m.unwrap();
        // Splice in a chunk from another blob with matching length.
        let other = [2u8; 50];
        let chunk = ChunkRef::for_piece(&other);
        put_chunk(&s, &chunk, &other);
        m.chunks[0] = chunk;
        s.put_rank_manifest(1, 0, RankBlobKind::State, &m).unwrap();
        assert!(matches!(
            s.get_rank_blob(1, 0, RankBlobKind::State).unwrap_err(),
            StoreError::Corrupt { .. },
        ));
    }

    fn corrupt_detail(err: StoreError) -> String {
        match err {
            StoreError::Corrupt { detail, .. } => detail,
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn swapped_equal_length_chunks_fail_whole_blob_crc() {
        // Every chunk is intact and at an address the manifest names, so
        // only the folded whole-blob CRC can see the order is wrong.
        let s = store(1);
        let blob = [[1u8; 50], [2u8; 50], [3u8; 50]].concat();
        put_incremental(&s, 1, 0, RankBlobKind::State, &blob, 50);
        let m = s.get_rank_manifest(1, 0, RankBlobKind::State).unwrap();
        let mut m = m.unwrap();
        m.chunks.swap(0, 2);
        s.put_rank_manifest(1, 0, RankBlobKind::State, &m).unwrap();
        let err = s.get_rank_blob(1, 0, RankBlobKind::State).unwrap_err();
        assert!(corrupt_detail(err).contains("whole-blob CRC"));
    }

    #[test]
    fn consistently_rewritten_chunk_fails_the_address_check() {
        // Payload and trailer rewritten together: the seal verifies, the
        // content no longer hashes to the key it sits under.
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        put_incremental(&s, 1, 0, RankBlobKind::State, &[5u8; 200], 50);
        let key = ChunkRef::for_piece(&[5u8; 50]).key();
        backend
            .put(&key, &crate::integrity::seal(&[6u8; 50]))
            .unwrap();
        let err = s.get_rank_blob(1, 0, RankBlobKind::State).unwrap_err();
        assert!(corrupt_detail(err).contains("address"));
    }

    #[test]
    fn manifest_naming_the_retired_codec_id_is_corrupt() {
        // Codec id 1 is retired: a sealed manifest that names it is as
        // corrupt as one that names no codec at all, never a panic.
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        put_incremental(&s, 1, 0, RankBlobKind::State, &[4u8; 100], 50);
        s.put_rank_blob(1, 0, RankBlobKind::Log, b"l").unwrap();
        s.commit(1).unwrap();
        let key = CheckpointStore::manifest_key(1, 0, RankBlobKind::State);
        let sealed = backend.get(&key).unwrap();
        let mut payload = crate::integrity::unseal(&sealed).unwrap().to_vec();
        // The last chunk's codec id is the manifest's last byte.
        *payload.last_mut().unwrap() = 1;
        backend.put(&key, &seal_vec(payload)).unwrap();
        let err = s.get_rank_blob(1, 0, RankBlobKind::State).unwrap_err();
        assert!(corrupt_detail(err).contains("codec"));
        // GC skips the undecodable manifest instead of failing.
        s.gc_keeping(1).unwrap();
    }

    #[test]
    fn gc_sweeps_keys_under_chunk_that_name_no_address() {
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        put_incremental(&s, 1, 0, RankBlobKind::State, &[7u8; 64], 64);
        s.put_rank_blob(1, 0, RankBlobKind::Log, b"l").unwrap();
        s.commit(1).unwrap();
        let live = ChunkRef::for_piece(&[7u8; 64]).key();
        // Not a chunk key, and a second spelling of the live address.
        let strays = ["chunk/garbage".to_owned(), live.to_uppercase()];
        for key in &strays {
            backend.put(&key.replace("CHUNK", "chunk"), b"x").unwrap();
        }
        s.gc_keeping(1).unwrap();
        let mut want = [live, ChunkRef::for_piece(b"l").key()];
        want.sort();
        assert_eq!(backend.list("chunk/").unwrap(), want);
    }

    /// Satellite coverage for manifest-aware GC: (a) chunks shared with
    /// the kept checkpoint survive, (b) orphaned chunks are deleted,
    /// (c) recovery from the kept checkpoint still round-trips.
    fn gc_refcounting_on(backend: Arc<dyn StorageBackend>) {
        let s = CheckpointStore::new(backend.clone(), 1);
        // Checkpoint 1: blob of two chunks [A, B].
        let mut blob1 = vec![0xAAu8; 64];
        blob1.extend_from_slice(&[0xBBu8; 64]);
        put_incremental(&s, 1, 0, RankBlobKind::State, &blob1, 64);
        s.put_rank_blob(1, 0, RankBlobKind::Log, b"log1").unwrap();
        s.commit(1).unwrap();
        // Checkpoint 2 shares chunk A, replaces B with C. Each log is a
        // chunk of its own.
        let mut blob2 = vec![0xAAu8; 64];
        blob2.extend_from_slice(&[0xCCu8; 64]);
        put_incremental(&s, 2, 0, RankBlobKind::State, &blob2, 64);
        s.put_rank_blob(2, 0, RankBlobKind::Log, b"log2").unwrap();
        s.commit(2).unwrap();
        assert_eq!(backend.list("chunk/").unwrap().len(), 5);

        s.gc_keeping(2).unwrap();
        let chunks_after = backend.list("chunk/").unwrap();
        // (a) shared chunk A, live chunk C and the live log survive;
        // (b) orphan B and the first log are gone.
        assert_eq!(chunks_after.len(), 3, "kept {chunks_after:?}");
        let b_chunk = ChunkRef::for_piece(&[0xBBu8; 64]);
        assert!(
            !s.has_chunk(&b_chunk.key()).unwrap(),
            "orphan chunk not GCed"
        );
        // (c) recovery from the kept checkpoint round-trips.
        assert_eq!(s.latest_recoverable().unwrap(), Some(2));
        assert_eq!(s.get_rank_blob(2, 0, RankBlobKind::State).unwrap(), blob2);
        assert_eq!(s.get_rank_blob(2, 0, RankBlobKind::Log).unwrap(), b"log2");
        // The collected checkpoint is fully gone.
        assert!(!s.is_committed(1).unwrap());
        assert!(s.get_rank_blob(1, 0, RankBlobKind::State).is_err());
    }

    #[test]
    fn gc_refcounts_chunks_memory_backend() {
        gc_refcounting_on(Arc::new(MemoryBackend::new()));
    }

    #[test]
    fn gc_refcounts_chunks_disk_backend() {
        let dir = std::env::temp_dir()
            .join(format!("ckptstore-gcref-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        gc_refcounting_on(Arc::new(
            crate::backend::DiskBackend::new(&dir).unwrap(),
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_keeps_chunks_of_uncommitted_newer_checkpoints() {
        // A checkpoint still being written (id > keep) must not lose its
        // chunks when the initiator GCs after committing `keep`.
        let s = store(1);
        put_incremental(&s, 1, 0, RankBlobKind::State, &[1u8; 64], 64);
        s.put_rank_blob(1, 0, RankBlobKind::Log, b"l1").unwrap();
        s.commit(1).unwrap();
        put_incremental(&s, 2, 0, RankBlobKind::State, &[2u8; 64], 64);
        s.put_rank_blob(2, 0, RankBlobKind::Log, b"l2").unwrap();
        s.commit(2).unwrap();
        // Checkpoint 3 is in flight (manifest written, not committed)
        // when the initiator GCs after committing 2.
        put_incremental(&s, 3, 0, RankBlobKind::State, &[3u8; 64], 64);
        s.gc_keeping(2).unwrap();
        assert_eq!(
            s.get_rank_blob(3, 0, RankBlobKind::State).unwrap(),
            vec![3u8; 64]
        );
        assert_eq!(
            s.get_rank_blob(2, 0, RankBlobKind::State).unwrap(),
            vec![2u8; 64]
        );
        assert!(s.get_rank_blob(1, 0, RankBlobKind::State).is_err());
    }

    #[test]
    fn corrupt_commit_record_is_reported() {
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        backend.put("ckpt/00000007/COMMIT", &[1, 2]).unwrap();
        assert!(matches!(
            s.commit_record(7).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn truncated_commit_record_is_corrupt() {
        // A record that ends inside `nranks`.
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 2);
        let mut bytes = encode(&CommitRecord { ckpt: 4, nranks: 2 });
        bytes.pop();
        backend.put("ckpt/00000004/COMMIT", &bytes).unwrap();
        assert!(matches!(
            s.commit_record(4).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn commit_record_with_a_trailing_byte_is_corrupt() {
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 1);
        write_full_checkpoint(&s, 3);
        s.commit(3).unwrap();
        s.commit_record(3).unwrap();
        let mut raw = backend.get("ckpt/00000003/COMMIT").unwrap();
        raw.push(0);
        backend.put("ckpt/00000003/COMMIT", &raw).unwrap();
        assert!(matches!(
            s.commit_record(3).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn an_old_commit_record_still_marks_its_line_but_does_not_decode() {
        // COMMIT records once also carried a per-rank `tier_levels` list.
        // Recovery reads only that a line's COMMIT key exists, so a store
        // written then still names its line; the record itself is now
        // corrupt (trailing bytes).
        let backend = Arc::new(MemoryBackend::new());
        let s = CheckpointStore::new(backend.clone(), 2);
        write_full_checkpoint(&s, 3);
        let mut old = encode(&CommitRecord { ckpt: 3, nranks: 2 });
        old.extend(encode(&vec![0u8, 1]));
        backend.put("ckpt/00000003/COMMIT", &old).unwrap();
        assert_eq!(s.latest_recoverable().unwrap(), Some(3));
        assert_eq!(
            s.get_rank_blob(3, 1, RankBlobKind::State).unwrap(),
            b"state"
        );
        assert!(matches!(
            s.commit_record(3).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }
}

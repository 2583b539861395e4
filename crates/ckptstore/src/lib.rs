//! Stable-storage substrate for the c3rs checkpointing system.
//!
//! The PPoPP 2003 protocol ("Automated Application-level Checkpointing of MPI
//! Programs", Bronevetsky et al.) assumes a *stable storage* service with two
//! properties:
//!
//! 1. each process can save per-rank blobs (its local state snapshot, its
//!    message/non-determinism log, its early-message identifier sets), and
//! 2. the initiator can atomically record "global checkpoint `n` is the one
//!    to be used for recovery" once every process has reported
//!    `stoppedLogging` (Section 4.1, phase 4 of the paper).
//!
//! This crate provides exactly that service:
//!
//! * [`codec`] — a compact, dependency-free binary encoding used for every
//!   persisted structure (checkpoint snapshots, logs, commit records).
//! * [`backend`] — the [`backend::StorageBackend`] trait with an in-memory
//!   backend (fast, used by tests and most benchmarks) and an on-disk backend
//!   (atomic-rename writes; retains real I/O cost for overhead experiments).
//! * [`integrity`] — CRC-32 sealing of every stored blob, so corruption
//!   surfaces as an explicit recovery error instead of a wrong state, plus
//!   the 128-bit content hash that addresses incremental-checkpoint
//!   chunks (wide enough that accidental dedup collisions are negligible).
//! * [`store`] — [`store::CheckpointStore`], the two-phase commit layer:
//!   per-rank local checkpoints are written under a checkpoint number, and a
//!   separate `COMMIT` record marks the checkpoint recoverable. Recovery
//!   always reads the **latest committed** checkpoint; partially written
//!   checkpoints are invisible and garbage-collectible.
//! * [`manifest`] — content-addressed chunk manifests: every rank blob
//!   is stored as one, naming its chunks; GC refcounts chunks through
//!   these.
//! * [`cdc`] — FastCDC-style content-defined chunking ([`cdc::Chunker`]),
//!   so dedup survives insertions and shifts in the checkpointed state.
//! * [`compress`] — [`compress::Form`], the one chunk codec: each chunk
//!   is stored as dependency-free LZ4 block compression of its bytes, of
//!   its byte planes or of the planes of its lanes' order-2 residuals,
//!   whichever is smallest, or raw when none shrinks it; the chosen form
//!   is recorded per chunk.
//! * [`fault`] — [`fault::FaultInjectingBackend`], a deterministic seeded
//!   fault-injection decorator (fail-once, fail-N, random, slow-put, and a
//!   seeded per-operation latency profile) used to prove the retry and
//!   drain-before-commit machinery.
//! * [`tier`] — [`tier::TieredBackend`], SCR-style multi-level stable
//!   storage: a local staging tier, partner-replica and Reed–Solomon
//!   erasure-coded lower tiers ([`erasure`]), and recovery reads that fall
//!   through the hierarchy.

#![deny(missing_docs)]

pub mod backend;
pub mod cdc;
pub mod codec;
pub mod compress;
pub mod erasure;
pub mod error;
pub mod fault;
pub mod integrity;
pub mod manifest;
pub mod obs;
pub mod store;
pub mod tier;

pub use backend::{DiskBackend, MemoryBackend, StorageBackend};
pub use cdc::Chunker;
pub use codec::{Decoder, Encoder, SaveLoad, Tracked};
pub use compress::{Form, Trials};
pub use error::{StoreError, StoreResult};
pub use fault::{splitmix64, FaultInjectingBackend, FaultPlan};
pub use integrity::{crc32, hash128, seal, unseal};
pub use manifest::{chunk_key, ChunkRef, Manifest};
pub use obs::ObservedBackend;
pub use store::{CheckpointStore, CkptId, RankBlobKind};
pub use tier::{TierSpec, TieredBackend, WritePolicy};

#[cfg(test)]
mod test_alloc {
    //! A counting global allocator for this crate's unit tests, so hot
    //! paths can pin their allocation behavior (e.g. blob reassembly
    //! must not allocate per-chunk temporaries). Counts are per-thread
    //! so concurrently running tests don't pollute each other.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    fn count(bytes: usize) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }

    struct CountingAlloc;

    // SAFETY: delegates entirely to `System`; the counters use
    // `try_with` so allocation during thread-local teardown is safe.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: Layout,
            new_size: usize,
        ) -> *mut u8 {
            count(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Heap allocations (including reallocations) made by this thread
    /// since it started.
    pub fn allocations() -> u64 {
        ALLOCS.try_with(Cell::get).unwrap_or(0)
    }

    /// Bytes those allocations asked for (a reallocation counts its new
    /// size).
    pub fn allocated_bytes() -> u64 {
        BYTES.try_with(Cell::get).unwrap_or(0)
    }
}

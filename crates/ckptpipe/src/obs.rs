//! Observability handles for the write pipeline.
//!
//! One [`PipeObs`] bundle is registered per pipeline (job-wide, not
//! per-rank: writer threads serve every rank, so rank attribution of a
//! write would be arbitrary). Stage/write/drain operations happen at
//! checkpoint frequency — orders of magnitude rarer than messages — so
//! every one is timed; no sampling is needed to stay inside the
//! overhead budget.

use c3obs::{Counter, Histogram, Registry};

/// Job-wide metric handles of the checkpoint write pipeline.
pub(crate) struct PipeObs {
    /// `io_stage_ns` — latency of `stage` as seen by the calling rank
    /// (queue backpressure included; in sync mode this is the write).
    pub stage_ns: Histogram,
    /// `io_write_ns` — latency of one whole blob write (chunking,
    /// dedup probes, compression, storage puts, retries).
    pub write_ns: Histogram,
    /// `io_drain_ns` — time the initiator blocks in the drain barrier.
    pub drain_ns: Histogram,
    /// `io_retries_total` — storage operations retried after a
    /// transient fault.
    pub retries: Counter,
    /// `io_staged_bytes_total` — raw bytes accepted by `stage`.
    pub staged_bytes: Counter,
    /// `io_dedup_hits_total` — chunks not written because an identical
    /// chunk was already stored (clean reference, previous-line set,
    /// within-blob duplicate, or store probe).
    pub dedup_hits: Counter,
    /// `io_clean_bytes_total` — of the staged bytes, those that arrived
    /// as clean references and were never serialized, cut or hashed.
    pub clean_bytes: Counter,
    /// `io_dedup_misses_total` — chunks that had to be written.
    pub dedup_misses: Counter,
    /// `io_precompress_bytes_total` — raw bytes fed to the chunk codec
    /// (dedup hits skip compression and are not counted, except a store
    /// probe's hit, which needs the codec to learn the chunk's form).
    pub precompress_bytes: Counter,
    /// `io_postcompress_bytes_total` — stored bytes those chunks came
    /// out as; the ratio against `io_precompress_bytes_total` is the
    /// achieved compression ratio.
    pub postcompress_bytes: Counter,
    /// `io_chunk_bytes` — raw size distribution of the cut chunks
    /// (interesting under content-defined chunking, where sizes vary).
    pub chunk_bytes: Histogram,
}

impl PipeObs {
    /// Register the pipeline's handle bundle in `reg`.
    pub fn register(reg: &Registry) -> Self {
        PipeObs {
            stage_ns: reg.histogram("io_stage_ns"),
            write_ns: reg.histogram("io_write_ns"),
            drain_ns: reg.histogram("io_drain_ns"),
            retries: reg.counter("io_retries_total"),
            staged_bytes: reg.counter("io_staged_bytes_total"),
            dedup_hits: reg.counter("io_dedup_hits_total"),
            clean_bytes: reg.counter("io_clean_bytes_total"),
            dedup_misses: reg.counter("io_dedup_misses_total"),
            precompress_bytes: reg.counter("io_precompress_bytes_total"),
            postcompress_bytes: reg.counter("io_postcompress_bytes_total"),
            chunk_bytes: reg.histogram("io_chunk_bytes"),
        }
    }
}

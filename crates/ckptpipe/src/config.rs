//! Pipeline tuning knobs.

use ckptstore::Chunker;

/// How staged blobs reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Write on the staging rank's thread. `stage` returns only after the
    /// blob is on storage — the paper's original blocking behavior.
    Sync,
    /// Hand the blob to background writer threads; `stage` returns as
    /// soon as the blob is queued, and the initiator's drain barrier is
    /// what guarantees durability before commit.
    Async {
        /// Number of writer threads shared by all ranks of the job.
        writers: usize,
        /// Staged blobs the queue holds before `stage` applies
        /// backpressure (blocks the staging rank).
        queue_depth: usize,
    },
}

/// Retry discipline for transient storage faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Sleep before retry `k` is [`RetryPolicy::delay_ms`]`(k)`:
    /// `backoff_base_ms * 2^k`, capped at 1024 × base.
    pub backoff_base_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base_ms: 1,
        }
    }
}

impl RetryPolicy {
    /// Exponent cap: delays saturate at `backoff_base_ms << 10`
    /// (1024 × base).
    const MAX_EXP: u32 = 10;

    /// Milliseconds to sleep before retry `attempt` (0-based).
    ///
    /// A plain `backoff_base_ms << attempt` would be a shift-overflow
    /// panic (debug) or silent wrap (release) once `attempt >= 64`,
    /// which an adversarial fault schedule can reach. The exponent is
    /// therefore clamped first and the multiply saturates.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = attempt.min(Self::MAX_EXP);
        self.backoff_base_ms.saturating_mul(1u64 << exp)
    }
}

/// Topology of the multi-level storage hierarchy the job should run
/// over (SCR-style). When set on [`PipelineConfig::tiers`], `run_job`
/// wraps the provided backend as the local staging tier of a
/// `ckptstore::TieredBackend`, the pipeline spawns an async tier-drain
/// mover that promotes each committed checkpoint down the hierarchy,
/// and recovery falls through the tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierTopology {
    /// Replica slots on the partner tier (0 = no partner tier).
    pub partner_replicas: usize,
    /// `(data, parity)` Reed–Solomon geometry of the global
    /// erasure-coded tier (`None` = no global tier).
    pub erasure: Option<(u8, u8)>,
}

impl TierTopology {
    /// Partner tier only: each rank's blobs replicated onto `replicas`
    /// neighbor slots.
    pub fn partner(replicas: usize) -> Self {
        TierTopology {
            partner_replicas: replicas,
            erasure: None,
        }
    }

    /// Partner tier plus a global Reed–Solomon `(data, parity)` tier.
    pub fn partner_and_erasure(replicas: usize, data: u8, parity: u8) -> Self {
        TierTopology {
            partner_replicas: replicas,
            erasure: Some((data, parity)),
        }
    }

    /// Erasure-coded global tier only.
    pub fn erasure(data: u8, parity: u8) -> Self {
        TierTopology {
            partner_replicas: 0,
            erasure: Some((data, parity)),
        }
    }
}

/// Full pipeline configuration, embedded in the protocol layer's
/// `C3Config` as its `io` field.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Synchronous or background writing.
    pub mode: WriteMode,
    /// How a blob is cut into the content-addressed chunks its manifest
    /// names: FastCDC cuts around [`Chunker::avg`] bytes, which keep
    /// dedup working when state shifts (see [`Chunker`]).
    pub chunker: Chunker,
    /// Transient-fault retry discipline.
    pub retry: RetryPolicy,
    /// Committed checkpoint lines to retain: the initiator GCs
    /// everything older than `latest_commit + 1 - keep_last`. The
    /// default 1 reproduces the paper's behavior (only the newest
    /// committed checkpoint survives); tiered configurations keep ≥ 2
    /// so that losing the newest line beyond repair still leaves a
    /// whole older line to fall back to.
    pub keep_last: u64,
    /// Storage-tier topology to run over (`None` = single-tier, the
    /// paper's flat stable storage).
    pub tiers: Option<TierTopology>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            mode: WriteMode::Async {
                writers: 2,
                queue_depth: 8,
            },
            chunker: Chunker::default(),
            retry: RetryPolicy::default(),
            keep_last: 1,
            tiers: None,
        }
    }
}

impl PipelineConfig {
    /// Builder: set the write mode.
    pub fn with_mode(mut self, mode: WriteMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: set the chunker (see [`PipelineConfig::chunker`]).
    pub fn with_chunker(mut self, chunker: Chunker) -> Self {
        self.chunker = chunker;
        self
    }

    /// Builder: set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: retain the last `n` committed checkpoint lines
    /// (`n >= 1`).
    pub fn with_keep_last(mut self, n: u64) -> Self {
        assert!(n >= 1, "must keep at least the newest committed line");
        self.keep_last = n;
        self
    }

    /// Builder: run over a multi-level storage hierarchy.
    pub fn with_tiers(mut self, topology: TierTopology) -> Self {
        self.tiers = Some(topology);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_schedule_is_exponential_and_capped() {
        // Doubling from the base, then flat at 1024 × base.
        let p = RetryPolicy {
            max_retries: 64,
            backoff_base_ms: 3,
        };
        let schedule: Vec<u64> = (0..12).map(|k| p.delay_ms(k)).collect();
        assert_eq!(
            schedule,
            [
                3,
                6,
                12,
                24,
                48,
                96,
                192,
                384,
                768,
                1536,
                3 * 1024,
                3 * 1024
            ],
            "doubles per retry, then holds at 1024 x base"
        );
        // The old `base << attempt` panicked (debug) or wrapped
        // (release) here; the clamped saturating form must not.
        assert_eq!(p.delay_ms(u32::MAX), 3 * 1024);
        let huge = RetryPolicy {
            max_retries: 1,
            backoff_base_ms: u64::MAX,
        };
        assert_eq!(huge.delay_ms(u32::MAX), u64::MAX, "saturates");
    }

    #[test]
    fn chunker_builder_plumbs_through() {
        let cfg = PipelineConfig::default().with_chunker(Chunker::cdc(1024));
        assert_eq!(cfg.chunker, Chunker::cdc(1024));
        assert_eq!(PipelineConfig::default().chunker, Chunker::cdc(4096));
    }
}

//! The fault-tolerant job driver: run attempts, roll back to the last
//! committed global checkpoint when one dies, restart.
//!
//! This is the runtime half of the paper's problem statement (Section 1.1):
//! given a reliable transport, unreliable processes, and a failure
//! detector, make the program complete despite stopping failures. Each
//! *attempt* spawns all ranks under simmpi's supervisor
//! ([`World::run_supervised`]), which is the failure detector: an
//! injected stopping failure silences one rank, the supervisor notices
//! after a configurable latency and aborts the attempt, and the driver
//! restarts every rank from the latest committed checkpoint (or from
//! scratch if none committed yet). [`RecoveryMode`] only decides whether
//! the supervisor is also handed a splice policy, under which it first
//! tries to repair the death online; aborting is then the escalation, and
//! lands in the same rollback loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ckptpipe::CheckpointPipeline;
use ckptstore::{CheckpointStore, MemoryBackend, StorageBackend};
use simmpi::{JobControl, SpliceDecision, SpliceQuery, World};
use statesave::snapshot::SaveState;

use crate::config::{C3Config, RecoveryMode};
use crate::error::{C3Error, C3Result};
use crate::process::{ProcStats, Process};

/// A fault-tolerant application: initialization builds the state, the body
/// runs (and resumes) it. The body must be written to resume correctly
/// from a restored state — typically a main loop over an iteration counter
/// kept in the state, with a `potential_checkpoint` call per iteration
/// (this is precisely the paper's application-level checkpointing
/// contract).
pub trait C3App: Sync {
    /// Checkpointable application state.
    type State: SaveState;
    /// Per-rank output of a completed run.
    type Output: Send;

    /// Build the initial state (fresh starts only).
    fn init(&self, p: &mut Process<'_>) -> C3Result<Self::State>;

    /// Run (or resume) the application to completion.
    fn run(
        &self,
        p: &mut Process<'_>,
        state: &mut Self::State,
    ) -> C3Result<Self::Output>;
}

/// What a completed fault-tolerant job reports.
#[derive(Debug)]
pub struct JobReport<O> {
    /// Per-rank outputs of the final (successful) attempt.
    pub outputs: Vec<O>,
    /// Number of full rollback/restart cycles performed. A localized
    /// splice that later escalates to a rollback is counted here (once),
    /// not under [`JobReport::splices`] — the two counters partition the
    /// repairs, they never both count the same failure.
    pub restarts: usize,
    /// Number of completed localized splices: rank deaths repaired
    /// online by spare-rank substitution, without any global rollback.
    /// Always zero under [`RecoveryMode::FullRestart`].
    pub splices: usize,
    /// For each restart, the checkpoint recovered from (0 = from scratch).
    pub recovered_from: Vec<u64>,
    /// Per-rank protocol statistics of the final attempt.
    pub stats: Vec<ProcStats>,
    /// Wall-clock duration of the whole job (all attempts).
    pub elapsed: Duration,
    /// Total bytes written to stable storage across the job.
    pub storage_bytes_written: u64,
    /// Highest committed checkpoint number at the end, if any.
    pub last_committed: Option<u64>,
}

impl<O> JobReport<O> {
    /// One-paragraph human-readable summary (used by examples and tools).
    pub fn summary(&self) -> String {
        let ckpt_counts: Vec<u64> =
            self.stats.iter().map(|s| s.checkpoints).collect();
        let late: u64 = self.stats.iter().map(|s| s.late_logged).sum();
        let early: u64 = self.stats.iter().map(|s| s.early_recorded).sum();
        let suppressed: u64 =
            self.stats.iter().map(|s| s.suppressed_sends).sum();
        format!(
            "{} rank(s), {} restart(s) (recovered from {:?}), \
{} localized splice(s), \
last committed checkpoint {:?}, per-rank local checkpoints {:?}; \
logged {late} late message(s), recorded {early} early id(s), \
suppressed {suppressed} re-send(s); \
{} bytes to stable storage in {:.3}s",
            self.outputs.len(),
            self.restarts,
            self.recovered_from,
            self.splices,
            self.last_committed,
            ckpt_counts,
            self.storage_bytes_written,
            self.elapsed.as_secs_f64(),
        )
    }
}

/// Run `app` on `nprocs` ranks under configuration `cfg`, writing
/// checkpoints to `backend` (an in-memory backend is used if `None`).
pub fn run_job<A: C3App>(
    nprocs: usize,
    cfg: &C3Config,
    backend: Option<Arc<dyn StorageBackend>>,
    app: &A,
) -> C3Result<JobReport<A::Output>> {
    let mut backend: Arc<dyn StorageBackend> =
        backend.unwrap_or_else(|| Arc::new(MemoryBackend::new()));
    // A tier topology on the I/O config turns the provided backend into
    // the local staging tier of an SCR-style hierarchy: partner replicas
    // and/or an erasure-coded global tier are simulated as in-memory
    // backends behind it. A backend that is already tiered is used as-is
    // (tests wire fault injection into specific tiers that way).
    if let Some(topo) = cfg.io.tiers {
        if backend.as_tiered().is_none() {
            let mut tiers = vec![ckptstore::TierSpec::direct(backend.clone())];
            if topo.partner_replicas > 0 {
                tiers.push(ckptstore::TierSpec::partner(
                    Arc::new(MemoryBackend::new()),
                    topo.partner_replicas,
                ));
            }
            if let Some((data, parity)) = topo.erasure {
                tiers.push(ckptstore::TierSpec::erasure(
                    Arc::new(MemoryBackend::new()),
                    data,
                    parity,
                ));
            }
            backend = Arc::new(ckptstore::TieredBackend::new(tiers, nprocs));
        }
    }
    let mut store = cfg
        .level
        .checkpoints()
        .then(|| CheckpointStore::new(backend.clone(), nprocs));
    // Observability plumbing: every store access records through the
    // registry, and the per-attempt pipelines record into the store's.
    // The report's `storage_bytes_written` still reads the raw backend
    // directly.
    if let (Some(reg), Some(s)) = (&cfg.obs, store.as_mut()) {
        s.attach_obs(reg);
    }

    let started = Instant::now();
    let mut restarts = 0usize;
    let mut splices = 0usize;
    let mut recovered_from = Vec::new();

    for attempt in 1.. {
        if attempt - 1 > cfg.max_restarts {
            return Err(C3Error::RestartBudgetExhausted {
                max_restarts: cfg.max_restarts,
            });
        }
        // Restart from the newest committed checkpoint line that is
        // still *servable* — on a tiered store a committed line may have
        // lost blobs beyond the deepest tier's repair capability, in
        // which case recovery falls back to an older whole line.
        let recover = match &store {
            Some(s) => s.latest_recoverable()?,
            None => None,
        };
        // When the recovery line falls back past newer *committed* lines
        // (tiered storage damaged beyond repair), discard those lines:
        // they are unservable, and their stale COMMIT markers would
        // collide with the re-executed run reaching the same checkpoint
        // numbers again. No pipeline writers exist at this point, so the
        // sweep is safe without the writer-vs-GC gate.
        if let Some(s) = &store {
            let floor = recover.unwrap_or(0);
            if s.latest_committed()?.is_some_and(|n| n > floor) {
                s.discard_after(floor)?;
            }
        }
        if attempt > 1 {
            restarts += 1;
            recovered_from.push(recover.unwrap_or(0));
        }

        // One I/O pipeline per attempt, shared by every rank. A killed
        // attempt may leave writes for an uncommitted checkpoint in
        // flight; the end-of-attempt shutdown finishes them (they are
        // harmless — recovery only reads committed checkpoints) so the
        // next attempt starts with a quiescent store.
        let pipeline = store
            .clone()
            .map(|s| CheckpointPipeline::new(s, cfg.io.clone()));

        type Inner<O> = C3Result<(O, ProcStats)>;
        let rank_fn = |mpi: &mut simmpi::Mpi| {
            let mut body = || -> Inner<A::Output> {
                let mut p = Process::new(
                    mpi,
                    cfg.clone(),
                    pipeline.clone(),
                    attempt as u64,
                    recover,
                )?;
                let mut state = match p.take_recovered_state::<A::State>()? {
                    Some(s) => s,
                    None => app.init(&mut p)?,
                };
                let out = app.run(&mut p, &mut state)?;
                p.finalize()?;
                Ok((out, *p.stats()))
            };
            match body() {
                Err(e) if e.is_rollback() => Err(match e {
                    C3Error::Mpi(m) => m,
                    _ => unreachable!("is_rollback implies Mpi"),
                }),
                other => {
                    if other.is_err() {
                        // A genuine error (bug, storage failure, app
                        // failure): unblock peers so the attempt ends.
                        mpi.control().abort();
                    }
                    Ok(other)
                }
            }
        };
        let mut respawn_or_escalate = localized_policy;
        let (results, splice_stats) = World::run_supervised(
            nprocs,
            JobControl::new(nprocs),
            Duration::from_millis(cfg.detection_latency_ms),
            match cfg.recovery {
                // The paper's model: every death aborts the attempt and
                // every rank rolls back.
                RecoveryMode::FullRestart => None,
                // Online recovery: survivors keep running while the dead
                // rank is respawned and caught up by deterministic replay.
                RecoveryMode::Localized => Some(&mut respawn_or_escalate),
            },
            rank_fn,
        );
        // Only splices that *stuck* (the respawned incarnation finished
        // the attempt) count; an escalated attempt is counted as a restart
        // when the rollback loops, never as both.
        splices += splice_stats.completed;
        if let Some(p) = &pipeline {
            p.shutdown();
        }

        // Genuine errors dominate: report the first one.
        let mut rollback = false;
        let mut outputs = Vec::with_capacity(nprocs);
        let mut stats = Vec::with_capacity(nprocs);
        let mut genuine: Option<C3Error> = None;
        for r in results {
            match r {
                Ok(Ok((out, st))) => {
                    outputs.push(out);
                    stats.push(st);
                }
                Ok(Err(e)) => genuine = genuine.or(Some(e)),
                Err(_mpi) => rollback = true,
            }
        }
        if let Some(e) = genuine {
            return Err(e);
        }
        if rollback {
            continue;
        }
        let last_committed = match &store {
            Some(s) => s.latest_committed()?,
            None => None,
        };
        return Ok(JobReport {
            outputs,
            restarts,
            splices,
            recovered_from,
            stats,
            elapsed: started.elapsed(),
            storage_bytes_written: backend.bytes_written(),
            last_committed,
        });
    }
    unreachable!("loop returns or errors")
}

/// The [`RecoveryMode::Localized`] splice policy. Rank 0 hosts the
/// initiator (commit, GC, checkpoint triggering): its death, or a rank
/// dying twice in one attempt, escalates to a full rollback-restart.
fn localized_policy(q: SpliceQuery) -> SpliceDecision {
    if q.rank == 0 || q.rank_respawns >= 1 {
        SpliceDecision::Escalate
    } else {
        SpliceDecision::Respawn
    }
}

//! Job lifecycle: spawn ranks, run them, and coordinate abort/fail-stop.
//!
//! There is one runner. Each rank thread announces its exit — handle and
//! result — on a channel, and the calling thread blocks on that channel
//! until no rank is live. [`World::run_supervised`] additionally
//! *reacts* to the exits that are deaths (`Err(FailStop)`): it is the
//! job's failure detector, and the only code that knows about failures.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::comm::Comm;
use crate::error::MpiError;
use crate::error::MpiResult;
use crate::rank::Mpi;
use crate::splice::{SpliceDecision, SplicePolicy, SpliceQuery, SpliceStats};
use crate::transport::Fabric;

/// Shared job control block.
///
/// * `abort()` — the failure detector (or recovery harness) declares the
///   current execution attempt dead; every blocking MPI call in every rank
///   returns [`crate::MpiError::Aborted`] so rank functions unwind promptly.
/// * `fail_rank(r)` — inject a stopping failure at rank `r`: its next MPI
///   call returns [`crate::MpiError::FailStop`] and it must go silent, mimicking a
///   hung process under the paper's stopping-failure model.
///
/// A fresh `JobControl` is created per execution attempt; it is cheap to
/// clone (shared interior).
#[derive(Clone)]
pub struct JobControl {
    inner: Arc<ControlInner>,
}

struct ControlInner {
    aborted: AtomicBool,
    failed: Vec<AtomicBool>,
}

impl JobControl {
    /// Control block for a job of `n` ranks.
    pub fn new(n: usize) -> Self {
        JobControl {
            inner: Arc::new(ControlInner {
                aborted: AtomicBool::new(false),
                failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            }),
        }
    }

    /// Declare the attempt dead; unblocks every rank with `Aborted`.
    pub fn abort(&self) {
        self.inner.aborted.store(true, Ordering::Release);
    }

    /// Whether the attempt has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.inner.aborted.load(Ordering::Acquire)
    }

    /// Inject a stopping failure at `rank`.
    pub fn fail_rank(&self, rank: usize) {
        if let Some(flag) = self.inner.failed.get(rank) {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether `rank` has fail-stopped.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.inner
            .failed
            .get(rank)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Whether any rank has fail-stopped (what a perfect distributed
    /// failure detector would eventually report to the runtime).
    pub fn any_failed(&self) -> bool {
        self.inner.failed.iter().any(|f| f.load(Ordering::Acquire))
    }

    /// Clear `rank`'s fail-stop flag: its next incarnation is live. Only
    /// the splice supervisor calls this, after the dead incarnation's
    /// thread has been joined.
    pub fn clear_failed(&self, rank: usize) {
        if let Some(flag) = self.inner.failed.get(rank) {
            flag.store(false, Ordering::Release);
        }
    }

    /// Number of ranks this control block covers.
    pub fn size(&self) -> usize {
        self.inner.failed.len()
    }
}

/// Entry point for running an `n`-rank job.
pub struct World;

impl World {
    /// Run `f` once per rank on its own thread and collect per-rank results.
    ///
    /// Unlike [`World::run`], individual rank errors (including injected
    /// `FailStop` and rollback `Aborted`) are returned per rank instead of
    /// failing the whole call. Nobody reacts to a failure here: a caller
    /// that injects one aborts the job itself.
    pub fn run_collect<T, F>(
        n: usize,
        control: JobControl,
        f: F,
    ) -> Vec<MpiResult<T>>
    where
        T: Send,
        F: Fn(&mut Mpi) -> MpiResult<T> + Send + Sync,
    {
        Self::run_ranks(n, control, None, f).0
    }

    /// Run an `n`-rank job under the *supervisor* — the simulated
    /// distributed failure detector, and the one place failures are
    /// handled. `detection_latency` after a rank fail-stops, the
    /// supervisor (this thread) acts on the death:
    ///
    /// * with no `policy`, or when the policy answers
    ///   [`SpliceDecision::Escalate`], it aborts the attempt so the
    ///   caller can roll every rank back (the paper's recovery model);
    /// * on [`SpliceDecision::Respawn`] survivors keep running and the
    ///   dead rank is respawned in place: the new incarnation replays
    ///   its predecessor's consumed-message tape, squelches re-executed
    ///   sends below the death-time high-water, and inherits the dead
    ///   rank's mailbox (see [`crate::splice`]).
    ///
    /// Splice bookkeeping exists only where a splice can happen: handles
    /// tape their consumption iff `policy` is `Some`.
    ///
    /// Returns each rank's final incarnation's result plus what the
    /// supervisor did.
    pub fn run_supervised<T, F>(
        n: usize,
        control: JobControl,
        detection_latency: Duration,
        policy: Option<SplicePolicy<'_>>,
        f: F,
    ) -> (Vec<MpiResult<T>>, SpliceStats)
    where
        T: Send,
        F: Fn(&mut Mpi) -> MpiResult<T> + Send + Sync,
    {
        Self::run_ranks(n, control, Some((detection_latency, policy)), f)
    }

    /// The one runner: an event loop over rank exits. Without a
    /// `supervisor` every exit is final; with one, an exit that is a
    /// death is escalated or repaired as
    /// [`World::run_supervised`] describes.
    fn run_ranks<T, F>(
        n: usize,
        control: JobControl,
        mut supervisor: Option<(Duration, Option<SplicePolicy<'_>>)>,
        f: F,
    ) -> (Vec<MpiResult<T>>, SpliceStats)
    where
        T: Send,
        F: Fn(&mut Mpi) -> MpiResult<T> + Send + Sync,
    {
        assert!(n > 0, "a job has at least one rank");
        assert_eq!(control.size(), n, "control block sized for wrong job");
        let spliceable = matches!(supervisor, Some((_, Some(_))));
        let (fabric, receivers) = Fabric::new(n, control.clone());
        let mut results: Vec<Option<MpiResult<T>>> =
            (0..n).map(|_| None).collect();
        let mut stats = SpliceStats::default();
        let mut incarnations = vec![0u32; n];

        std::thread::scope(|scope| {
            let (exits, supervisor_inbox) = mpsc::channel();
            let (f, control) = (&f, &control);
            let spawn_rank = |mut mpi: Mpi| {
                let exits = exits.clone();
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut mpi)));
                    exits.send((mpi, out)).ok();
                });
            };
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let fabric = fabric.clone();
                spawn_rank(Mpi::new(rank, n, fabric, inbox, spliceable));
            }

            let mut live = n;
            while live > 0 {
                let (mpi, out) = supervisor_inbox
                    .recv()
                    .expect("this thread holds a sender");
                live -= 1;
                let out = out.unwrap_or_else(|panic| {
                    // Unblock the other ranks so the scope can unwind.
                    control.abort();
                    resume_unwind(panic)
                });
                let rank = mpi.rank();
                if let (Err(MpiError::FailStop), Some((latency, policy))) =
                    (&out, supervisor.as_mut())
                {
                    // A death in an attempt that is already being torn
                    // down (by an earlier escalation, or a rank's genuine
                    // error, possibly during the latency) needs no verdict.
                    if !control.is_aborted() {
                        std::thread::sleep(*latency);
                    }
                    if !control.is_aborted() {
                        let query = SpliceQuery {
                            rank,
                            rank_respawns: incarnations[rank],
                            total_respawns: stats.respawns,
                        };
                        match policy
                            .as_mut()
                            .map_or(SpliceDecision::Escalate, |p| p(query))
                        {
                            SpliceDecision::Escalate => {
                                stats.escalated = true;
                                control.abort();
                            }
                            SpliceDecision::Respawn => {
                                incarnations[rank] += 1;
                                stats.respawns += 1;
                                let next = mpi.respawn(incarnations[rank]);
                                // Go live only once the successor exists:
                                // its inherited mailbox queued traffic
                                // meanwhile.
                                control.clear_failed(rank);
                                spawn_rank(next);
                                live += 1;
                                continue;
                            }
                        }
                    }
                }
                results[rank] = Some(out);
            }
        });

        let results: Vec<MpiResult<T>> = results
            .into_iter()
            .map(|r| r.expect("every rank exited with a result"))
            .collect();
        stats.completed = results
            .iter()
            .zip(&incarnations)
            .filter(|(res, inc)| **inc > 0 && res.is_ok())
            .count();
        (results, stats)
    }

    /// Run `f` once per rank; returns every rank's output, or the first
    /// rank error encountered (in rank order).
    pub fn run<T, F>(n: usize, f: F) -> MpiResult<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Mpi) -> MpiResult<T> + Send + Sync,
    {
        let control = JobControl::new(n);
        let mut out = Vec::with_capacity(n);
        for r in Self::run_collect(n, control, f) {
            out.push(r?);
        }
        Ok(out)
    }
}

/// Give the world communicator for a freshly spawned rank. Used by `Mpi`.
pub(crate) fn world_comm(rank: usize, size: usize) -> Comm {
    Comm::world(rank, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_flags() {
        let c = JobControl::new(3);
        assert!(!c.is_aborted());
        assert!(!c.any_failed());
        c.fail_rank(1);
        assert!(c.is_failed(1));
        assert!(!c.is_failed(0));
        assert!(c.any_failed());
        c.abort();
        assert!(c.is_aborted());
        // Out-of-range ranks are inert.
        c.fail_rank(99);
        assert!(!c.is_failed(99));
    }

    /// A deterministic ring exchange that kills `victim` mid-run (once,
    /// guarded by `killed`): every rank sends to its right neighbour and
    /// receives from its left each round, accumulating what it hears.
    fn ring_with_kill(
        rounds: u64,
        victim: usize,
        kill_round: u64,
        killed: &AtomicBool,
    ) -> impl Fn(&mut Mpi) -> MpiResult<u64> + Send + Sync + '_ {
        move |mpi| {
            let comm = mpi.world();
            let me = mpi.rank();
            let right = (me + 1) % mpi.size();
            let left = (me + mpi.size() - 1) % mpi.size();
            let mut acc = 0u64;
            for round in 0..rounds {
                mpi.send_t::<u64>(
                    &comm,
                    right,
                    7,
                    &[me as u64 * 1000 + round],
                )?;
                let got = mpi.recv_t::<u64>(&comm, left, 7)?;
                acc = acc.wrapping_mul(31).wrapping_add(got[0]);
                if round == kill_round
                    && me == victim
                    && !killed.swap(true, Ordering::SeqCst)
                {
                    mpi.control().fail_rank(victim);
                }
            }
            Ok(acc)
        }
    }

    #[test]
    fn supervised_run_without_failures_matches_plain() {
        let n = 4;
        let dead = AtomicBool::new(true); // already "killed": no injection
        let expected: Vec<u64> =
            World::run(n, ring_with_kill(8, 0, 0, &dead)).unwrap();
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            Duration::from_millis(1),
            Some(&mut |_| SpliceDecision::Respawn),
            ring_with_kill(8, 0, 0, &dead),
        );
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected);
        assert_eq!(stats, SpliceStats::default());
    }

    #[test]
    fn supervised_splice_replays_dead_rank() {
        let n = 4;
        // Failure-free reference run.
        let dead = AtomicBool::new(true);
        let expected: Vec<u64> =
            World::run(n, ring_with_kill(20, 2, 10, &dead)).unwrap();

        // Same job, but rank 2 fail-stops at round 10 and is spliced back.
        let killed = AtomicBool::new(false);
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            Duration::from_millis(1),
            Some(&mut |q| {
                assert_eq!(q.rank, 2);
                SpliceDecision::Respawn
            }),
            ring_with_kill(20, 2, 10, &killed),
        );
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected, "splice must not perturb any rank");
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.completed, 1);
        assert!(!stats.escalated);
    }

    #[test]
    fn supervised_escalation_aborts_attempt() {
        let n = 4;
        let killed = AtomicBool::new(false);
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            Duration::from_millis(1),
            Some(&mut |_| SpliceDecision::Escalate),
            ring_with_kill(20, 2, 10, &killed),
        );
        assert!(stats.escalated);
        assert_eq!(stats.respawns, 0);
        assert_eq!(results[2].as_ref().unwrap_err(), &MpiError::FailStop);
        // Survivors unblock with `Aborted` (they cannot finish the ring
        // without rank 2).
        assert!(results
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != 2)
            .any(|(_, res)| res.as_ref().unwrap_err() == &MpiError::Aborted));
    }

    #[test]
    fn supervised_without_splice_policy_aborts_after_latency() {
        let n = 4;
        let killed = AtomicBool::new(false);
        let ring = ring_with_kill(20, 2, 10, &killed);
        let latency = Duration::from_millis(20);
        let started = std::time::Instant::now();
        let (results, stats) = World::run_supervised(
            n,
            JobControl::new(n),
            latency,
            None,
            |mpi| {
                // No splice can happen, so no splice bookkeeping exists.
                assert!(mpi.splice.is_none(), "no tape attached");
                ring(mpi)
            },
        );
        assert!(started.elapsed() >= latency);
        assert_eq!(
            stats,
            SpliceStats {
                respawns: 0,
                completed: 0,
                escalated: true
            }
        );
        for (rank, res) in results.iter().enumerate() {
            let want = if rank == 2 {
                MpiError::FailStop
            } else {
                // Nobody finishes the ring without rank 2.
                MpiError::Aborted
            };
            assert_eq!(res.as_ref().unwrap_err(), &want, "rank {rank}");
        }
    }

    #[test]
    fn run_propagates_rank_results() {
        let out = World::run(3, |mpi| Ok(mpi.rank() * 10)).unwrap();
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn run_surfaces_first_error_in_rank_order() {
        let err = World::run(3, |mpi| {
            if mpi.rank() >= 1 {
                Err(MpiError::FailStop)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, MpiError::FailStop);
    }
}

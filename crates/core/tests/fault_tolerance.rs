//! End-to-end fault-tolerance tests: jobs complete correctly despite
//! injected stopping failures, with results identical to failure-free
//! runs (the core guarantee of the paper's protocol).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use c3_core::{
    run_job, C3App, C3Config, C3Result, CheckpointTrigger,
    InstrumentationLevel, Process, ReduceOp,
};
use ckptstore::{
    impl_saveload_struct, MemoryBackend, RankBlobKind, StorageBackend,
};

/// A deterministic ring-reduction app: every iteration each rank sends its
/// accumulator right, receives from the left, folds, and allreduces a
/// checksum every few iterations. State = (iteration, accumulator).
struct RingApp {
    iters: u64,
}

struct RingState {
    i: u64,
    acc: u64,
}
impl_saveload_struct!(RingState { i: u64, acc: u64 });

impl C3App for RingApp {
    type State = RingState;
    type Output = u64;

    fn init(&self, p: &mut Process<'_>) -> C3Result<RingState> {
        Ok(RingState {
            i: 0,
            acc: p.rank() as u64 + 1,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut RingState) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        while s.i < self.iters {
            let got =
                p.sendrecv(world, right, 7, &s.acc.to_le_bytes(), left, 7)?;
            let v = u64::from_le_bytes(got.payload[..8].try_into().unwrap());
            s.acc = s.acc.wrapping_mul(31).wrapping_add(v);
            if s.i % 4 == 3 {
                let sum =
                    p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc])?;
                s.acc = s.acc.wrapping_add(sum[0] >> 32);
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

fn reference_outputs(n: usize, iters: u64) -> Vec<u64> {
    // Failure-free run at full instrumentation = ground truth.
    let cfg = C3Config::every_ops(64);
    run_job(n, &cfg, None, &RingApp { iters }).unwrap().outputs
}

#[test]
fn failure_free_run_matches_uninstrumented_run() {
    let n = 4;
    let iters = 24;
    let plain = run_job(
        n,
        &C3Config {
            level: InstrumentationLevel::None,
            ..C3Config::default()
        },
        None,
        &RingApp { iters },
    )
    .unwrap();
    let full = run_job(n, &C3Config::every_ops(32), None, &RingApp { iters })
        .unwrap();
    assert_eq!(plain.outputs, full.outputs);
    assert_eq!(plain.restarts, 0);
    assert_eq!(full.restarts, 0);
    assert!(full.last_committed.is_some(), "checkpoints were committed");
}

#[test]
fn single_failure_recovers_to_identical_result() {
    let n = 4;
    let iters = 30;
    let expect = reference_outputs(n, iters);
    // Kill rank 2 deep into the run; checkpoints every 24 ops.
    let cfg = C3Config::every_ops(24).with_failure(2, 120);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!(report.restarts, 1);
    assert!(
        report.recovered_from[0] >= 1,
        "expected recovery from a committed checkpoint, got {:?}",
        report.recovered_from
    );
}

#[test]
fn failure_before_any_commit_restarts_from_scratch() {
    let n = 3;
    let iters = 12;
    let expect = reference_outputs(n, iters);
    // Fail rank 1 almost immediately; no checkpoint can have committed.
    let cfg = C3Config::every_ops(1_000_000).with_failure(1, 5);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!(report.restarts, 1);
    assert_eq!(report.recovered_from, vec![0], "0 = from scratch");
}

#[test]
fn multiple_failures_across_attempts_all_recover() {
    let n = 4;
    let iters = 40;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(20)
        .with_failure(1, 60)
        .with_failure(3, 110)
        .with_failure(0, 90);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    // Ops counters are per attempt, so an injection deep enough may never
    // fire on a shortened (recovered) attempt; every one that fired caused
    // exactly one restart.
    let fired = cfg.failures.iter().filter(|i| i.is_consumed()).count();
    assert_eq!(report.restarts, fired);
    assert!(fired >= 2, "at least two injections must have fired");
    // Later recoveries come from monotonically advancing checkpoints.
    let rf = &report.recovered_from;
    assert!(rf.windows(2).all(|w| w[0] <= w[1]), "{rf:?}");
}

#[test]
fn failure_of_the_initiator_rank_is_tolerated() {
    let n = 3;
    let iters = 20;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(16).with_failure(0, 70);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!(report.restarts, 1);
}

#[test]
fn progress_is_made_not_just_restarted() {
    // With a checkpoint interval much shorter than the failure spacing,
    // the second recovery must come from a *later* checkpoint than the
    // first — the job makes forward progress across failures.
    let n = 3;
    let iters = 60;
    let cfg = C3Config::every_ops(12)
        .with_failure(1, 80)
        .with_failure(2, 150);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.restarts, 2);
    assert!(
        report.recovered_from[1] > report.recovered_from[0],
        "second recovery should use a later checkpoint: {:?}",
        report.recovered_from
    );
    assert_eq!(report.outputs, reference_outputs(n, iters));
}

#[test]
fn manual_trigger_checkpoints_on_request() {
    struct ManualApp;
    struct S {
        i: u64,
    }
    impl_saveload_struct!(S { i: u64 });
    impl C3App for ManualApp {
        type State = S;
        type Output = u64;
        fn init(&self, _p: &mut Process<'_>) -> C3Result<S> {
            Ok(S { i: 0 })
        }
        fn run(&self, p: &mut Process<'_>, s: &mut S) -> C3Result<u64> {
            let world = p.world();
            while s.i < 10 {
                p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.i])?;
                if s.i == 4 {
                    p.request_checkpoint()?;
                }
                s.i += 1;
                p.potential_checkpoint(s)?;
            }
            Ok(s.i)
        }
    }
    let cfg = C3Config {
        trigger: CheckpointTrigger::Manual,
        ..C3Config::default()
    };
    let report = run_job(3, &cfg, None, &ManualApp).unwrap();
    assert_eq!(report.last_committed, Some(1));
    for st in &report.stats {
        assert_eq!(st.checkpoints, 1);
    }
}

#[test]
fn storage_bytes_reflect_state_size() {
    let n = 2;
    let backend = Arc::new(MemoryBackend::new());
    let cfg = C3Config::every_ops(16);
    let report =
        run_job(n, &cfg, Some(backend.clone()), &RingApp { iters: 20 })
            .unwrap();
    assert!(report.storage_bytes_written > 0);
    assert!(backend.bytes_written() >= report.storage_bytes_written);
    let app_bytes: u64 = report.stats.iter().map(|s| s.app_state_bytes).sum();
    assert!(app_bytes > 0, "full level writes application state");
    assert!(report.storage_bytes_written >= app_bytes);
}

#[test]
fn protocol_only_level_runs_but_saves_no_app_state() {
    let cfg = C3Config {
        level: InstrumentationLevel::ProtocolOnly,
        trigger: CheckpointTrigger::EveryOps(16),
        ..C3Config::default()
    };
    let report = run_job(3, &cfg, None, &RingApp { iters: 16 }).unwrap();
    assert_eq!(report.outputs, reference_outputs(3, 16));
    assert!(report.last_committed.is_some());
    for st in &report.stats {
        assert!(st.checkpoints > 0);
        assert_eq!(st.app_state_bytes, 0);
    }
}

#[test]
fn piggyback_level_never_checkpoints() {
    let cfg = C3Config {
        level: InstrumentationLevel::Piggyback,
        trigger: CheckpointTrigger::EveryOps(4),
        ..C3Config::default()
    };
    let report = run_job(3, &cfg, None, &RingApp { iters: 12 }).unwrap();
    assert_eq!(report.outputs, reference_outputs(3, 12));
    assert_eq!(report.last_committed, None);
    for st in &report.stats {
        assert_eq!(st.checkpoints, 0);
    }
}

#[test]
fn too_many_failures_exhaust_restart_budget() {
    // Injections outnumber the allowed restarts and fire immediately on
    // every attempt, so the driver gives up.
    let mut cfg = C3Config::every_ops(1_000_000);
    for _ in 0..4 {
        cfg = cfg.with_failure(0, 3);
    }
    cfg.max_restarts = 2;
    let err = run_job(2, &cfg, None, &RingApp { iters: 50 }).unwrap_err();
    assert!(
        matches!(
            err,
            c3_core::C3Error::RestartBudgetExhausted { max_restarts: 2 }
        ),
        "{err}"
    );
}

#[test]
fn unbounded_restart_budget_runs_the_job() {
    // `usize::MAX` is the natural "never give up"; the budget check must
    // not overflow on it and refuse attempt 1.
    let mut cfg = C3Config::every_ops(10).with_failure(0, 35);
    cfg.max_restarts = usize::MAX;
    let report = run_job(1, &cfg, None, &RingApp { iters: 20 }).unwrap();
    assert_eq!(report.outputs, reference_outputs(1, 20));
    assert_eq!(report.restarts, 1);
}

#[test]
fn single_rank_job_checkpoints_and_recovers() {
    let expect = reference_outputs(1, 20);
    let cfg = C3Config::every_ops(10).with_failure(0, 35);
    let report = run_job(1, &cfg, None, &RingApp { iters: 20 }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!(report.restarts, 1);
    assert!(report.recovered_from[0] >= 1);
}

#[test]
fn explicit_piggyback_mode_is_equivalent_end_to_end() {
    // The paper's "simple implementation" (full triple) and the optimized
    // packed word must drive identical protocol behavior, including
    // through a failure and recovery.
    use c3_core::PiggybackMode;
    let n = 3;
    let iters = 24;
    let expect = reference_outputs(n, iters);
    for mode in [PiggybackMode::Packed, PiggybackMode::Explicit] {
        let cfg = C3Config {
            piggyback_mode: mode,
            ..C3Config::every_ops(18).with_failure(1, 60)
        };
        let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
        assert_eq!(report.outputs, expect, "mode {mode:?}");
        assert_eq!(report.restarts, 1, "mode {mode:?}");
    }
}

#[test]
fn time_based_trigger_commits_checkpoints() {
    // The paper's 30-second interval, scaled: wall-clock-driven initiation.
    let cfg = C3Config {
        trigger: CheckpointTrigger::EveryMillis(5),
        ..C3Config::default()
    };
    // Slow the app slightly so several intervals elapse.
    struct SlowApp;
    struct S {
        i: u64,
    }
    impl_saveload_struct!(S { i: u64 });
    impl C3App for SlowApp {
        type State = S;
        type Output = u64;
        fn init(&self, _p: &mut Process<'_>) -> C3Result<S> {
            Ok(S { i: 0 })
        }
        fn run(&self, p: &mut Process<'_>, s: &mut S) -> C3Result<u64> {
            let world = p.world();
            while s.i < 40 {
                p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.i])?;
                std::thread::sleep(std::time::Duration::from_millis(1));
                s.i += 1;
                p.potential_checkpoint(s)?;
            }
            Ok(s.i)
        }
    }
    let report = run_job(2, &cfg, None, &SlowApp).unwrap();
    assert!(
        report.last_committed.unwrap_or(0) >= 2,
        "expected several time-triggered checkpoints, got {:?}",
        report.last_committed
    );
}

#[test]
fn sixteen_ranks_scale_with_failure() {
    // The paper's cluster size. Time-sliced on the test machine, but the
    // protocol phases (16 readyToStopLogging, 16 stoppedLogging, the full
    // suppression exchange) all run at this scale.
    let n = 16;
    let iters = 10;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(14).with_failure(11, 30);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!(report.restarts, 1);
    assert!(report.last_committed.is_some());
}

#[test]
fn corrupt_committed_checkpoint_fails_loudly_not_wrongly() {
    use ckptstore::{CheckpointStore, StorageBackend};
    // Run once to produce a committed checkpoint, corrupt it, then force a
    // recovery: the job must surface a Corrupt error, never restart from
    // garbage.
    let backend = Arc::new(MemoryBackend::new());
    let cfg = C3Config::every_ops(16);
    run_job(2, &cfg, Some(backend.clone()), &RingApp { iters: 20 }).unwrap();

    let store =
        CheckpointStore::new(backend.clone() as Arc<dyn StorageBackend>, 2);
    let latest = store.latest_recoverable().unwrap().unwrap();
    // Corrupt the manifest of rank 0's state blob of the committed
    // checkpoint.
    let key = format!("ckpt/{latest:08}/rank0/state.m");
    let mut raw = backend.get(&key).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xFF;
    backend.put(&key, &raw).unwrap();

    let cfg = C3Config::every_ops(16).with_failure(1, 10);
    let err =
        run_job(2, &cfg, Some(backend), &RingApp { iters: 20 }).unwrap_err();
    assert!(
        matches!(err, c3_core::C3Error::Store(_)),
        "expected a storage error, got {err}"
    );
}

#[test]
fn recovery_blob_with_a_trailing_byte_is_rejected() {
    // The log and MPI-object journal blobs are decoded whole: a blob that
    // passes every integrity check but carries one byte past the value
    // must fail recovery with a decode error, never be accepted. The
    // tampered blob is stored again, as a manifest and chunk that verify,
    // with the line's commit record lifted while it is rewritten.
    for kind in [RankBlobKind::Log, RankBlobKind::MpiObjects] {
        let backend = Arc::new(MemoryBackend::new());
        let cfg = C3Config::every_ops(16);
        run_job(2, &cfg, Some(backend.clone()), &RingApp { iters: 20 })
            .unwrap();
        let store = ckptstore::CheckpointStore::new(
            backend.clone() as Arc<dyn StorageBackend>,
            2,
        );
        let latest = store.latest_recoverable().unwrap().unwrap();
        let mut blob = store.get_rank_blob(latest, 0, kind).unwrap();
        blob.push(0);
        let commit = format!("ckpt/{latest:08}/COMMIT");
        let record = backend.get(&commit).unwrap();
        backend.delete(&commit).unwrap();
        store.put_rank_blob(latest, 0, kind, &blob).unwrap();
        backend.put(&commit, &record).unwrap();

        let err = run_job(
            2,
            &cfg.clone().with_failure(1, 10),
            Some(backend),
            &RingApp { iters: 20 },
        )
        .unwrap_err();
        assert!(
            matches!(err, c3_core::C3Error::Codec(_)),
            "{kind:?}: expected a decode error, got {err}"
        );
    }
}

#[test]
fn failure_during_recovery_replay_recovers_again() {
    // The second injection fires very early in the recovered attempt — in
    // the middle of suppression/replay — forcing a rollback *of a
    // recovery*. The protocol must come back to the same answer.
    let n = 3;
    let iters = 40;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(15)
        .with_failure(1, 90) // first failure, deep in attempt 1
        .with_failure(2, 18); // fires almost immediately in attempt 2
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    let fired = cfg.failures.iter().filter(|i| i.is_consumed()).count();
    assert_eq!(fired, 2, "both injections must fire");
    assert_eq!(report.restarts, 2);
}

// ====================================================================
// Localized (online) recovery: spare-rank substitution without global
// rollback. See `c3_core::RecoveryMode::Localized`.
// ====================================================================

#[test]
fn localized_splice_repairs_death_without_global_rollback() {
    let n = 4;
    let iters = 30;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(24)
        .with_failure(2, 120)
        .with_recovery(c3_core::RecoveryMode::Localized);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect, "splice must not perturb results");
    assert_eq!(report.restarts, 0, "no global rollback happened");
    assert_eq!(report.splices, 1, "the death was repaired online");
    assert!(report.recovered_from.is_empty());
}

#[test]
fn localized_initiator_death_escalates_to_full_restart() {
    // Rank 0 hosts the initiator; its death cannot be spliced online and
    // must fall back to the paper's rollback-restart.
    let n = 3;
    let iters = 24;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(20)
        .with_failure(0, 90)
        .with_recovery(c3_core::RecoveryMode::Localized);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!(report.restarts, 1, "escalated to a full restart");
    assert_eq!(report.splices, 0, "no splice completed");
}

#[test]
fn localized_escalation_is_the_full_restart_path() {
    // One failure path: a death the splice policy declines is handled by
    // the very supervisor code that handles every death under
    // `FullRestart`, so the two modes must report the same job. (The kill
    // sits well after checkpoint 1's commit and before checkpoint 2 is
    // initiated, so the recovery line does not depend on timing.)
    let n = 3;
    let iters = 24;
    let run = |mode| {
        let cfg = C3Config::every_ops(40)
            .with_failure(0, 78)
            .with_recovery(mode);
        run_job(n, &cfg, None, &RingApp { iters }).unwrap()
    };
    let full = run(c3_core::RecoveryMode::FullRestart);
    let localized = run(c3_core::RecoveryMode::Localized);
    assert_eq!(full.outputs, reference_outputs(n, iters));
    assert_eq!(localized.outputs, full.outputs);
    assert_eq!((full.restarts, localized.restarts), (1, 1));
    assert_eq!(full.recovered_from, vec![1]);
    assert_eq!(localized.recovered_from, full.recovered_from);
    assert_eq!((full.splices, localized.splices), (0, 0));
}

#[test]
fn localized_second_kill_mid_splice_escalates() {
    // Two injections on the same rank at the same op: the first kills the
    // original incarnation, the second fires on the respawned incarnation
    // while it is catching up — the supervisor refuses a second splice of
    // the same rank and escalates to a full rollback-restart. The two
    // repairs must not double-count: the death ends up under `restarts`,
    // not `splices`.
    let n = 4;
    let iters = 30;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(24)
        .with_failure(2, 120)
        .with_failure(2, 120)
        .with_recovery(c3_core::RecoveryMode::Localized);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    let fired = cfg.failures.iter().filter(|i| i.is_consumed()).count();
    assert_eq!(fired, 2, "both injections must fire");
    assert_eq!(report.restarts, 1, "the second kill forced a rollback");
    assert_eq!(report.splices, 0, "the abandoned splice is not counted");
}

#[test]
fn localized_repairs_conserve_across_counters() {
    // Every repair is counted exactly once, under exactly one counter.
    // Three non-initiator ranks die at well-separated ops; each death is
    // repaired online, so the splice counter absorbs all three and the
    // restart counter stays untouched (and vice versa nothing is lost:
    // every fired injection is accounted for by exactly one repair).
    let n = 4;
    let iters = 40;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(24)
        .with_failure(1, 60)
        .with_failure(2, 110)
        .with_failure(3, 160)
        .with_recovery(c3_core::RecoveryMode::Localized);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    let fired = cfg.failures.iter().filter(|i| i.is_consumed()).count();
    assert_eq!(fired, 3, "all three injections must fire");
    assert_eq!(
        (report.splices, report.restarts),
        (3, 0),
        "three online repairs, no rollback"
    );
    assert!(
        report.recovered_from.is_empty(),
        "no attempt ever recovered from a checkpoint"
    );
}

#[test]
fn localized_mode_without_failures_is_inert() {
    let n = 4;
    let iters = 24;
    let expect = reference_outputs(n, iters);
    let cfg = C3Config::every_ops(32)
        .with_recovery(c3_core::RecoveryMode::Localized);
    let report = run_job(n, &cfg, None, &RingApp { iters }).unwrap();
    assert_eq!(report.outputs, expect);
    assert_eq!((report.restarts, report.splices), (0, 0));
}

/// A ring of sendrecvs and nothing else, counting every application
/// iteration any rank executes in any attempt or incarnation: what a
/// repair re-executes (rollback replay or splice catch-up) counts again.
struct CountedRing {
    iters: u64,
    ran: Arc<AtomicU64>,
}

impl C3App for CountedRing {
    type State = RingState;
    type Output = u64;

    fn init(&self, p: &mut Process<'_>) -> C3Result<RingState> {
        Ok(RingState {
            i: 0,
            acc: p.rank() as u64 + 1,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut RingState) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        while s.i < self.iters {
            let got =
                p.sendrecv(world, right, 7, &s.acc.to_le_bytes(), left, 7)?;
            s.acc = s.acc.rotate_left(3)
                ^ u64::from_le_bytes(got.payload[..8].try_into().unwrap());
            s.i += 1;
            self.ran.fetch_add(1, Ordering::Relaxed);
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

#[test]
fn redone_work_grows_with_the_world_under_rollback_not_under_splice() {
    // A rollback makes every rank redo the work since the last commit; a
    // splice re-executes only the dead rank's tape. The splice's count is
    // a function of the dead rank's own op stream; the rollback's varies
    // by up to one checkpoint interval with which line had committed
    // when the kill landed, so the bounds leave 2x (recorded: 8 -> 133
    // iterations from 2 to 8 ranks against 25 -> 25).
    let iters = 60;
    let redone = |n: usize, mode| {
        let app = CountedRing {
            iters,
            ran: Arc::default(),
        };
        let cfg = C3Config::every_ops(40);
        let expect = run_job(n, &cfg, None, &app).unwrap().outputs;
        let failure_free = app.ran.swap(0, Ordering::Relaxed);
        assert_eq!(failure_free, n as u64 * iters);
        let cfg = cfg.with_failure(1, 100).with_recovery(mode);
        let report = run_job(n, &cfg, None, &app).unwrap();
        assert_eq!(report.outputs, expect, "recovery must be exact");
        assert_eq!(report.restarts + report.splices, 1);
        app.ran.load(Ordering::Relaxed) - failure_free
    };
    let full = [2, 8].map(|n| redone(n, c3_core::RecoveryMode::FullRestart));
    let localized =
        [2, 8].map(|n| redone(n, c3_core::RecoveryMode::Localized));
    assert!(full[1] >= 2 * full[0], "rollback: {full:?}");
    assert!(
        localized[1] <= 2 * localized[0].max(1),
        "splice: {localized:?}"
    );
    assert!(localized[1] < full[1], "{localized:?} vs {full:?}");
}

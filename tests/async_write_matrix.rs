//! Kill-during-async-write matrix: ranks are killed while the checkpoint
//! I/O pipeline's background writers are still flushing the current
//! round's blobs. The job must always recover from the *previous
//! committed* checkpoint — never from the half-written one — and
//! reproduce the failure-free outputs bit-for-bit.
//!
//! Each cell runs through `ftfuzz::run_case` with slow storage puts (a
//! `FaultPlan` delay) so the asynchronous write window is wide enough for
//! the kill to land inside it. The driver records a protocol trace,
//! requires `c3verify` to find zero violations (including I13
//! drain-before-commit), and writes the trace to `target/c3-traces/` for
//! the CI verification job to re-check with the `c3verify` CLI.

use c3_apps::{DenseCg, Laplace};
use c3_core::{
    C3App, C3Config, Chunker, PipelineConfig, RecoveryMode, WriteMode,
};
use ckptstore::FaultPlan;
use ftfuzz::{run_case, Adversary};

/// Asynchronous incremental writing with a small queue, so staging and
/// the application genuinely overlap.
const ASYNC: WriteMode = WriteMode::Async {
    writers: 2,
    queue_depth: 4,
};

/// One matrix row: on slow storage (puts delayed so the asynchronous
/// write window is wide enough), a kill inside checkpoint `round`'s
/// write window, with the job writing through `io`.
fn kill_mid_write_case<A>(
    name: &str,
    app: &A,
    interval: u64,
    (seed, round): (u64, u64),
    io: &PipelineConfig,
) where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    let adv = Adversary {
        faults: FaultPlan::none().slow_ms(1),
        write_mode: ASYNC,
        ..Adversary::kill_during_async_write(seed, 4, interval, round)
    };
    let job = C3Config::every_ops(interval).with_io(io.clone());
    let out = run_case(name, 4, app, &job, &adv).clean(name);
    assert!(out.restarts >= 1, "{name}: the kill must actually fire");
    // Every rollback restarted from a committed checkpoint (or from
    // scratch, id 0) — never beyond what was ever committed.
    let last = out.last_committed.expect("committed checkpoints");
    for &from in &out.recovered_from {
        assert!(
            from <= last,
            "{name}: recovered from {from} but only {last} ever committed"
        );
    }
}

#[test]
fn dense_cg_survives_kills_during_async_writes() {
    for (seed, round) in [(1u64, 2u64), (2, 3), (3, 4)] {
        kill_mid_write_case(
            &format!("dense_cg_kill_s{seed}_r{round}"),
            &DenseCg::new(32, 30),
            10,
            (seed, round),
            &PipelineConfig::default().with_chunker(Chunker::cdc(1024)),
        );
    }
}

#[test]
fn laplace_survives_kills_during_async_writes() {
    for (seed, round) in [(4u64, 2u64), (5, 3), (6, 4)] {
        kill_mid_write_case(
            &format!("laplace_kill_s{seed}_r{round}"),
            &Laplace { n: 16, iters: 36 },
            9,
            (seed, round),
            &PipelineConfig::default(),
        );
    }
}

#[test]
fn dense_cg_killed_after_clean_lines_recovers_identically() {
    // From its second line on, a rank's matrix block reaches storage as
    // a clean reference. A kill well after that must roll back to (or,
    // localized, catch up over) lines made of such references and still
    // reproduce the failure-free outputs bit for bit — on the rank's own
    // thread and through the background writers alike.
    let app = DenseCg::new(32, 30);
    let modes = [("sync", WriteMode::Sync), ("async", ASYNC)];
    let recoveries = [
        ("rollback", RecoveryMode::FullRestart),
        ("localized", RecoveryMode::Localized),
    ];
    for (m, write_mode) in modes {
        for (r, recovery) in recoveries {
            let name = format!("clean_lines_{m}_{r}");
            let adv = Adversary {
                write_mode,
                recovery,
                ..Adversary::single(2, 300)
            };
            let job = C3Config::every_ops(10);
            let out = run_case(&name, 4, &app, &job, &adv).clean(&name);
            match recovery {
                RecoveryMode::FullRestart => {
                    assert_eq!(out.restarts, 1, "{name}");
                    assert!(
                        out.recovered_from[0] >= 3,
                        "{name}: the kill must follow two clean lines, \
                         recovered from {:?}",
                        out.recovered_from
                    );
                }
                RecoveryMode::Localized => {
                    assert_eq!((out.restarts, out.splices), (0, 1), "{name}");
                }
            }
            for s in &out.stats {
                assert!(s.app_state_bytes_clean > 0, "{name}: {s:?}");
            }
        }
    }
}

//! Race-mutation tests: the happens-before checker must accept genuine
//! traces and flag deliberately de-synchronized variants of them.
//!
//! Each test records a clean trace from a real job, asserts it is
//! race-clean, applies exactly one mutation that *reorders* protocol
//! events (payload swaps between records — the checker orders each
//! rank's stream by `seq`, so swapping payloads is the reordering), and
//! asserts the corresponding R-invariant fires. The mutations hoist an
//! anchor event (commit, drain barrier, GC sweep) to just after the
//! round start, or a rank's checkpoint to the head of its stream —
//! positions every transitive happens-before path provably cannot
//! reach, so the assertions never depend on scheduling luck.

use c3_apps::DenseCg;
use c3_core::epoch::MsgClass;
use c3_core::trace::{
    encode_trace, phase_code, TraceEvent, TraceRecord, TraceSink,
};
use c3_core::{run_job, C3Config};
use c3verify::{race, race_check};

mod common;

/// The first late-classified receive's epoch `c` that is a committed
/// checkpoint of `records`, if any.
fn late_commit(records: &[TraceRecord]) -> Option<u64> {
    let commits = race_check(records).commits;
    records.iter().find_map(|r| match r.event {
        TraceEvent::RecvClassified {
            class: MsgClass::Late,
            receiver_epoch,
            ..
        } => Some(u64::from(receiver_epoch)).filter(|e| commits.contains(e)),
        _ => None,
    })
}

/// Record one clean Laplace trace containing a committed checkpoint `c`
/// with a late-classified receive of epoch `c`.
fn clean_trace_with_late_commit() -> (Vec<TraceRecord>, u64) {
    let records =
        common::laplace_trace("race_mutation", |r| late_commit(r).is_some());
    let c = late_commit(&records).expect("accepted for its late commit");
    (records, c)
}

/// Index (into `records`) of the rank-0 record for checkpoint `c`'s
/// round start.
fn round_start(records: &[TraceRecord], c: u64) -> usize {
    records
        .iter()
        .position(|r| {
            r.rank == 0
                && matches!(
                    r.event,
                    TraceEvent::InitiatorPhase {
                        phase: phase_code::COLLECTING_READY,
                        ckpt,
                    } if ckpt == c
                )
        })
        .expect("committed checkpoint must have a round start")
}

/// Index of the rank-0 record whose `seq` immediately follows record
/// `after` in rank 0's stream.
fn next_on_rank0(records: &[TraceRecord], after: usize) -> usize {
    let seq = records[after].seq;
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.rank == 0 && r.seq > seq)
        .min_by_key(|(_, r)| r.seq)
        .map(|(i, _)| i)
        .expect("round start cannot be rank 0's last event")
}

/// Swap the payloads of two records (the streams' `seq` order is
/// untouched, so this reorders the *events*, not the encoding).
fn swap_events(records: &mut [TraceRecord], a: usize, b: usize) {
    let tmp = records[a].event.clone();
    records[a].event = records[b].event.clone();
    records[b].event = tmp;
}

/// True when invariant `inv` appears among the race-check violations.
fn flags(records: &[TraceRecord], inv: &str) -> bool {
    race_check(records)
        .violations
        .iter()
        .any(|v| v.invariant == inv)
}

/// Hoist an anchor event of checkpoint `c` (found by `pick`, which
/// receives `c`) to the slot right after `c`'s round start and return
/// the mutated trace.
fn hoist_to_round_start(
    pick: impl Fn(&TraceRecord, u64) -> bool,
) -> (Vec<TraceRecord>, u64) {
    let (mut records, c) = clean_trace_with_late_commit();
    let anchor = records
        .iter()
        .position(|r| r.rank == 0 && pick(r, c))
        .expect("anchor event must exist on rank 0");
    let slot = next_on_rank0(&records, round_start(&records, c));
    swap_events(&mut records, anchor, slot);
    (records, c)
}

#[test]
fn healthy_laplace_trace_is_race_clean() {
    let (records, _) = clean_trace_with_late_commit();
    let report = race_check(&records);
    assert!(report.is_clean(), "{}", report.render());
    assert!(!report.commits.is_empty());
}

/// Dense CG runs collectives every iteration: the clique edges must
/// order the rounds without fabricating a cycle or a race.
#[test]
fn healthy_dense_cg_trace_is_race_clean() {
    let sink = TraceSink::new();
    let cfg = C3Config::every_ops(16).with_trace(sink.clone());
    let app = DenseCg::new(48, 10);
    run_job(3, &cfg, None, &app).expect("reference job");
    let report = race_check(&sink.take());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn hoisted_commit_races_late_messages_and_finalizes() {
    let (records, c) = hoist_to_round_start(
        |r, c| matches!(r.event, TraceEvent::Commit { ckpt } if ckpt == c),
    );
    // With the commit moved to the top of its round, every late delivery
    // of epoch `c` and every rank's log finalization for `c` lose their
    // happens-before path to it.
    let report = race_check(&records);
    assert!(
        report.violations.iter().any(|v| v.invariant == race::R1),
        "hoisted commit {c} must race its epoch's late deliveries:\n{}",
        report.render()
    );
    assert!(
        report.violations.iter().any(|v| v.invariant == race::R2),
        "hoisted commit {c} must race the log finalizations:\n{}",
        report.render()
    );
}

#[test]
fn hoisted_drain_barrier_races_staged_blobs() {
    let (records, _) = hoist_to_round_start(|r, c| {
        matches!(
            r.event,
            TraceEvent::PipelineDrained { ckpt, .. } if ckpt == c
        )
    });
    assert!(
        flags(&records, race::R3),
        "a drain barrier hoisted above the round's blob writes must \
         race them"
    );
}

#[test]
fn hoisted_gc_sweep_races_blob_writes() {
    let (records, _) = hoist_to_round_start(
        |r, c| matches!(r.event, TraceEvent::GcRan { kept } if kept == c),
    );
    assert!(
        flags(&records, race::R5),
        "a GC sweep hoisted above the round's blob writes must race them"
    );
}

#[test]
fn unrequested_checkpoint_races_the_round() {
    let (mut records, c) = clean_trace_with_late_commit();
    // Move some non-initiator rank's checkpoint for `c` to the head of
    // its stream: nothing can precede the stream head, so the checkpoint
    // is provably unordered with the round that requested it.
    let anchor = records
        .iter()
        .position(|r| {
            r.rank != 0
                && matches!(
                    r.event,
                    TraceEvent::CheckpointTaken { ckpt, .. } if ckpt == c
                )
        })
        .expect("a worker rank must have checkpointed for the commit");
    let rank = records[anchor].rank;
    let head = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.rank == rank)
        .min_by_key(|(_, r)| r.seq)
        .map(|(i, _)| i)
        .unwrap();
    assert_ne!(anchor, head, "checkpoint cannot already lead the stream");
    swap_events(&mut records, anchor, head);
    assert!(
        flags(&records, race::R4),
        "a checkpoint at the stream head must race the initiator round"
    );
}

/// The `race` subcommand: exit 0 on a clean artifact, 1 on a mutated
/// one, 2 on garbage — same convention as the default `check` mode.
#[test]
fn race_subcommand_exit_codes() {
    use std::process::Command;

    let dir =
        std::env::temp_dir().join(format!("c3race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (clean, c) = clean_trace_with_late_commit();
    let clean_path = dir.join("clean.c3trace");
    std::fs::write(&clean_path, encode_trace(&clean)).unwrap();

    let mut raced = clean;
    let anchor = raced
        .iter()
        .position(|r| {
            r.rank == 0
                && matches!(r.event, TraceEvent::Commit { ckpt } if ckpt == c)
        })
        .unwrap();
    let slot = next_on_rank0(&raced, round_start(&raced, c));
    swap_events(&mut raced, anchor, slot);
    let raced_path = dir.join("raced.c3trace");
    std::fs::write(&raced_path, encode_trace(&raced)).unwrap();

    let garbage_path = dir.join("garbage.c3trace");
    std::fs::write(&garbage_path, b"not a trace").unwrap();

    let exe = env!("CARGO_BIN_EXE_c3verify");
    let run = |args: &[&std::ffi::OsStr]| {
        Command::new(exe)
            .args(args)
            .output()
            .expect("spawn c3verify")
    };

    let ok = run(&["race".as_ref(), clean_path.as_os_str()]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    let bad = run(&["race".as_ref(), raced_path.as_os_str()]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("R1") || stdout.contains("R2"), "{stdout}");

    let io = run(&["race".as_ref(), garbage_path.as_os_str()]);
    assert_eq!(io.status.code(), Some(2), "{io:?}");

    std::fs::remove_dir_all(&dir).ok();
}

//! Mutation tests for the localized-recovery invariants I15/I16: the
//! analyzer must accept a genuine spliced trace — one where a killed
//! rank was respawned in place while the survivors kept running — and
//! reject deliberately corrupted variants of its splice structure.
//!
//! Each test records a clean trace from a real job running under
//! [`RecoveryMode::Localized`] with one injected kill, asserts it is
//! clean under both the state analyzer and the race checker, applies
//! exactly one corruption, and asserts the corresponding invariant is
//! flagged.

use c3_apps::Laplace;
use c3_core::trace::control_kind::MY_SEND_COUNT;
use c3_core::trace::{decode_trace, TraceEvent, TraceRecord, TraceSink};
use c3_core::{run_job, C3Config, RecoveryMode};
use c3verify::invariant;

mod common;

/// The rank the schedule kills (never 0: the initiator escalates).
const VICTIM: u32 = 1;

/// Record one clean spliced trace: Laplace on 3 ranks, rank 1 killed
/// mid-attempt, repaired by a splice (no global rollback).
fn spliced_trace() -> Vec<TraceRecord> {
    let sink = TraceSink::new();
    let cfg = C3Config::every_ops(8)
        .with_failure(VICTIM as usize, 60)
        .with_recovery(RecoveryMode::Localized)
        .with_trace(sink.clone());
    let report = run_job(3, &cfg, None, &Laplace { n: 12, iters: 24 })
        .expect("spliced job");
    assert_eq!(report.restarts, 0, "a splice avoids the global rollback");
    assert_eq!(report.splices, 1, "the kill must be repaired by a splice");
    let records = sink.take();
    assert!(
        records.iter().any(|r| r.incarnation > 0),
        "trace must contain a respawned incarnation's stream"
    );
    common::assert_clean("splice_mutation", &records);
    records
}

fn position(
    records: &[TraceRecord],
    pred: impl Fn(&TraceRecord) -> bool,
) -> usize {
    records
        .iter()
        .position(pred)
        .expect("event must be present")
}

#[test]
fn dropping_the_respawn_announcement_is_detected() {
    let mut records = spliced_trace();
    let pos = position(&records, |r| {
        matches!(r.event, TraceEvent::RankRespawned { .. })
    });
    records.remove(pos);
    assert!(
        common::flags(&records, invariant::I15),
        "a respawned stream without RankRespawned must violate I15"
    );
}

#[test]
fn forging_the_announced_incarnation_is_detected() {
    let mut records = spliced_trace();
    let pos = position(&records, |r| {
        matches!(r.event, TraceEvent::RankRespawned { .. })
    });
    if let TraceEvent::RankRespawned { incarnation, .. } =
        &mut records[pos].event
    {
        *incarnation += 1;
    }
    assert!(
        common::flags(&records, invariant::I15),
        "a respawn announcing the wrong incarnation must violate I15"
    );
}

#[test]
fn erasing_the_superseded_failure_is_detected() {
    let mut records = spliced_trace();
    let pos = position(&records, |r| {
        r.rank == VICTIM
            && r.incarnation == 0
            && matches!(r.event, TraceEvent::FailStop { .. })
    });
    records.remove(pos);
    assert!(
        common::flags(&records, invariant::I15),
        "a superseded stream that does not end in a failure must \
         violate I15"
    );
}

#[test]
fn an_incarnation_gap_is_detected() {
    let mut records = spliced_trace();
    for r in records.iter_mut() {
        if r.incarnation > 0 {
            r.incarnation += 1;
        }
    }
    assert!(
        common::flags(&records, invariant::I15),
        "incarnations 0 and 2 without 1 must violate I15"
    );
}

#[test]
fn dropping_the_catchup_completion_is_detected() {
    let mut records = spliced_trace();
    let pos = position(&records, |r| {
        matches!(r.event, TraceEvent::SpliceReplayed { .. })
    });
    records.remove(pos);
    assert!(
        common::flags(&records, invariant::I16),
        "a finished respawn without a catch-up completion must \
         violate I16"
    );
}

#[test]
fn duplicating_the_catchup_completion_is_detected() {
    let mut records = spliced_trace();
    let pos = position(&records, |r| {
        matches!(r.event, TraceEvent::SpliceReplayed { .. })
    });
    let mut dup = records[pos].clone();
    dup.seq += 1_000_000; // append to the same stream, well past its end
    records.push(dup);
    assert!(
        common::flags(&records, invariant::I16),
        "two catch-up completions in one incarnation must violate I16"
    );
}

#[test]
fn moving_catchup_into_an_original_incarnation_is_detected() {
    let mut records = spliced_trace();
    let pos = position(&records, |r| {
        matches!(r.event, TraceEvent::SpliceReplayed { .. })
    });
    let mut moved = records[pos].clone();
    records.remove(pos);
    // Re-home the completion onto a survivor's (incarnation-0) stream.
    moved.rank = (VICTIM + 1) % 3;
    moved.incarnation = 0;
    moved.seq = 1_000_000;
    records.push(moved);
    assert!(
        common::flags(&records, invariant::I16),
        "a catch-up completion in an original incarnation must \
         violate I16"
    );
}

#[test]
fn shrinking_the_replayed_counter_is_detected() {
    let mut records = spliced_trace();
    // Claim many frames were already replayed when the incarnation
    // started, more than the completion reports in total.
    let pos = position(&records, |r| {
        matches!(r.event, TraceEvent::RankRespawned { .. })
    });
    if let TraceEvent::RankRespawned { replayed, .. } = &mut records[pos].event
    {
        *replayed = u64::MAX;
    }
    assert!(
        common::flags(&records, invariant::I16),
        "a catch-up replaying fewer frames than the respawn already \
         observed must violate I16"
    );
}

/// A trace `spliced_trace()` recorded once and the analyzer rejected
/// (I4): rank 1, killed after its second checkpoint, was respawned and
/// re-took checkpoints 1 and 2 with other send counts than the
/// incarnation that died. These are facts of the trace, not a verdict.
#[test]
fn golden_i4_splice_trace_records_two_sets_of_send_counts() {
    let records =
        decode_trace(include_bytes!("golden/splice_i4.c3trace")).unwrap();
    assert_eq!(records.len(), 569);
    // The first two `mySendCount`s, those of epochs 0 and 1, in one
    // incarnation's stream: sent to rank 0, or received from rank 1.
    let counts = |rank: u32, incarnation: u32, sent: bool| -> Vec<u64> {
        let stream = records
            .iter()
            .filter(|r| (r.rank, r.incarnation) == (rank, incarnation));
        let count = |r: &TraceRecord| match r.event {
            TraceEvent::ControlSent {
                dst: 0,
                kind: MY_SEND_COUNT,
                arg,
            } if sent => Some(arg),
            TraceEvent::ControlRecv {
                src: VICTIM,
                kind: MY_SEND_COUNT,
                arg,
            } if !sent => Some(arg),
            _ => None,
        };
        stream.filter_map(count).take(2).collect()
    };
    assert_eq!(counts(VICTIM, 0, true), [3, 5], "sent by the one that died");
    assert_eq!(counts(VICTIM, 1, true), [2, 6], "sent by the respawned one");
    assert_eq!(counts(0, 0, false), [3, 5], "received by rank 0");
    assert_eq!(counts(2, 0, false), [3, 5], "received by rank 2");
}

//! Mutation tests: the analyzer must accept a genuine trace and reject
//! deliberately corrupted variants of it.
//!
//! Each test records a clean trace from a real job (Laplace on 3 ranks
//! with frequent checkpoints, so every message class and several
//! initiator rounds occur), asserts it is clean, applies exactly one
//! corruption, and asserts the corresponding invariant is flagged.

use c3_apps::Neurosys;
use c3_core::epoch::MsgClass;
use c3_core::logrec::coll_kind;
use c3_core::trace::{TraceEvent, TraceRecord, TraceSink};
use c3_core::{run_job, C3Config};
use c3verify::{analyze, invariant};

mod common;

/// A clean trace with a late-classified receive and a logged late
/// message. Returns the records of the (single) attempt.
fn clean_trace() -> Vec<TraceRecord> {
    common::laplace_trace("mutation", |records| {
        let has_late_class = records.iter().any(|r| {
            matches!(
                r.event,
                TraceEvent::RecvClassified {
                    class: MsgClass::Late,
                    ..
                }
            )
        });
        let has_late_logged = records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::LateLogged { .. }));
        has_late_class && has_late_logged
    })
}

#[test]
fn dropping_a_log_record_is_detected() {
    let mut records = clean_trace();
    let pos = records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::LateLogged { .. }))
        .expect("trace must contain a logged late message");
    records.remove(pos);
    assert!(
        common::flags(&records, invariant::I3),
        "dropped LateLogged must violate I3"
    );
}

#[test]
fn reordering_initiator_phases_is_detected() {
    let mut records = clean_trace();
    // The analyzer orders each rank's stream by seq, so reordering means
    // swapping the *payloads* of two phase records, not the Vec order.
    let phases: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.event, TraceEvent::InitiatorPhase { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(
        phases.len() >= 2,
        "trace must contain at least one full initiator round"
    );
    let (a, b) = (phases[0], phases[1]);
    let tmp = records[a].event.clone();
    records[a].event = records[b].event.clone();
    records[b].event = tmp;
    let report = analyze(&records);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == invariant::I9
                || v.invariant == invariant::I5),
        "swapped initiator phases must violate I9 or I5:\n{}",
        report.render()
    );
}

#[test]
fn flipping_a_late_classification_is_detected() {
    let mut records = clean_trace();
    let rec = records
        .iter_mut()
        .find(|r| {
            matches!(
                r.event,
                TraceEvent::RecvClassified {
                    class: MsgClass::Late,
                    ..
                }
            )
        })
        .expect("trace must contain a late-classified receive");
    if let TraceEvent::RecvClassified { class, .. } = &mut rec.event {
        *class = MsgClass::IntraEpoch;
    }
    let report = analyze(&records);
    // The flipped receive no longer pairs with any send of the claimed
    // epoch (I2) and the log append that follows it is orphaned (I3).
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == invariant::I2),
        "flipped classification must violate I2:\n{}",
        report.render()
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == invariant::I3),
        "orphaned log append must violate I3:\n{}",
        report.render()
    );
}

#[test]
fn corrupting_a_send_count_announcement_is_detected() {
    let mut records = clean_trace();
    let rec = records
        .iter_mut()
        .find(|r| {
            matches!(
                &r.event,
                TraceEvent::CheckpointTaken { send_counts, .. }
                    if send_counts.iter().any(|c| *c > 0)
            )
        })
        .expect("trace must contain a checkpoint with non-zero sends");
    if let TraceEvent::CheckpointTaken { send_counts, .. } = &mut rec.event {
        let q = send_counts.iter().position(|c| *c > 0).unwrap();
        send_counts[q] += 1;
    }
    assert!(
        common::flags(&records, invariant::I4),
        "corrupted mySendCount must violate I4"
    );
}

#[test]
fn forging_an_epoch_is_detected() {
    let mut records = clean_trace();
    let rec = records
        .iter_mut()
        .find(|r| matches!(r.event, TraceEvent::CheckpointTaken { .. }))
        .expect("trace must contain a checkpoint");
    if let TraceEvent::CheckpointTaken { ckpt, .. } = &mut rec.event {
        *ckpt += 1;
    }
    assert!(
        common::flags(&records, invariant::I1),
        "skipped epoch must violate I1"
    );
}

#[test]
fn dropping_a_pipeline_drain_is_detected() {
    let mut records = clean_trace();
    let pos = records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::PipelineDrained { .. }))
        .expect("trace must contain a pipeline drain barrier");
    records.remove(pos);
    assert!(
        common::flags(&records, invariant::I13),
        "a commit without its drain barrier must violate I13"
    );
}

#[test]
fn undercounting_a_drain_barrier_is_detected() {
    let mut records = clean_trace();
    let rec = records
        .iter_mut()
        .find(|r| matches!(r.event, TraceEvent::PipelineDrained { .. }))
        .expect("trace must contain a pipeline drain barrier");
    if let TraceEvent::PipelineDrained { blobs, .. } = &mut rec.event {
        *blobs -= 1;
    }
    assert!(
        common::flags(&records, invariant::I13),
        "a drain accounting for fewer blobs than staged must violate I13"
    );
}

#[test]
fn flipping_a_piggybacked_logging_flag_is_detected() {
    let mut records = clean_trace();
    let rec = records
        .iter_mut()
        .find(|r| {
            matches!(
                r.event,
                TraceEvent::RecvClassified {
                    class: MsgClass::Late,
                    ..
                }
            )
        })
        .expect("trace must contain a late-classified receive");
    if let TraceEvent::RecvClassified { sender_logging, .. } = &mut rec.event {
        *sender_logging = !*sender_logging;
    }
    assert!(
        common::flags(&records, invariant::I2),
        "corrupted piggybacked amLogging must violate I2"
    );
}

/// The first of up to 32 clean Neurosys traces on 3 ranks (five fused
/// allgathers and one answered gather to rank 0 per iteration) that
/// `accept` takes. Whether a contributor is still logging when it
/// reaches a gather is up to thread timing.
fn neurosys_trace(
    name: &str,
    accept: impl Fn(&[TraceRecord]) -> bool,
) -> Vec<TraceRecord> {
    for _ in 0..32 {
        let sink = TraceSink::new();
        let cfg = C3Config::every_ops(10).with_trace(sink.clone());
        run_job(3, &cfg, None, &Neurosys::new(8, 30)).expect("reference job");
        let records = sink.take();
        common::assert_clean(name, &records);
        if accept(&records) {
            return records;
        }
    }
    panic!("{name}: no run out of 32 had the collectives it needs");
}

/// True for the record of a gather contributor that asked for the fold.
fn asked(r: &TraceRecord) -> bool {
    r.rank != 0
        && matches!(
            r.event,
            TraceEvent::CollectiveControl {
                kind: coll_kind::GATHER,
                logging: true,
                ..
            }
        )
}

#[test]
fn flipping_one_ranks_collective_fold_is_detected() {
    // Neurosys is all collectives; the control word reaches every
    // informed rank folded (fused into allgathers; in the root's answer,
    // or at the root itself, for the gather), and I7 joins the k-th
    // collective across ranks. The flipped record is of a rank that was
    // not logging: its own conjunction rule (`logged == logging &&
    // !stopped_at_max`) holds either way, so only the cross-rank
    // agreement can notice. For the gather it is the root's record, whose
    // informed peers may be none at all: the participants' states still
    // give the fold away.
    for (kind, rank) in [(coll_kind::ALLGATHER, 1), (coll_kind::GATHER, 0)] {
        let mut records = neurosys_trace("mutation_collective", |_| true);
        let rec = records
            .iter_mut()
            .find(|r| {
                r.rank == rank
                    && matches!(
                        r.event,
                        TraceEvent::CollectiveControl { kind: k, logging: false, .. }
                            if k == kind
                    )
            })
            .expect("trace must contain a collective outside a logging window");
        if let TraceEvent::CollectiveControl { stopped_at_max, .. } =
            &mut rec.event
        {
            *stopped_at_max = !*stopped_at_max;
        }
        assert!(
            common::flags(&records, invariant::I7),
            "kind {kind}: one rank disagreeing on stopped_at_max must \
             violate I7"
        );
    }
}

#[test]
fn a_logging_contributor_marked_uninformed_is_detected() {
    // A gather contributor that was logging asked for the fold and got
    // it; a record saying it left without the fold contradicts that.
    let mut records = neurosys_trace("mutation_uninformed", |records| {
        records.iter().any(asked)
    });
    let rec = records.iter_mut().find(|r| asked(r)).expect("accepted");
    if let TraceEvent::CollectiveControl {
        comm, kind, epoch, ..
    } = rec.event
    {
        rec.event = TraceEvent::CollectiveUninformed {
            comm,
            kind,
            epoch,
            logging: true,
        };
    }
    assert!(
        common::flags(&records, invariant::I7),
        "a logging contributor without the fold must violate I7"
    );
}

struct Step {
    i: u64,
    acc: u64,
}
ckptstore::impl_saveload_struct!(Step { i: u64, acc: u64 });

/// Three ranks, two world collectives per step. Ranks 0 and 1
/// checkpoint at the end of even steps, rank 2 at the end of odd ones,
/// and rank 0 requests a checkpoint between the two calls of every
/// fourth even step, where no rank is before its previous site and every
/// rank has the request after the second call. So in the odd step after
/// a line rank 2 is behind it and both calls straddle it. Rank 2 sends
/// rank 0 a message before each odd step's site, which rank 0 receives
/// after the next even step's calls: the one sent before rank 2's
/// checkpoint is late, so every rank is still logging, past the line,
/// in those calls.
struct StaggeredApp;

impl c3_core::C3App for StaggeredApp {
    type State = Step;
    type Output = u64;

    fn init(&self, _p: &mut c3_core::Process<'_>) -> c3_core::C3Result<Step> {
        Ok(Step { i: 0, acc: 1 })
    }

    fn run(
        &self,
        p: &mut c3_core::Process<'_>,
        s: &mut Step,
    ) -> c3_core::C3Result<u64> {
        let world = p.world();
        let me = p.rank() as u64;
        // Odd, so the last step is even and receives the last message.
        while s.i < 33 {
            let sum = p.allreduce_t::<u64>(
                world,
                c3_core::ReduceOp::Sum,
                &[s.acc, me],
            )?;
            if s.i % 8 == 2 {
                p.request_checkpoint()?;
            }
            let all = p.allgather_flat_t::<u64>(world, &[s.acc ^ s.i])?;
            s.acc = sum
                .iter()
                .chain(&all)
                .fold(s.acc, |h, &v| h.wrapping_mul(31).wrapping_add(v));
            let odd = s.i % 2 == 1;
            if odd && me == 2 {
                p.send(world, 0, 7, &s.i.to_le_bytes())?;
            } else if !odd && me == 0 && s.i > 0 {
                p.recv(world, 2, 7)?;
            }
            s.i += 1;
            if s.i.is_multiple_of(2) == (me == 2) {
                p.potential_checkpoint(s)?;
            }
        }
        Ok(s.acc)
    }
}

/// A clean trace of [`StaggeredApp`], checkpointed on request only.
fn staggered_trace(name: &str) -> Vec<TraceRecord> {
    let sink = TraceSink::new();
    let cfg = C3Config {
        trigger: c3_core::CheckpointTrigger::Manual,
        ..C3Config::default()
    }
    .with_trace(sink.clone());
    run_job(3, &cfg, None, &StaggeredApp).expect("reference job");
    let records = sink.take();
    common::assert_clean(name, &records);
    records
}

/// The first record, on a rank other than 0, of a world collective whose
/// `(logging, min_epoch < max_epoch, stopped_at_max, logged)` is `want`.
fn coll_record(
    records: &mut [TraceRecord],
    want: (bool, bool, bool, bool),
) -> &mut TraceRecord {
    records
        .iter_mut()
        .find(|r| {
            r.rank != 0
                && matches!(
                    r.event,
                    TraceEvent::CollectiveControl {
                        comm: 0,
                        logging,
                        min_epoch,
                        max_epoch,
                        stopped_at_max,
                        logged,
                        ..
                    } if (logging, min_epoch < max_epoch, stopped_at_max, logged)
                        == want
                )
        })
        .unwrap_or_else(|| panic!("no collective record {want:?}"))
}

fn set_logged(rec: &mut TraceRecord, to: bool) {
    if let TraceEvent::CollectiveControl { logged, .. } = &mut rec.event {
        *logged = to;
    }
}

#[test]
fn a_same_epoch_result_marked_logged_is_detected() {
    // Every participant is past its checkpoint: each re-executes the call
    // on recovery, so logging its result is a departure from the rule.
    let mut records = staggered_trace("mutation_same_epoch");
    set_logged(coll_record(&mut records, (true, false, false, false)), true);
    assert!(
        common::flags(&records, invariant::I7),
        "a same-epoch result marked logged must violate I7"
    );
}

#[test]
fn a_straddling_result_left_unlogged_is_detected() {
    // A participant behind the line will not re-execute the call, so a
    // logging participant that leaves its result out cannot replay it.
    let mut records = staggered_trace("mutation_straddle");
    set_logged(coll_record(&mut records, (true, true, false, true)), false);
    assert!(
        common::flags(&records, invariant::I7),
        "a straddling result left unlogged must violate I7"
    );
}

#[test]
fn flipping_one_ranks_min_epoch_is_caught_by_the_join() {
    // The flipped record is of a rank outside its logging window: its
    // own rule holds whatever the minimum, so only the cross-rank join
    // (every informed participant holds the same fold, and the minimum
    // is the participants' minimum entry epoch) can notice.
    let mut records = staggered_trace("mutation_min_epoch");
    let rec = records
        .iter_mut()
        .find(|r| {
            r.rank == 1
                && matches!(
                    r.event,
                    TraceEvent::CollectiveControl {
                        comm: 0,
                        logging: false,
                        min_epoch,
                        max_epoch,
                        ..
                    } if min_epoch == max_epoch && max_epoch > 0
                )
        })
        .expect("a same-epoch call outside a logging window");
    if let TraceEvent::CollectiveControl { min_epoch, .. } = &mut rec.event {
        *min_epoch -= 1;
    }
    let report = analyze(&records);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == invariant::I7
                && v.detail.starts_with("world collective")
                && v.detail.contains("min_epoch")),
        "one rank disagreeing on min_epoch must violate I7 in the join:\n{}",
        report.render()
    );
}

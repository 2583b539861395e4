//! The offline protocol-invariant analyzer.
//!
//! [`analyze`] consumes the merged per-rank event streams recorded by
//! `c3_core::trace` and checks the C³ protocol's safety invariants
//! (Bronevetsky et al., PPoPP 2003). Records are grouped by job attempt
//! (each attempt is a complete restart: in-flight traffic does not cross
//! attempts) and, within an attempt, replayed per rank in decision order;
//! cross-rank properties are then checked by joining streams through
//! message identities — exactly how the protocol itself correlates
//! events.
//!
//! Every invariant is a *safety* property, so a stream truncated by an
//! injected failure can never create a false positive: the analyzer
//! checks what happened, not what should still happen (obligations that
//! a failure legitimately cancels — e.g. "every classified-late message
//! is eventually logged" — are only enforced on streams that did not end
//! in a [`TraceEvent::FailStop`]).
//!
//! The checked invariants:
//!
//! * **I1 epoch-monotone** — a rank's epoch starts at 0 (or at the
//!   recovered checkpoint) and advances by exactly 1 per local
//!   checkpoint; every event's recorded epoch matches the replayed one
//!   (Section 3.1).
//! * **I2 classification** — every receive classified per Definition 1
//!   pairs with a real send whose epoch is `receiver_epoch - 1` (late),
//!   `receiver_epoch` (intra-epoch) or `receiver_epoch + 1` (early), with
//!   the piggybacked `amLogging` flag intact; consequently sender and
//!   receiver epochs never differ by more than one.
//! * **I3 late-logged-once** — a late-classified message is appended to
//!   the recovery log immediately and exactly once; log appends happen
//!   only for late-classified messages (Section 4.2).
//! * **I4 send-count-accounting** — `mySendCount` announcements equal the
//!   sender's actual per-destination send count for the closed epoch, the
//!   announcement arrives intact, and `readyToStopLogging` is sent only
//!   when every channel's late traffic balances: announced = prior early
//!   receipts + intra-epoch receipts of the closed epoch + late receipts
//!   of the logging epoch (Section 4.3, Figure 4).
//! * **I5 initiator-gating** — `stopLogging` is broadcast only after
//!   `readyToStopLogging` from *every* rank; `commit` only after
//!   `stoppedLogging` from every rank (Section 4.1).
//! * **I6 suppression** — suppressed re-sends occur only while
//!   re-executing the recovered epoch, at most once per recorded early
//!   message id, and suppression lists match the recorded early receipts
//!   (Section 4.4).
//! * **I7 collective-conjunction** — all informed participants of a
//!   collective agree on the folded control word `(max_epoch,
//!   stopped_at_max)`, folded over every participant; the maximum is
//!   actually attained; a result is logged iff the rank was logging and
//!   no max-epoch participant had stopped (Section 4.5). Only a gather or
//!   reduce contributor may leave uninformed, and only if it was not
//!   logging.
//! * **I8 barrier-alignment** — a barrier executes in a single epoch:
//!   lagging participants checkpoint up to the maximum first
//!   (Section 4.5).
//! * **I9 initiator-phase-order** — the initiator cycles
//!   `collecting-ready → collecting-stopped → idle/commit` with
//!   checkpoint numbers increasing by exactly 1 per round (Section 4.1).
//! * **I10 class-vs-logging** — late messages arrive only while the
//!   receiver is logging, early messages only while it is not
//!   (Definition 1 + Figure 4's classification context).
//! * **I11 replay-bounded** — log replay happens only during recovery and
//!   delivers at most the number of logged late messages (Section 4.4).
//! * **I12 commit-completeness** — a committed checkpoint has a local
//!   checkpoint *and* a finalized log on every rank (the recovery line is
//!   complete), and no rank checkpoints without a `pleaseCheckpoint`
//!   request or a barrier alignment forcing it.
//! * **I13 drain-before-commit** — with the asynchronous I/O pipeline, a
//!   checkpoint is committed only after the initiator's drain barrier for
//!   it returned, and the drained blob count equals the blobs all ranks
//!   staged for that checkpoint (two-phase commit over asynchronous
//!   writes). Enforced only on traces that contain pipeline events, so
//!   pre-pipeline recordings still analyze cleanly.
//! * **I15 splice-supersession** — under localized recovery a rank may
//!   appear several times per attempt, once per incarnation. Every
//!   superseded incarnation's stream ends in a `FailStop` (a rank is
//!   replaced only because it died), every respawned stream begins with
//!   a `RankRespawned` carrying its own incarnation number, and the
//!   incarnation numbers are contiguous from 0. Only the highest
//!   incarnation — the *effective stream* — feeds I1–I13: the spliced
//!   rank re-executes the attempt deterministically, so its effective
//!   stream joins with the survivors' exactly like a failure-free run.
//! * **I16 splice-catchup-once** — a respawned incarnation completes
//!   catch-up exactly once (one `SpliceReplayed` per respawn, none in
//!   original incarnations) unless it died mid-catch-up, and its final
//!   replayed-frame count never falls below the count observed when the
//!   incarnation started.
//!
//! Structural defects of the trace itself (duplicate sequence numbers,
//! ragged count vectors, initiator events off rank 0) are reported as
//! **T0 well-formed**.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use c3_core::epoch::MsgClass;
use c3_core::logrec::coll_kind;
use c3_core::trace::{control_kind, phase_code, TraceEvent, TraceRecord};

use crate::report::{Report, Violation};

/// Invariant identifiers used in [`Violation::invariant`].
pub mod invariant {
    /// Epochs advance by exactly one local checkpoint at a time.
    pub const I1: &str = "I1-epoch-monotone";
    /// Every classification pairs with a real send one epoch away at most.
    pub const I2: &str = "I2-classification";
    /// Late messages are logged immediately and exactly once.
    pub const I3: &str = "I3-late-logged-once";
    /// `mySendCount` / `receivedAll?` accounting balances.
    pub const I4: &str = "I4-send-count-accounting";
    /// The initiator waits for every rank before advancing a phase.
    pub const I5: &str = "I5-initiator-gating";
    /// Early re-sends are suppressed once each, only during recovery.
    pub const I6: &str = "I6-suppression";
    /// Collective participants agree on the conjunction-rule outcome.
    pub const I7: &str = "I7-collective-conjunction";
    /// Barriers execute in a single epoch.
    pub const I8: &str = "I8-barrier-alignment";
    /// Initiator phases cycle in order, one checkpoint per round.
    pub const I9: &str = "I9-initiator-phase-order";
    /// Late implies logging; early implies not logging.
    pub const I10: &str = "I10-class-vs-logging";
    /// Replay is recovery-only and bounded by the log.
    pub const I11: &str = "I11-replay-bounded";
    /// Committed checkpoints are complete on every rank.
    pub const I12: &str = "I12-commit-completeness";
    /// Asynchronously staged blobs are drained to storage before commit.
    pub const I13: &str = "I13-drain-before-commit";
    /// Superseded incarnations died; respawns announce themselves; the
    /// effective per-rank history is the highest incarnation's.
    pub const I15: &str = "I15-splice-supersession";
    /// Exactly one catch-up completion per respawned incarnation.
    pub const I16: &str = "I16-splice-catchup-once";
    /// The trace itself is structurally sound.
    pub const T0: &str = "T0-well-formed";
}

/// A send observed in a rank stream.
struct SendFact {
    comm: u64,
    dst: u32,
    epoch: u32,
    logging: bool,
    id: u32,
    suppressed: bool,
    seq: u64,
}

/// A classified receive observed in a rank stream.
struct RecvFact {
    comm: u64,
    src: u32,
    id: u32,
    class: MsgClass,
    sender_logging: bool,
    epoch: u32,
    seq: u64,
    /// True when the receive sits in a respawned incarnation's catch-up
    /// region (before its `SpliceReplayed` marker). Such receives re-enact
    /// the dead incarnation's tape, but polled control consumption is not
    /// order-faithful under replay, so the *classification* may diverge
    /// from the physical one — I2 pairs these by identity against the
    /// superseded incarnation's receive instead of trusting the class.
    catch_up: bool,
}

/// A collective control exchange observed in a rank stream.
struct CollFact {
    comm: u64,
    kind: u8,
    epoch: u32,
    logging: bool,
    /// False for an answered-form contributor that left without the
    /// fold; `max_epoch` and `stopped_at_max` are then meaningless.
    informed: bool,
    max_epoch: u32,
    stopped_at_max: bool,
    seq: u64,
}

/// Rank-0 items relevant to the initiator's phase machine, in stream
/// order.
enum IniItem {
    Phase { phase: u8, ckpt: u64, seq: u64 },
    Ready { src: u32 },
    Stopped { src: u32 },
    Commit { ckpt: u64, seq: u64 },
}

/// Everything the cross-rank passes need from one rank's stream.
#[derive(Default)]
struct RankFacts {
    recovered: Option<u64>,
    restored_early: Vec<u64>,
    /// ckpt -> (send_counts, early_counts, seq).
    checkpoints: BTreeMap<u64, (Vec<u64>, Vec<u64>, u64)>,
    finalized: BTreeSet<u64>,
    sends: Vec<SendFact>,
    recvs: Vec<RecvFact>,
    /// Epochs in which `readyToStopLogging` was sent, with seq.
    ready_epochs: Vec<(u32, u64)>,
    /// Per source rank: `mySendCount` arguments received, in order.
    msc_recv: Vec<Vec<u64>>,
    replays: u64,
    late_in_log: u64,
    colls: Vec<CollFact>,
    commits: Vec<(u64, u64)>,
    initiator_items: Vec<IniItem>,
    /// ckpt -> blobs this rank staged with the I/O pipeline.
    staged: BTreeMap<u64, u64>,
    /// Sends transmitted by superseded (dead) incarnations of this rank.
    /// They are physical wire traffic: survivors may have received them,
    /// and the respawn's re-execution of the same identity was squelched
    /// before it reached the wire.
    superseded_sends: Vec<SendFact>,
    /// Receives classified by superseded (dead) incarnations of this
    /// rank. They record the *physical* classification of each taped
    /// message — the ground truth when the respawn's catch-up replay
    /// classifies the same message differently.
    superseded_recvs: Vec<RecvFact>,
    /// Rank 0 only: (ckpt, blobs, seq) per pipeline drain barrier.
    drains: Vec<(u64, u64, u64)>,
    /// Rank 0 only: (kept ckpt, seq) per post-commit GC sweep.
    gcs: Vec<(u64, u64)>,
    failed: bool,
    last_seq: u64,
}

impl RankFacts {
    fn default_with_ranks(n: usize) -> Self {
        RankFacts {
            msc_recv: vec![Vec::new(); n],
            ..RankFacts::default()
        }
    }
}

/// Replay one rank's stream, checking the single-stream invariants and
/// collecting the facts the cross-rank passes join on.
fn scan_rank(
    attempt: u64,
    rank: u32,
    nranks: usize,
    stream: &[&TraceRecord],
    out: &mut Vec<Violation>,
) -> RankFacts {
    let mut f = RankFacts::default_with_ranks(nranks);
    let mut epoch: u32 = 0;
    let mut logging = false;
    let mut seen_epoch_event = false;
    // (src, id) of a late / early classification whose log record must be
    // the very next event.
    let mut pending_late: Option<(u32, u32)> = None;
    let mut pending_early: Option<(u32, u32)> = None;
    let mut please_ckpts: BTreeSet<u64> = BTreeSet::new();
    let mut barrier_target: Option<u64> = None;
    let mut last_ckpt_counts: Option<(u64, Vec<u64>)> = None;
    let mut suppressed_ids: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); nranks];
    let mut suppress_list_len: Vec<Option<u64>> = vec![None; nranks];
    let mut prev_seq: Option<u64> = None;
    // True once a respawned incarnation's `SpliceReplayed` marker has
    // passed: events before it are catch-up re-enactments of the dead
    // incarnation's tape.
    let mut caught_up = false;

    let mut flag = |inv: &'static str, seq: u64, detail: String| {
        out.push(Violation {
            invariant: inv,
            attempt,
            rank,
            seq,
            detail,
        });
    };

    for rec in stream {
        let seq = rec.seq;
        f.last_seq = seq;
        if prev_seq == Some(seq) {
            flag(invariant::T0, seq, "duplicate sequence number".into());
        }
        prev_seq = Some(seq);

        // I3 discipline: a late/early classification must be followed
        // immediately by its log record.
        match &rec.event {
            TraceEvent::LateLogged { .. }
            | TraceEvent::EarlyRecorded { .. } => {}
            _ => {
                if let Some((src, id)) = pending_late.take() {
                    flag(
                        invariant::I3,
                        seq,
                        format!(
                            "late message (src {src}, id {id}) classified in \
                             epoch {epoch} but never logged"
                        ),
                    );
                }
                if let Some((src, id)) = pending_early.take() {
                    flag(
                        invariant::I3,
                        seq,
                        format!(
                            "early message (src {src}, id {id}) classified in \
                             epoch {epoch} but its id was never recorded"
                        ),
                    );
                }
            }
        }

        match &rec.event {
            TraceEvent::RecoveryStart {
                ckpt,
                late_in_log,
                early_counts,
            } => {
                if seen_epoch_event {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "recovery from checkpoint {ckpt} started after \
                             epoch-bearing events (epoch {epoch})"
                        ),
                    );
                }
                if early_counts.len() != nranks {
                    flag(
                        invariant::T0,
                        seq,
                        format!(
                            "restored early-count vector has {} entries for \
                             {nranks} ranks",
                            early_counts.len()
                        ),
                    );
                }
                epoch = *ckpt as u32;
                logging = false;
                seen_epoch_event = true;
                f.recovered = Some(*ckpt);
                f.restored_early = early_counts.clone();
                f.late_in_log = *late_in_log;
            }
            TraceEvent::CheckpointTaken {
                ckpt,
                send_counts,
                early_counts,
            } => {
                seen_epoch_event = true;
                if *ckpt != u64::from(epoch) + 1 {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "local checkpoint {ckpt} taken from epoch {epoch} \
                             (expected checkpoint {})",
                            u64::from(epoch) + 1
                        ),
                    );
                }
                if send_counts.len() != nranks || early_counts.len() != nranks
                {
                    flag(
                        invariant::T0,
                        seq,
                        format!(
                            "checkpoint {ckpt} count vectors have {}/{} \
                             entries for {nranks} ranks",
                            send_counts.len(),
                            early_counts.len()
                        ),
                    );
                }
                let justified = please_ckpts.contains(ckpt)
                    || barrier_target == Some(*ckpt);
                if !justified {
                    flag(
                        invariant::I12,
                        seq,
                        format!(
                            "checkpoint {ckpt} taken without a \
                             pleaseCheckpoint request or barrier alignment"
                        ),
                    );
                }
                barrier_target = None;
                epoch = *ckpt as u32;
                logging = true;
                last_ckpt_counts = Some((*ckpt, send_counts.clone()));
                f.checkpoints.insert(
                    *ckpt,
                    (send_counts.clone(), early_counts.clone(), seq),
                );
            }
            TraceEvent::LogFinalized { ckpt, .. } => {
                if !logging {
                    flag(
                        invariant::I10,
                        seq,
                        format!(
                            "log for checkpoint {ckpt} finalized while not \
                             logging"
                        ),
                    );
                }
                if *ckpt != u64::from(epoch) {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "log finalized for checkpoint {ckpt} while in \
                             epoch {epoch}"
                        ),
                    );
                }
                logging = false;
                f.finalized.insert(*ckpt);
            }
            TraceEvent::Send {
                comm,
                dst,
                epoch: send_epoch,
                logging: send_logging,
                message_id,
                suppressed,
                ..
            } => {
                seen_epoch_event = true;
                if *send_epoch != epoch {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "send to {dst} piggybacked epoch {send_epoch} but \
                             the rank is in epoch {epoch}"
                        ),
                    );
                }
                if *send_logging != logging {
                    flag(
                        invariant::T0,
                        seq,
                        format!(
                            "send to {dst} piggybacked amLogging \
                             {send_logging} but the rank's flag is {logging}"
                        ),
                    );
                }
                if *suppressed {
                    match f.recovered {
                        None => flag(
                            invariant::I6,
                            seq,
                            format!(
                                "re-send to {dst} (id {message_id}) \
                                 suppressed in a fresh attempt"
                            ),
                        ),
                        Some(k) if u64::from(epoch) != k => flag(
                            invariant::I6,
                            seq,
                            format!(
                                "re-send to {dst} (id {message_id}) \
                                 suppressed in epoch {epoch}, not the \
                                 recovered epoch {k}"
                            ),
                        ),
                        Some(_) => {}
                    }
                    let dsti = *dst as usize;
                    if dsti < nranks
                        && !suppressed_ids[dsti].insert(*message_id)
                    {
                        flag(
                            invariant::I6,
                            seq,
                            format!(
                                "message id {message_id} to {dst} suppressed \
                                 twice"
                            ),
                        );
                    }
                }
                f.sends.push(SendFact {
                    comm: *comm,
                    dst: *dst,
                    epoch: *send_epoch,
                    logging: *send_logging,
                    id: *message_id,
                    suppressed: *suppressed,
                    seq,
                });
            }
            TraceEvent::RecvClassified {
                comm,
                src,
                message_id,
                class,
                sender_logging,
                receiver_epoch,
                receiver_logging,
                ..
            } => {
                seen_epoch_event = true;
                if *receiver_epoch != epoch || *receiver_logging != logging {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "receive from {src} recorded receiver state \
                             (epoch {receiver_epoch}, logging \
                             {receiver_logging}) but the replayed state is \
                             (epoch {epoch}, logging {logging})"
                        ),
                    );
                }
                match class {
                    MsgClass::Late => {
                        if !*receiver_logging {
                            flag(
                                invariant::I10,
                                seq,
                                format!(
                                    "late message from {src} (id \
                                     {message_id}) delivered in epoch \
                                     {receiver_epoch} while not logging"
                                ),
                            );
                        }
                        if *receiver_epoch == 0 {
                            flag(
                                invariant::I2,
                                seq,
                                format!(
                                    "message from {src} classified late in \
                                     epoch 0 (no previous epoch exists)"
                                ),
                            );
                        }
                        pending_late = Some((*src, *message_id));
                    }
                    MsgClass::Early => {
                        if *receiver_logging {
                            flag(
                                invariant::I10,
                                seq,
                                format!(
                                    "early message from {src} (id \
                                     {message_id}) delivered in epoch \
                                     {receiver_epoch} while logging"
                                ),
                            );
                        }
                        pending_early = Some((*src, *message_id));
                    }
                    MsgClass::IntraEpoch => {}
                }
                f.recvs.push(RecvFact {
                    comm: *comm,
                    src: *src,
                    id: *message_id,
                    class: *class,
                    sender_logging: *sender_logging,
                    epoch: *receiver_epoch,
                    seq,
                    catch_up: rec.incarnation > 0 && !caught_up,
                });
            }
            TraceEvent::LateLogged { src, message_id } => {
                if pending_late.take() != Some((*src, *message_id)) {
                    flag(
                        invariant::I3,
                        seq,
                        format!(
                            "log record (src {src}, id {message_id}) without \
                             a matching late classification"
                        ),
                    );
                }
            }
            TraceEvent::EarlyRecorded { src, message_id } => {
                if pending_early.take() != Some((*src, *message_id)) {
                    flag(
                        invariant::I3,
                        seq,
                        format!(
                            "early-id record (src {src}, id {message_id}) \
                             without a matching early classification"
                        ),
                    );
                }
            }
            TraceEvent::ReplayLate {
                src, message_id, ..
            } => {
                f.replays += 1;
                if f.recovered.is_none() {
                    flag(
                        invariant::I11,
                        seq,
                        format!(
                            "late message (src {src}, id {message_id}) \
                             replayed outside recovery"
                        ),
                    );
                }
            }
            TraceEvent::ControlSent { dst, kind, arg } => match *kind {
                control_kind::READY_TO_STOP_LOGGING => {
                    if !logging {
                        flag(
                            invariant::I4,
                            seq,
                            format!(
                                "readyToStopLogging sent in epoch {epoch} \
                                 while not logging"
                            ),
                        );
                    }
                    f.ready_epochs.push((epoch, seq));
                }
                control_kind::MY_SEND_COUNT => match &last_ckpt_counts {
                    Some((ckpt, counts)) => {
                        let expect = counts.get(*dst as usize).copied();
                        if expect != Some(*arg) {
                            flag(
                                invariant::I4,
                                seq,
                                format!(
                                    "mySendCount({arg}) to {dst} does \
                                         not match checkpoint {ckpt}'s \
                                         recorded count {expect:?}"
                                ),
                            );
                        }
                    }
                    None => flag(
                        invariant::I4,
                        seq,
                        format!(
                            "mySendCount({arg}) to {dst} sent before any \
                                 local checkpoint"
                        ),
                    ),
                },
                _ => {}
            },
            TraceEvent::ControlRecv { src, kind, arg } => {
                let srci = *src as usize;
                match *kind {
                    control_kind::PLEASE_CHECKPOINT => {
                        please_ckpts.insert(*arg);
                    }
                    control_kind::MY_SEND_COUNT => {
                        if srci < nranks {
                            f.msc_recv[srci].push(*arg);
                        } else {
                            flag(
                                invariant::T0,
                                seq,
                                format!(
                                    "mySendCount from out-of-range rank {src}"
                                ),
                            );
                        }
                    }
                    control_kind::READY_TO_STOP_LOGGING => {
                        f.initiator_items.push(IniItem::Ready { src: *src });
                    }
                    control_kind::STOPPED_LOGGING => {
                        f.initiator_items.push(IniItem::Stopped { src: *src });
                    }
                    _ => {}
                }
            }
            TraceEvent::InitiatorPhase { phase, ckpt } => {
                if rank != 0 {
                    flag(
                        invariant::T0,
                        seq,
                        format!("initiator phase event on rank {rank}"),
                    );
                }
                f.initiator_items.push(IniItem::Phase {
                    phase: *phase,
                    ckpt: *ckpt,
                    seq,
                });
            }
            TraceEvent::Commit { ckpt } => {
                if rank != 0 {
                    flag(
                        invariant::T0,
                        seq,
                        format!("commit event on rank {rank}"),
                    );
                }
                f.commits.push((*ckpt, seq));
                f.initiator_items.push(IniItem::Commit { ckpt: *ckpt, seq });
            }
            TraceEvent::CollectiveControl {
                comm,
                kind,
                epoch: coll_epoch,
                logging: was_logging,
                ..
            }
            | TraceEvent::CollectiveUninformed {
                comm,
                kind,
                epoch: coll_epoch,
                logging: was_logging,
            } => {
                seen_epoch_event = true;
                if *coll_epoch != epoch {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "collective (kind {kind}) recorded epoch \
                             {coll_epoch} but the rank is in epoch {epoch}"
                        ),
                    );
                }
                // The fold, where the rank came out of the call holding it.
                let fold = match &rec.event {
                    TraceEvent::CollectiveControl {
                        max_epoch,
                        stopped_at_max,
                        logged,
                        ..
                    } => Some((*max_epoch, *stopped_at_max, *logged)),
                    _ => None,
                };
                if let Some((max_epoch, stopped_at_max, logged)) = fold {
                    if max_epoch < *coll_epoch {
                        flag(
                            invariant::I7,
                            seq,
                            format!(
                                "collective (kind {kind}) in epoch \
                                 {coll_epoch} reports participant maximum \
                                 {max_epoch}"
                            ),
                        );
                    }
                    if logged != (*was_logging && !stopped_at_max) {
                        flag(
                            invariant::I7,
                            seq,
                            format!(
                                "collective (kind {kind}) in epoch \
                                 {coll_epoch}: logged={logged} violates the \
                                 conjunction rule (logging={was_logging}, \
                                 stopped_at_max={stopped_at_max})"
                            ),
                        );
                    }
                    if *kind == coll_kind::BARRIER && *coll_epoch != max_epoch
                    {
                        flag(
                            invariant::I8,
                            seq,
                            format!(
                                "barrier executed in epoch {coll_epoch} \
                                 below the participant maximum {max_epoch}"
                            ),
                        );
                    }
                } else if *was_logging
                    || !matches!(*kind, coll_kind::GATHER | coll_kind::REDUCE)
                {
                    flag(
                        invariant::I7,
                        seq,
                        format!(
                            "collective (kind {kind}) in epoch {coll_epoch}: \
                             only a gather or reduce contributor that is not \
                             logging may leave without the fold \
                             (logging={was_logging})"
                        ),
                    );
                }
                f.colls.push(CollFact {
                    comm: *comm,
                    kind: *kind,
                    epoch: *coll_epoch,
                    logging: *was_logging,
                    informed: fold.is_some(),
                    max_epoch: fold.map_or(0, |f| f.0),
                    stopped_at_max: fold.is_some_and(|f| f.1),
                    seq,
                });
            }
            TraceEvent::BarrierAligned {
                from_epoch,
                to_epoch,
            } => {
                if *from_epoch != epoch {
                    flag(
                        invariant::I1,
                        seq,
                        format!(
                            "barrier alignment recorded epoch {from_epoch} \
                             but the rank is in epoch {epoch}"
                        ),
                    );
                }
                if *to_epoch != from_epoch + 1 {
                    flag(
                        invariant::I8,
                        seq,
                        format!(
                            "barrier alignment jumps from epoch {from_epoch} \
                             to {to_epoch}: epochs may differ by at most one"
                        ),
                    );
                }
                barrier_target = Some(u64::from(*to_epoch));
            }
            TraceEvent::SuppressSent { dst, count } => {
                let dsti = *dst as usize;
                let expect = f.restored_early.get(dsti).copied().unwrap_or(0);
                if f.recovered.is_none() || *count != expect {
                    flag(
                        invariant::I6,
                        seq,
                        format!(
                            "suppression list of {count} id(s) sent to {dst} \
                             but {expect} early message(s) were restored \
                             from it"
                        ),
                    );
                }
            }
            TraceEvent::SuppressRecv { src, count } => {
                if f.recovered.is_none() {
                    flag(
                        invariant::I6,
                        seq,
                        format!(
                            "suppression list received from {src} in a fresh \
                             attempt"
                        ),
                    );
                }
                if srci_in(*src, nranks) {
                    suppress_list_len[*src as usize] = Some(*count);
                }
            }
            TraceEvent::FailStop { .. } => {
                f.failed = true;
                // Cancel end-of-stream obligations: the failure interrupted
                // whatever was in flight.
                pending_late = None;
                pending_early = None;
            }
            TraceEvent::BlobStaged { ckpt, kind } => {
                if *kind > 2 {
                    flag(
                        invariant::T0,
                        seq,
                        format!(
                            "blob staged for checkpoint {ckpt} with unknown \
                             kind tag {kind}"
                        ),
                    );
                }
                *f.staged.entry(*ckpt).or_default() += 1;
            }
            TraceEvent::PipelineDrained { ckpt, blobs } => {
                if rank != 0 {
                    flag(
                        invariant::T0,
                        seq,
                        format!("pipeline drain event on rank {rank}"),
                    );
                }
                f.drains.push((*ckpt, *blobs, seq));
            }
            TraceEvent::GcRan { kept } => {
                if rank != 0 {
                    flag(
                        invariant::T0,
                        seq,
                        format!("GC sweep event on rank {rank}"),
                    );
                }
                f.gcs.push((*kept, seq));
            }
            TraceEvent::RecoveryComplete => {}
            // Splice structure (which incarnation these events may appear
            // in, and how often) is checked by `check_splices` across all
            // incarnation streams; here only rank-local sanity applies.
            TraceEvent::RankRespawned { incarnation, .. } => {
                if *incarnation == 0 {
                    flag(
                        invariant::T0,
                        seq,
                        "respawn event claims incarnation 0 (original \
                         incarnations are never respawns)"
                            .into(),
                    );
                }
            }
            TraceEvent::SpliceReplayed { .. } => {
                caught_up = true;
            }
        }
    }

    if !f.failed {
        if let Some((src, id)) = pending_late {
            flag(
                invariant::I3,
                f.last_seq,
                format!(
                    "late message (src {src}, id {id}) classified but never \
                     logged (stream end)"
                ),
            );
        }
        if let Some((src, id)) = pending_early {
            flag(
                invariant::I3,
                f.last_seq,
                format!(
                    "early message (src {src}, id {id}) classified but its \
                     id was never recorded (stream end)"
                ),
            );
        }
    }

    // I6: per destination, suppressed re-sends never exceed the
    // suppression list received from it.
    for dst in 0..nranks {
        let used = suppressed_ids[dst].len() as u64;
        let allowed = suppress_list_len[dst].unwrap_or(0);
        if used > allowed {
            flag(
                invariant::I6,
                f.last_seq,
                format!(
                    "{used} re-send(s) to {dst} suppressed but its \
                     suppression list held {allowed} id(s)"
                ),
            );
        }
    }

    f
}

fn srci_in(src: u32, nranks: usize) -> bool {
    (src as usize) < nranks
}

/// Pair every classified receive with the send that produced it (I2).
fn join_classifications(
    attempt: u64,
    facts: &BTreeMap<u32, RankFacts>,
    out: &mut Vec<Violation>,
) {
    // (src, dst, comm, sender_epoch, id) -> piggybacked logging flags, in
    // send order. Suppressed re-sends never reach the wire in this
    // attempt (the receipt lives in the receiver's checkpointed state).
    let mut sends: HashMap<(u32, u32, u64, u32, u32), VecDeque<bool>> =
        HashMap::new();
    for (&rank, f) in facts {
        for s in &f.sends {
            if !s.suppressed {
                sends
                    .entry((rank, s.dst, s.comm, s.epoch, s.id))
                    .or_default()
                    .push_back(s.logging);
            }
        }
        // Physical overlay for localized recovery: a send transmitted by
        // a superseded incarnation is what the receiver actually holds.
        // The respawn's re-execution of the same identity never reached
        // the wire (the splice layer squelched it), so its piggyback
        // flag — which replay divergence may have flipped — must not be
        // the pairing truth. Replace the re-executed copy's flag with
        // the transmitted original's; identities the respawn never
        // re-issued are added outright.
        for s in &f.superseded_sends {
            let e = sends
                .entry((rank, s.dst, s.comm, s.epoch, s.id))
                .or_default();
            match e.front_mut() {
                Some(flag) => *flag = s.logging,
                None => e.push_back(s.logging),
            }
        }
    }
    for (&rank, f) in facts {
        // Physical classifications by this rank's dead incarnations, by
        // message identity. A catch-up re-enactment of the same taped
        // message pairs through these: replay is not order-faithful in
        // polled control consumption, so the re-enacted *class* (and with
        // it the implied sender epoch) may diverge from what physically
        // happened — the superseded incarnation's receive is the truth.
        let mut physical: HashMap<(u32, u64, u32), VecDeque<&RecvFact>> =
            HashMap::new();
        for p in &f.superseded_recvs {
            physical
                .entry((p.src, p.comm, p.id))
                .or_default()
                .push_back(p);
        }
        for r in &f.recvs {
            let (class, epoch, piggy) = match r.catch_up {
                true => match physical
                    .get_mut(&(r.src, r.comm, r.id))
                    .and_then(VecDeque::pop_front)
                {
                    Some(p) => (p.class, p.epoch, p.sender_logging),
                    // The dead incarnation fed this message to its
                    // matching engine (taping it) but died before the
                    // application receive: the catch-up receive is its
                    // first app-level receipt. Its class may still be
                    // divergent — the miss arm below widens the epoch.
                    None => (r.class, r.epoch, r.sender_logging),
                },
                false => (r.class, r.epoch, r.sender_logging),
            };
            let sender_epoch = match class {
                MsgClass::Late => {
                    if epoch == 0 {
                        continue; // already flagged in scan_rank
                    }
                    epoch - 1
                }
                MsgClass::IntraEpoch => epoch,
                MsgClass::Early => epoch + 1,
            };
            let mut hit = sends
                .get_mut(&(r.src, rank, r.comm, sender_epoch, r.id))
                .and_then(VecDeque::pop_front);
            if hit.is_none() && r.catch_up {
                // No physical counterpart recorded and the class-implied
                // epoch misses: accept the identity under any adjacent
                // sender epoch (the identity is physical; the class is a
                // logical re-enactment).
                for alt in [epoch.wrapping_sub(1), epoch, epoch + 1] {
                    if alt == sender_epoch || alt == u32::MAX {
                        continue;
                    }
                    hit = sends
                        .get_mut(&(r.src, rank, r.comm, alt, r.id))
                        .and_then(VecDeque::pop_front);
                    if hit.is_some() {
                        break;
                    }
                }
            }
            match hit {
                None => out.push(Violation {
                    invariant: invariant::I2,
                    attempt,
                    rank,
                    seq: r.seq,
                    detail: format!(
                        "message from {} (id {}) classified {class:?} in \
                         epoch {epoch}, but rank {} sent no such message \
                         in epoch {sender_epoch}",
                        r.src, r.id, r.src
                    ),
                }),
                Some(sender_logging) => {
                    if sender_logging != piggy {
                        out.push(Violation {
                            invariant: invariant::I2,
                            attempt,
                            rank,
                            seq: r.seq,
                            detail: format!(
                                "message from {} (id {}) delivered with \
                                 amLogging={piggy} but was sent with \
                                 amLogging={sender_logging}",
                                r.src, r.id
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// The `mySendCount` / `receivedAll?` accounting checks (I4).
fn join_send_counts(
    attempt: u64,
    nranks: usize,
    facts: &BTreeMap<u32, RankFacts>,
    out: &mut Vec<Violation>,
) {
    // I4a: each announced count equals the sender's actual traced sends
    // for the epoch the checkpoint closed (suppressed re-sends count:
    // their receipt is checkpointed state on the receiver).
    for (&rank, f) in facts {
        for (ckpt, (send_counts, _, seq)) in &f.checkpoints {
            let closed_epoch = (*ckpt - 1) as u32;
            for (dst, &announced) in
                send_counts.iter().enumerate().take(nranks)
            {
                let actual = f
                    .sends
                    .iter()
                    .filter(|s| {
                        s.dst as usize == dst
                            && s.epoch == closed_epoch
                            && s.seq < *seq
                    })
                    .count() as u64;
                if announced != actual {
                    out.push(Violation {
                        invariant: invariant::I4,
                        attempt,
                        rank,
                        seq: *seq,
                        detail: format!(
                            "checkpoint {ckpt} announced {announced} \
                             send(s) to {dst} for epoch {closed_epoch} \
                             but {actual} were traced"
                        ),
                    });
                }
            }
        }
    }

    // I4b: announcements arrive intact — the k-th mySendCount received
    // from q equals q's k-th checkpoint announcement (control channels
    // are FIFO).
    for (&rank, f) in facts {
        for (q, args) in f.msc_recv.iter().enumerate() {
            let Some(qf) = facts.get(&(q as u32)) else {
                continue;
            };
            let announced: Vec<u64> = qf
                .checkpoints
                .values()
                .map(|(sc, _, _)| sc.get(rank as usize).copied().unwrap_or(0))
                .collect();
            for (k, (&got, &sent)) in
                args.iter().zip(announced.iter()).enumerate()
            {
                if got != sent {
                    out.push(Violation {
                        invariant: invariant::I4,
                        attempt,
                        rank,
                        seq: f.last_seq,
                        detail: format!(
                            "mySendCount #{k} from {q} arrived as {got} but \
                             {q} announced {sent}"
                        ),
                    });
                }
            }
        }
    }

    // I4c: readyToStopLogging in epoch e means every channel balanced:
    //   announced(q, e-1) = prior-early(q) + intra(q, e-1) + late(q, e).
    for (&rank, f) in facts {
        for &(e, seq) in &f.ready_epochs {
            if e == 0 {
                continue; // flagged as not-logging in scan_rank
            }
            // Skip epochs whose closed predecessor started before this
            // attempt's trace (cannot happen live: logging starts at a
            // checkpoint taken within the attempt).
            if let Some(k) = f.recovered {
                if u64::from(e) <= k {
                    continue;
                }
            }
            let closed = e - 1;
            let prior_early: Vec<u64> = if u64::from(e) >= 1
                && f.recovered == Some(u64::from(closed))
            {
                f.restored_early.clone()
            } else if closed == 0 {
                vec![0; nranks]
            } else {
                match f.checkpoints.get(&u64::from(closed)) {
                    Some((_, early, _)) => early.clone(),
                    None => continue, // truncated history; nothing to check
                }
            };
            for q in 0..nranks {
                let Some(qf) = facts.get(&(q as u32)) else {
                    continue;
                };
                let Some((sc, _, _)) = qf.checkpoints.get(&u64::from(e))
                else {
                    out.push(Violation {
                        invariant: invariant::I4,
                        attempt,
                        rank,
                        seq,
                        detail: format!(
                            "readyToStopLogging sent in epoch {e} but rank \
                             {q} never took checkpoint {e} (no announcement \
                             for epoch {closed} exists)"
                        ),
                    });
                    continue;
                };
                let announced = sc.get(rank as usize).copied().unwrap_or(0);
                let intra = f
                    .recvs
                    .iter()
                    .filter(|r| {
                        r.src as usize == q
                            && r.class == MsgClass::IntraEpoch
                            && r.epoch == closed
                    })
                    .count() as u64;
                let late = f
                    .recvs
                    .iter()
                    .filter(|r| {
                        r.src as usize == q
                            && r.class == MsgClass::Late
                            && r.epoch == e
                            && r.seq < seq
                    })
                    .count() as u64;
                let early = prior_early.get(q).copied().unwrap_or(0);
                if announced != early + intra + late {
                    out.push(Violation {
                        invariant: invariant::I4,
                        attempt,
                        rank,
                        seq,
                        detail: format!(
                            "readyToStopLogging in epoch {e} but the channel \
                             from {q} does not balance: announced \
                             {announced} for epoch {closed}, received \
                             {early} early + {intra} intra-epoch + {late} \
                             late"
                        ),
                    });
                }
            }
        }
    }
}

/// The initiator's phase machine over rank 0's stream (I5 / I9).
fn check_initiator(
    attempt: u64,
    nranks: usize,
    facts: &BTreeMap<u32, RankFacts>,
    out: &mut Vec<Violation>,
) {
    let Some(f0) = facts.get(&0) else { return };
    // Replayed machine: phase 0 = idle, 1 = collecting ready, 2 =
    // collecting stopped.
    let mut phase = phase_code::IDLE;
    let mut round_ckpt: Option<u64> = None;
    let mut prev_round: Option<u64> = None;
    let mut acks: BTreeSet<u32> = BTreeSet::new();
    let mut awaiting_commit: Option<u64> = None;
    for item in &f0.initiator_items {
        match *item {
            IniItem::Phase {
                phase: p,
                ckpt,
                seq,
            } => {
                let ok = match (phase, p) {
                    (phase_code::IDLE, phase_code::COLLECTING_READY) => {
                        if let Some(prev) = prev_round {
                            if ckpt != prev + 1 {
                                out.push(Violation {
                                    invariant: invariant::I9,
                                    attempt,
                                    rank: 0,
                                    seq,
                                    detail: format!(
                                        "round for checkpoint {ckpt} started \
                                         after round {prev} (expected {})",
                                        prev + 1
                                    ),
                                });
                            }
                        }
                        round_ckpt = Some(ckpt);
                        acks.clear();
                        true
                    }
                    (
                        phase_code::COLLECTING_READY,
                        phase_code::COLLECTING_STOPPED,
                    ) => {
                        if round_ckpt != Some(ckpt) {
                            out.push(Violation {
                                invariant: invariant::I9,
                                attempt,
                                rank: 0,
                                seq,
                                detail: format!(
                                    "stopLogging phase for checkpoint {ckpt} \
                                     inside round {round_ckpt:?}"
                                ),
                            });
                        }
                        if acks.len() < nranks {
                            out.push(Violation {
                                invariant: invariant::I5,
                                attempt,
                                rank: 0,
                                seq,
                                detail: format!(
                                    "stopLogging broadcast for checkpoint \
                                     {ckpt} after readyToStopLogging from \
                                     only {}/{nranks} rank(s)",
                                    acks.len()
                                ),
                            });
                        }
                        acks.clear();
                        true
                    }
                    (phase_code::COLLECTING_STOPPED, phase_code::IDLE) => {
                        if round_ckpt != Some(ckpt) {
                            out.push(Violation {
                                invariant: invariant::I9,
                                attempt,
                                rank: 0,
                                seq,
                                detail: format!(
                                    "commit phase for checkpoint {ckpt} \
                                     inside round {round_ckpt:?}"
                                ),
                            });
                        }
                        if acks.len() < nranks {
                            out.push(Violation {
                                invariant: invariant::I5,
                                attempt,
                                rank: 0,
                                seq,
                                detail: format!(
                                    "checkpoint {ckpt} committed after \
                                     stoppedLogging from only \
                                     {}/{nranks} rank(s)",
                                    acks.len()
                                ),
                            });
                        }
                        prev_round = Some(ckpt);
                        awaiting_commit = Some(ckpt);
                        acks.clear();
                        true
                    }
                    _ => false,
                };
                if !ok {
                    out.push(Violation {
                        invariant: invariant::I9,
                        attempt,
                        rank: 0,
                        seq,
                        detail: format!(
                            "initiator phase {p} (checkpoint {ckpt}) entered \
                             from phase {phase}"
                        ),
                    });
                }
                phase = p;
            }
            IniItem::Ready { src } => {
                if phase == phase_code::COLLECTING_READY {
                    acks.insert(src);
                }
            }
            IniItem::Stopped { src } => {
                if phase == phase_code::COLLECTING_STOPPED {
                    acks.insert(src);
                }
            }
            IniItem::Commit { ckpt, seq } => {
                if awaiting_commit.take() != Some(ckpt) {
                    out.push(Violation {
                        invariant: invariant::I9,
                        attempt,
                        rank: 0,
                        seq,
                        detail: format!(
                            "commit of checkpoint {ckpt} without completing \
                             its round"
                        ),
                    });
                }
            }
        }
    }
}

/// Join collective control exchanges across ranks (I7 / I8).
///
/// Within one attempt every world collective is executed by every rank in
/// the same global order, so the k-th world-communicator entry of each
/// stream belongs to the same call — aligned from the front on fresh
/// attempts and from the back on recovered ones (recovered ranks replay a
/// rank-dependent number of logged collectives, which emit no control
/// exchange, so their live suffixes share the tail). Recovered attempts
/// that end in a failure are skipped: neither end is aligned then.
///
/// Every participant counts towards the maximum epoch and "stopped at
/// max"; only the informed ones (all of them, bar the answered form's
/// contributors that did not ask) must agree on the fold, and the lead
/// the others are compared with is the first informed one.
fn join_collectives(
    attempt: u64,
    facts: &BTreeMap<u32, RankFacts>,
    out: &mut Vec<Violation>,
) {
    let recovered = facts.values().any(|f| f.recovered.is_some());
    let failed = facts.values().any(|f| f.failed);
    if recovered && failed {
        return;
    }
    let world: Vec<(u32, Vec<&CollFact>)> = facts
        .iter()
        .map(|(&rank, f)| {
            (rank, f.colls.iter().filter(|c| c.comm == 0).collect())
        })
        .collect();
    let common = world.iter().map(|(_, v)| v.len()).min().unwrap_or(0);
    for k in 0..common {
        let idx = |len: usize| if recovered { len - common + k } else { k };
        let call: Vec<(u32, &CollFact)> =
            world.iter().map(|(r, v)| (*r, v[idx(v.len())])).collect();
        let max_seen = call.iter().map(|(_, c)| c.epoch).max().unwrap_or(0);
        let stopped_seen =
            call.iter().any(|(_, c)| c.epoch == max_seen && !c.logging);
        let Some(&(r0, lead)) = call.iter().find(|(_, c)| c.informed) else {
            let (rank, c) = call[0];
            out.push(Violation {
                invariant: invariant::I7,
                attempt,
                rank,
                seq: c.seq,
                detail: format!(
                    "world collective #{k}: no participant holds the fold"
                ),
            });
            continue;
        };
        for &(rank, c) in &call {
            let agrees = c.kind == lead.kind
                && (!c.informed
                    || (c.max_epoch, c.stopped_at_max)
                        == (lead.max_epoch, lead.stopped_at_max));
            if !agrees {
                out.push(Violation {
                    invariant: invariant::I7,
                    attempt,
                    rank,
                    seq: c.seq,
                    detail: format!(
                        "world collective #{k}: rank {rank} saw (kind {}, \
                         max_epoch {}, stopped {}, informed {}) but rank \
                         {r0} saw (kind {}, max_epoch {}, stopped {})",
                        c.kind,
                        c.max_epoch,
                        c.stopped_at_max,
                        c.informed,
                        lead.kind,
                        lead.max_epoch,
                        lead.stopped_at_max
                    ),
                });
            }
        }
        if lead.max_epoch != max_seen {
            out.push(Violation {
                invariant: invariant::I7,
                attempt,
                rank: r0,
                seq: lead.seq,
                detail: format!(
                    "world collective #{k}: control exchange reported \
                     max_epoch {} but the participants' maximum is \
                     {max_seen}",
                    lead.max_epoch
                ),
            });
        } else if lead.stopped_at_max != stopped_seen {
            out.push(Violation {
                invariant: invariant::I7,
                attempt,
                rank: r0,
                seq: lead.seq,
                detail: format!(
                    "world collective #{k}: control exchange reported \
                     stopped_at_max={} but the participants' states say {}",
                    lead.stopped_at_max, stopped_seen
                ),
            });
        }
    }
}

/// Committed checkpoints are complete on every rank (I12), and replay
/// never exceeds the recovered log (I11).
fn check_commits(
    attempt: u64,
    facts: &BTreeMap<u32, RankFacts>,
    out: &mut Vec<Violation>,
) {
    let commits: Vec<(u64, u64)> =
        facts.get(&0).map(|f| f.commits.clone()).unwrap_or_default();
    for (ckpt, seq) in commits {
        for (&rank, f) in facts {
            if !f.checkpoints.contains_key(&ckpt) {
                out.push(Violation {
                    invariant: invariant::I12,
                    attempt,
                    rank,
                    seq,
                    detail: format!(
                        "checkpoint {ckpt} committed but rank {rank} never \
                         took it"
                    ),
                });
            }
            if !f.finalized.contains(&ckpt) {
                out.push(Violation {
                    invariant: invariant::I12,
                    attempt,
                    rank,
                    seq,
                    detail: format!(
                        "checkpoint {ckpt} committed but rank {rank} never \
                         finalized its log"
                    ),
                });
            }
        }
    }
    for (&rank, f) in facts {
        if f.replays > f.late_in_log {
            out.push(Violation {
                invariant: invariant::I11,
                attempt,
                rank,
                seq: f.last_seq,
                detail: format!(
                    "{} late message(s) replayed but the recovered log held \
                     {}",
                    f.replays, f.late_in_log
                ),
            });
        }
    }
}

/// The asynchronous-I/O two-phase-commit check (I13): every commit is
/// preceded (in rank 0's stream) by a drain barrier for the same
/// checkpoint, and the drained blob count equals what all ranks staged.
///
/// Traces without pipeline events (recorded before the pipeline existed,
/// or with it configured away) are exempt — the invariant is about the
/// pipeline, not about its adoption.
fn check_pipeline(
    attempt: u64,
    facts: &BTreeMap<u32, RankFacts>,
    out: &mut Vec<Violation>,
) {
    let has_pipeline_events = facts
        .values()
        .any(|f| !f.staged.is_empty() || !f.drains.is_empty());
    if !has_pipeline_events {
        return;
    }
    let Some(f0) = facts.get(&0) else { return };
    for &(ckpt, commit_seq) in &f0.commits {
        match f0
            .drains
            .iter()
            .find(|&&(c, _, seq)| c == ckpt && seq < commit_seq)
        {
            None => out.push(Violation {
                invariant: invariant::I13,
                attempt,
                rank: 0,
                seq: commit_seq,
                detail: format!(
                    "checkpoint {ckpt} committed without draining the I/O \
                     pipeline first"
                ),
            }),
            Some(&(_, blobs, drain_seq)) => {
                let staged: u64 = facts
                    .values()
                    .map(|f| f.staged.get(&ckpt).copied().unwrap_or(0))
                    .sum();
                if blobs != staged {
                    out.push(Violation {
                        invariant: invariant::I13,
                        attempt,
                        rank: 0,
                        seq: drain_seq,
                        detail: format!(
                            "drain barrier for checkpoint {ckpt} accounted \
                             for {blobs} blob(s) but the ranks staged \
                             {staged}"
                        ),
                    });
                }
            }
        }
    }
}

/// Post-commit GC discipline: a sweep keeps only a checkpoint that was
/// already committed — in rank 0's stream before the sweep, in an
/// earlier attempt of the trace, or as the checkpoint this attempt
/// recovered from (a `keep_last > 1` sweep retains a line whose commit
/// may predate the trace entirely). Sweeping anything else could
/// collect blobs the recovery line still needs. Reported under I12 —
/// the sweep's keep-set *is* a commit-completeness claim.
fn check_gc(
    attempt: u64,
    facts: &BTreeMap<u32, RankFacts>,
    prior_commits: &BTreeSet<u64>,
    out: &mut Vec<Violation>,
) {
    let Some(f0) = facts.get(&0) else { return };
    for &(kept, seq) in &f0.gcs {
        let committed = f0
            .commits
            .iter()
            .any(|&(c, commit_seq)| c == kept && commit_seq < seq)
            || prior_commits.contains(&kept)
            || f0.recovered == Some(kept);
        if !committed {
            out.push(Violation {
                invariant: invariant::I12,
                attempt,
                rank: 0,
                seq,
                detail: format!(
                    "GC sweep kept checkpoint {kept} before (or without) \
                     its commit"
                ),
            });
        }
    }
}

/// One attempt's streams, keyed rank → incarnation → records.
pub(crate) type IncStreams<'a> =
    BTreeMap<u32, BTreeMap<u32, Vec<&'a TraceRecord>>>;

/// Group a trace by attempt → rank → incarnation (sorting each stream by
/// `seq`) and compute the world size. Shared by the invariant analyzer
/// and the race checker so both select effective streams identically.
pub(crate) fn group_trace(
    records: &[TraceRecord],
) -> (BTreeMap<u64, IncStreams<'_>>, u32) {
    let mut by_attempt: BTreeMap<u64, IncStreams<'_>> = BTreeMap::new();
    let mut ranks_seen: u32 = 0;
    for r in records {
        ranks_seen = ranks_seen.max(r.rank + 1);
        if let TraceEvent::CheckpointTaken { send_counts, .. } = &r.event {
            ranks_seen = ranks_seen.max(send_counts.len() as u32);
        }
        by_attempt
            .entry(r.attempt)
            .or_default()
            .entry(r.rank)
            .or_default()
            .entry(r.incarnation)
            .or_default()
            .push(r);
    }
    for ranks in by_attempt.values_mut() {
        for incs in ranks.values_mut() {
            for stream in incs.values_mut() {
                stream.sort_by_key(|r| r.seq);
            }
        }
    }
    (by_attempt, ranks_seen)
}

/// The effective stream of one rank within an attempt: the highest
/// incarnation's records. Under localized recovery a spliced rank
/// re-executes the attempt deterministically, so this is the stream that
/// joins with the survivors' histories.
pub(crate) fn effective_stream<'a, 'b>(
    incs: &'b BTreeMap<u32, Vec<&'a TraceRecord>>,
) -> &'b [&'a TraceRecord] {
    incs.values().next_back().map(Vec::as_slice).unwrap_or(&[])
}

/// I15 + I16: the splice structure of one attempt, across *all*
/// incarnation streams (everything else in the analyzer sees only the
/// effective — highest — incarnation per rank).
fn check_splices(
    attempt: u64,
    ranks: &IncStreams<'_>,
    out: &mut Vec<Violation>,
) {
    for (&rank, incs) in ranks {
        let max_inc = incs.keys().next_back().copied().unwrap_or(0);
        let mut flag = |inv: &'static str, seq: u64, detail: String| {
            out.push(Violation {
                invariant: inv,
                attempt,
                rank,
                seq,
                detail,
            });
        };
        for want in 0..=max_inc {
            if !incs.contains_key(&want) {
                flag(
                    invariant::I15,
                    0,
                    format!(
                        "incarnation {want} missing: incarnations reach \
                         {max_inc} but are not contiguous from 0"
                    ),
                );
            }
        }
        for (&inc, stream) in incs {
            let last_seq = stream.last().map_or(0, |r| r.seq);
            let died = matches!(
                stream.last().map(|r| &r.event),
                Some(TraceEvent::FailStop { .. })
            );
            if inc < max_inc && !died {
                flag(
                    invariant::I15,
                    last_seq,
                    format!(
                        "incarnation {inc} was superseded by incarnation \
                         {max_inc} but its stream does not end in a failure"
                    ),
                );
            }
            // Respawn announcement: first event of every respawned
            // stream, absent from original incarnations.
            let mut respawn_replayed: Option<u64> = None;
            for (i, r) in stream.iter().enumerate() {
                if let TraceEvent::RankRespawned {
                    incarnation,
                    replayed,
                } = &r.event
                {
                    if inc == 0 {
                        flag(
                            invariant::I15,
                            r.seq,
                            "respawn announcement in an original \
                             incarnation's stream"
                                .into(),
                        );
                    } else if i != 0 {
                        flag(
                            invariant::I15,
                            r.seq,
                            format!(
                                "respawn announcement is event {i} of \
                                 incarnation {inc}'s stream, not the first"
                            ),
                        );
                    } else if *incarnation != inc {
                        flag(
                            invariant::I15,
                            r.seq,
                            format!(
                                "respawn announcement claims incarnation \
                                 {incarnation} inside incarnation {inc}'s \
                                 stream"
                            ),
                        );
                    }
                    if respawn_replayed.is_none() {
                        respawn_replayed = Some(*replayed);
                    }
                }
            }
            if inc > 0 && respawn_replayed.is_none() {
                flag(
                    invariant::I15,
                    stream.first().map_or(0, |r| r.seq),
                    format!(
                        "respawned incarnation {inc} never announced \
                         itself (no RankRespawned)"
                    ),
                );
            }
            // I16: catch-up completes exactly once per respawn (unless
            // the respawn itself died mid-catch-up), never in an
            // original incarnation, and the replayed-frame counter is
            // monotone from the respawn announcement.
            let splices: Vec<(u64, u64)> = stream
                .iter()
                .filter_map(|r| match &r.event {
                    TraceEvent::SpliceReplayed { replayed, .. } => {
                        Some((r.seq, *replayed))
                    }
                    _ => None,
                })
                .collect();
            if inc == 0 {
                if let Some(&(seq, _)) = splices.first() {
                    flag(
                        invariant::I16,
                        seq,
                        "catch-up completion in an original incarnation's \
                         stream"
                            .into(),
                    );
                }
            } else {
                if splices.len() > 1 {
                    flag(
                        invariant::I16,
                        splices[1].0,
                        format!(
                            "incarnation {inc} completed catch-up {} times",
                            splices.len()
                        ),
                    );
                }
                if splices.is_empty() && !died {
                    flag(
                        invariant::I16,
                        last_seq,
                        format!(
                            "respawned incarnation {inc} finished the \
                             attempt without completing catch-up"
                        ),
                    );
                }
                if let (Some(at_respawn), Some(&(seq, total))) =
                    (respawn_replayed, splices.first())
                {
                    if total < at_respawn {
                        flag(
                            invariant::I16,
                            seq,
                            format!(
                                "catch-up reports {total} replayed frame(s) \
                                 but {at_respawn} were already replayed \
                                 when the incarnation started"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Check a recorded trace against the protocol invariants.
pub fn analyze(records: &[TraceRecord]) -> Report {
    let (by_attempt, ranks_seen) = group_trace(records);
    let nranks = ranks_seen as usize;
    // Every rank of a well-formed trace contributes at least one record,
    // so a world size beyond the record count can only come from a
    // corrupted rank field or send_counts length. Per-rank state below
    // is sized by nranks — flag T0 and stop rather than letting a
    // single flipped byte drive an absurd allocation.
    if nranks > records.len() {
        return Report {
            violations: vec![Violation {
                invariant: invariant::T0,
                attempt: 0,
                rank: 0,
                seq: 0,
                detail: format!(
                    "trace claims {nranks} ranks but holds only {} \
                     record(s)",
                    records.len()
                ),
            }],
            records: records.len(),
            attempts: by_attempt.len(),
            ranks: ranks_seen,
            commits: Vec::new(),
        };
    }

    let mut violations = Vec::new();
    let mut commits = Vec::new();
    // Cross-attempt context: checkpoints committed in *earlier* attempts
    // justify this attempt's GC keep-set (keep_last retention).
    let mut prior_commits: BTreeSet<u64> = BTreeSet::new();
    for (&attempt, ranks) in &by_attempt {
        check_splices(attempt, ranks, &mut violations);
        let mut facts: BTreeMap<u32, RankFacts> = BTreeMap::new();
        for (&rank, incs) in ranks.iter() {
            let stream = effective_stream(incs);
            let mut f =
                scan_rank(attempt, rank, nranks, stream, &mut violations);
            // Staging and wire traffic are physical, not logical: a
            // superseded incarnation's blobs entered the I/O pipeline
            // before it died and are counted by the drain barrier, so
            // I13's accounting must include them — and its transmitted
            // sends were (or may yet be) delivered to survivors, so the
            // I2 pairing must know about them — even though the
            // effective history starts over at the respawn.
            let max_inc = incs.keys().next_back().copied().unwrap_or(0);
            for (&inc, superseded) in incs.iter() {
                if inc == max_inc {
                    continue;
                }
                for r in superseded {
                    match &r.event {
                        TraceEvent::BlobStaged { ckpt, .. } => {
                            *f.staged.entry(*ckpt).or_default() += 1;
                        }
                        TraceEvent::Send {
                            comm,
                            dst,
                            epoch,
                            logging,
                            message_id,
                            suppressed: false,
                            ..
                        } => f.superseded_sends.push(SendFact {
                            comm: *comm,
                            dst: *dst,
                            epoch: *epoch,
                            logging: *logging,
                            id: *message_id,
                            suppressed: false,
                            seq: r.seq,
                        }),
                        TraceEvent::RecvClassified {
                            comm,
                            src,
                            message_id,
                            class,
                            sender_logging,
                            receiver_epoch,
                            ..
                        } => f.superseded_recvs.push(RecvFact {
                            comm: *comm,
                            src: *src,
                            id: *message_id,
                            class: *class,
                            sender_logging: *sender_logging,
                            epoch: *receiver_epoch,
                            seq: r.seq,
                            catch_up: false,
                        }),
                        _ => {}
                    }
                }
            }
            facts.insert(rank, f);
        }
        join_classifications(attempt, &facts, &mut violations);
        join_send_counts(attempt, nranks, &facts, &mut violations);
        check_initiator(attempt, nranks, &facts, &mut violations);
        join_collectives(attempt, &facts, &mut violations);
        check_commits(attempt, &facts, &mut violations);
        check_pipeline(attempt, &facts, &mut violations);
        check_gc(attempt, &facts, &prior_commits, &mut violations);
        if let Some(f0) = facts.get(&0) {
            commits.extend(f0.commits.iter().map(|&(c, _)| c));
            prior_commits.extend(f0.commits.iter().map(|&(c, _)| c));
        }
    }

    violations.sort_by_key(|v| (v.attempt, v.rank, v.seq));
    Report {
        violations,
        records: records.len(),
        attempts: by_attempt.len(),
        ranks: ranks_seen,
        commits,
    }
}

//! Structured protocol-event tracing for offline invariant checking.
//!
//! When a [`TraceSink`] is installed in [`crate::C3Config`], every rank
//! records the protocol decisions it makes — sends with their piggybacked
//! control words, receive classifications (Definition 1), log and replay
//! actions, `mySendCount` announcements, epoch transitions, initiator
//! phase changes, collective control agreements, and recovery steps — as a
//! stream of [`TraceRecord`]s. The stream is an *artifact*: it serializes
//! through `ckptstore`'s codec ([`encode_trace`] / [`decode_trace`]) so a
//! run's trace can be saved, shipped, and analyzed offline by the
//! `c3verify` crate against the paper's protocol invariants.
//!
//! Events carry integers and lengths, never payload bytes, so tracing a
//! run is cheap and the artifact stays small. Emission is gated at run
//! time by `C3Config::trace`: with no sink installed each hook is one
//! `Option` check.
//!
//! Ordering guarantees: records from one rank within one attempt are
//! totally ordered by `seq` (the order the rank made its decisions).
//! Records of different ranks are *not* globally ordered — the analyzer
//! joins them through message identities, exactly like the protocol
//! itself does.

use std::sync::Arc;

use ckptstore::codec::{CodecError, Decoder, Encoder};
use parking_lot::Mutex;

use crate::control::ControlMsg;
use crate::epoch::MsgClass;

/// Control-message kind codes used in [`TraceEvent::ControlSent`] /
/// [`TraceEvent::ControlRecv`]. They match the wire discriminants of
/// [`ControlMsg::encode`].
pub mod control_kind {
    /// `pleaseCheckpoint(ckpt)` — arg is the checkpoint number.
    pub const PLEASE_CHECKPOINT: u8 = 0;
    /// `mySendCount(count)` — arg is the announced send count.
    pub const MY_SEND_COUNT: u8 = 1;
    /// `readyToStopLogging`.
    pub const READY_TO_STOP_LOGGING: u8 = 2;
    /// `stopLogging`.
    pub const STOP_LOGGING: u8 = 3;
    /// `stoppedLogging`.
    pub const STOPPED_LOGGING: u8 = 4;
    /// `RecoveryComplete`.
    pub const RECOVERY_COMPLETE: u8 = 5;
}

/// Initiator phase codes used in [`TraceEvent::InitiatorPhase`].
pub mod phase_code {
    /// No global checkpoint in progress (entered on commit).
    pub const IDLE: u8 = 0;
    /// `pleaseCheckpoint` broadcast; collecting `readyToStopLogging`.
    pub const COLLECTING_READY: u8 = 1;
    /// `stopLogging` broadcast; collecting `stoppedLogging`.
    pub const COLLECTING_STOPPED: u8 = 2;
}

/// Map a control message to its `(kind, arg)` trace encoding.
pub fn control_code(cm: &ControlMsg) -> (u8, u64) {
    match cm {
        ControlMsg::PleaseCheckpoint { ckpt } => {
            (control_kind::PLEASE_CHECKPOINT, *ckpt)
        }
        ControlMsg::MySendCount { count } => {
            (control_kind::MY_SEND_COUNT, *count)
        }
        ControlMsg::ReadyToStopLogging => {
            (control_kind::READY_TO_STOP_LOGGING, 0)
        }
        ControlMsg::StopLogging => (control_kind::STOP_LOGGING, 0),
        ControlMsg::StoppedLogging => (control_kind::STOPPED_LOGGING, 0),
        ControlMsg::RecoveryComplete => (control_kind::RECOVERY_COMPLETE, 0),
    }
}

/// One protocol decision, as seen by the rank that made it.
///
/// Rank fields (`dst`, `src`) are **world** ranks except where noted;
/// `comm` is the communicator pseudo-handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A point-to-point send left the protocol layer (or was suppressed).
    Send {
        /// Communicator pseudo-handle.
        comm: u64,
        /// Destination world rank.
        dst: u32,
        /// Application tag.
        tag: i32,
        /// Sender epoch piggybacked on the message.
        epoch: u32,
        /// Sender `amLogging` flag piggybacked on the message.
        logging: bool,
        /// Per-epoch message id piggybacked on the message.
        message_id: u32,
        /// True if the re-send was suppressed during recovery (counted,
        /// not transmitted).
        suppressed: bool,
        /// Application payload length in bytes.
        payload_len: u64,
    },
    /// A received message was classified (Definition 1).
    RecvClassified {
        /// Communicator pseudo-handle.
        comm: u64,
        /// Source world rank.
        src: u32,
        /// Application tag.
        tag: i32,
        /// Piggybacked message id.
        message_id: u32,
        /// The classification outcome.
        class: MsgClass,
        /// Piggybacked sender `amLogging` flag.
        sender_logging: bool,
        /// Receiver epoch at delivery.
        receiver_epoch: u32,
        /// Receiver `amLogging` flag at delivery (before any
        /// stop-logging triggered by this message).
        receiver_logging: bool,
    },
    /// A late message was appended to the recovery log.
    LateLogged {
        /// Source world rank.
        src: u32,
        /// Piggybacked message id.
        message_id: u32,
    },
    /// An early message's id was recorded for recovery-time suppression.
    EarlyRecorded {
        /// Source world rank.
        src: u32,
        /// Piggybacked message id.
        message_id: u32,
    },
    /// A receive was satisfied from the recovered late-message log.
    ReplayLate {
        /// Communicator pseudo-handle.
        comm: u64,
        /// Source rank *in the communicator's frame* (as logged).
        src: u32,
        /// Application tag.
        tag: i32,
        /// Logged message id.
        message_id: u32,
    },
    /// A control message was sent (see [`control_kind`] for codes).
    ControlSent {
        /// Destination world rank.
        dst: u32,
        /// Control kind code.
        kind: u8,
        /// Kind-specific argument (checkpoint number or send count).
        arg: u64,
    },
    /// A control message was received and handled.
    ControlRecv {
        /// Source world rank.
        src: u32,
        /// Control kind code.
        kind: u8,
        /// Kind-specific argument.
        arg: u64,
    },
    /// A local checkpoint was taken (Figure 4's bookkeeping ran); the
    /// rank's epoch is now `ckpt`.
    CheckpointTaken {
        /// The checkpoint number (= new epoch).
        ckpt: u64,
        /// `mySendCount` announced to each world rank for the epoch that
        /// just ended.
        send_counts: Vec<u64>,
        /// Early messages recorded from each world rank during the epoch
        /// that just ended (they count as already received in the new
        /// epoch).
        early_counts: Vec<u64>,
    },
    /// The recovery log for checkpoint `ckpt` was written to stable
    /// storage and logging stopped.
    LogFinalized {
        /// The checkpoint the log belongs to (= current epoch).
        ckpt: u64,
        /// Late messages in the log.
        late: u64,
        /// Non-deterministic draws in the log.
        nondet: u64,
        /// Collective results in the log.
        collectives: u64,
    },
    /// The initiator (rank 0) changed phase (see [`phase_code`]).
    InitiatorPhase {
        /// The new phase code.
        phase: u8,
        /// The checkpoint number being created (or just committed for
        /// [`phase_code::IDLE`]).
        ckpt: u64,
    },
    /// The initiator committed global checkpoint `ckpt` as the recovery
    /// line.
    Commit {
        /// The committed checkpoint number.
        ckpt: u64,
    },
    /// A collective's participants agreed on their folded control word
    /// (on the data collective's own frames or on a preceding exchange,
    /// by kind) and the conjunction rule was applied (Section 4.5).
    /// Emitted after the data call, so `epoch` reflects any barrier
    /// alignment.
    CollectiveControl {
        /// Communicator pseudo-handle.
        comm: u64,
        /// Collective kind (see `logrec::coll_kind`).
        kind: u8,
        /// This rank's epoch at the data call.
        epoch: u32,
        /// Whether this rank was logging when the collective started.
        logging: bool,
        /// Maximum epoch among participants.
        max_epoch: u32,
        /// True if some max-epoch participant had stopped logging.
        stopped_at_max: bool,
        /// True if this rank logged the collective's result.
        logged: bool,
    },
    /// A barrier's epoch-alignment rule forced a local checkpoint.
    BarrierAligned {
        /// Epoch before alignment.
        from_epoch: u32,
        /// Target epoch (the participants' maximum).
        to_epoch: u32,
    },
    /// Recovery from a committed checkpoint began on this rank.
    RecoveryStart {
        /// The checkpoint recovered from.
        ckpt: u64,
        /// Late messages in the recovered log.
        late_in_log: u64,
        /// Early messages restored from each world rank: receipts that
        /// are part of the checkpointed state and count as already
        /// received in the resumed epoch.
        early_counts: Vec<u64>,
    },
    /// A suppression list was sent to a sender during recovery.
    SuppressSent {
        /// The sender (world rank) whose re-sends it suppresses.
        dst: u32,
        /// Number of message ids in the list.
        count: u64,
    },
    /// A suppression list was received from a receiver during recovery.
    SuppressRecv {
        /// The receiver (world rank) that recorded the early messages.
        src: u32,
        /// Number of message ids in the list.
        count: u64,
    },
    /// This rank's recovery fully drained (log replayed, suppressed
    /// re-sends issued).
    RecoveryComplete,
    /// An injected stopping failure fired on this rank.
    FailStop {
        /// The rank's protocol-operation count at the failure.
        op: u64,
    },
    /// A checkpoint blob was handed to the write pipeline (synchronous or
    /// asynchronous). Staging happens on the rank's critical path; the
    /// write itself may complete much later.
    BlobStaged {
        /// Checkpoint the blob belongs to.
        ckpt: u64,
        /// Blob kind: 0 = state, 1 = log, 2 = MPI objects.
        kind: u8,
    },
    /// The initiator's drain barrier returned: every blob staged for
    /// `ckpt` — by any rank — is on stable storage. Emitted immediately
    /// before [`TraceEvent::Commit`]; the analyzer checks that ordering
    /// and that `blobs` covers all ranks' staged blobs.
    PipelineDrained {
        /// The checkpoint about to be committed.
        ckpt: u64,
        /// Number of blobs the barrier accounted for.
        blobs: u64,
    },
    /// The initiator's post-commit garbage collection ran: every
    /// checkpoint older than `kept` was collected from stable storage.
    /// Emitted by rank 0 immediately after [`TraceEvent::Commit`]; the
    /// happens-before analyzer requires every blob staged for `kept` or
    /// older to be ordered before this sweep (the writer-vs-GC gate).
    GcRan {
        /// The committed checkpoint the sweep kept (the recovery line).
        kept: u64,
    },
    /// End-of-run summary of the simulated network sublayer on this rank
    /// (emitted at finalize when the job ran over a lossy wire). The
    /// analyzer treats it as diagnostic context: its presence certifies
    /// that the invariants I1–I13 held *under* wire loss, duplication,
    /// and reordering, not over a perfect fabric.
    NetSummary {
        /// Data frames this rank retransmitted.
        retransmits: u64,
        /// Duplicate data frames this rank received and discarded.
        dup_delivered: u64,
        /// Frames the wire dropped on this rank's outgoing links.
        wire_dropped: u64,
        /// Frames the wire duplicated on this rank's outgoing links.
        wire_duplicated: u64,
        /// Frames the wire held back (reorder + delay) on this rank's
        /// outgoing links.
        wire_held: u64,
    },
    /// The async tier-drain mover finished promoting committed
    /// checkpoint `ckpt` onto storage tier `tier` (1 = partner tier,
    /// deeper = global/erasure tiers; the staging tier 0 is covered by
    /// [`TraceEvent::PipelineDrained`]). Emitted by rank 0 — the drain
    /// runs off the critical path, so the events surface at finalize or
    /// the next commit, after the mover's queue is flushed.
    TierDrained {
        /// The committed checkpoint that was promoted.
        ckpt: u64,
        /// The tier it is now durable on.
        tier: u8,
    },
    /// Recovery read checkpoint `ckpt` from storage tier `tier` on this
    /// rank — tier 0 means the local staging copy was intact; a deeper
    /// tier means the read fell through to a partner replica or an
    /// erasure-coded reconstruction. The analyzer checks (I14) that a
    /// restart never claims a tier the checkpoint was not drained to.
    TierRecovered {
        /// The checkpoint recovered from.
        ckpt: u64,
        /// The shallowest tier that could serve this rank's state.
        tier: u8,
    },
    /// This rank was spliced back online: a fresh incarnation replaces a
    /// fail-stopped one *within the same attempt*, while the survivors
    /// keep running (localized recovery — no global rollback). First
    /// event of the new incarnation's stream. The analyzer checks (I15)
    /// that a superseded incarnation's stream ends in a failure and that
    /// the effective per-rank history is the highest incarnation's.
    RankRespawned {
        /// The new incarnation number (1 = first respawn).
        incarnation: u32,
        /// Messages on the consumed-message tape to be replayed.
        replayed: u64,
    },
    /// A respawned incarnation finished catching up: the dead
    /// incarnation's consumed-message tape is exhausted and the rank is
    /// live on the real fabric. The analyzer checks (I16) that the
    /// squelched re-send count never exceeds what the tape could have
    /// induced and that exactly one catch-up completes per respawn.
    SpliceReplayed {
        /// Taped messages released during catch-up.
        replayed: u64,
        /// Re-executed sends squelched below the death-time sequence
        /// high-water.
        suppressed: u64,
    },
}

fn class_code(c: MsgClass) -> u8 {
    match c {
        MsgClass::IntraEpoch => 0,
        MsgClass::Late => 1,
        MsgClass::Early => 2,
    }
}

fn class_from(b: u8) -> Result<MsgClass, CodecError> {
    match b {
        0 => Ok(MsgClass::IntraEpoch),
        1 => Ok(MsgClass::Late),
        2 => Ok(MsgClass::Early),
        k => Err(CodecError::new(format!("bad message class code {k}"))),
    }
}

impl TraceEvent {
    fn save(&self, enc: &mut Encoder) {
        match self {
            TraceEvent::Send {
                comm,
                dst,
                tag,
                epoch,
                logging,
                message_id,
                suppressed,
                payload_len,
            } => {
                enc.put_u8(0);
                enc.put_u64(*comm);
                enc.put_u32(*dst);
                enc.put_i32(*tag);
                enc.put_u32(*epoch);
                enc.put_bool(*logging);
                enc.put_u32(*message_id);
                enc.put_bool(*suppressed);
                enc.put_u64(*payload_len);
            }
            TraceEvent::RecvClassified {
                comm,
                src,
                tag,
                message_id,
                class,
                sender_logging,
                receiver_epoch,
                receiver_logging,
            } => {
                enc.put_u8(1);
                enc.put_u64(*comm);
                enc.put_u32(*src);
                enc.put_i32(*tag);
                enc.put_u32(*message_id);
                enc.put_u8(class_code(*class));
                enc.put_bool(*sender_logging);
                enc.put_u32(*receiver_epoch);
                enc.put_bool(*receiver_logging);
            }
            TraceEvent::LateLogged { src, message_id } => {
                enc.put_u8(2);
                enc.put_u32(*src);
                enc.put_u32(*message_id);
            }
            TraceEvent::EarlyRecorded { src, message_id } => {
                enc.put_u8(3);
                enc.put_u32(*src);
                enc.put_u32(*message_id);
            }
            TraceEvent::ReplayLate {
                comm,
                src,
                tag,
                message_id,
            } => {
                enc.put_u8(4);
                enc.put_u64(*comm);
                enc.put_u32(*src);
                enc.put_i32(*tag);
                enc.put_u32(*message_id);
            }
            TraceEvent::ControlSent { dst, kind, arg } => {
                enc.put_u8(5);
                enc.put_u32(*dst);
                enc.put_u8(*kind);
                enc.put_u64(*arg);
            }
            TraceEvent::ControlRecv { src, kind, arg } => {
                enc.put_u8(6);
                enc.put_u32(*src);
                enc.put_u8(*kind);
                enc.put_u64(*arg);
            }
            TraceEvent::CheckpointTaken {
                ckpt,
                send_counts,
                early_counts,
            } => {
                enc.put_u8(7);
                enc.put_u64(*ckpt);
                enc.put_u64_slice(send_counts);
                enc.put_u64_slice(early_counts);
            }
            TraceEvent::LogFinalized {
                ckpt,
                late,
                nondet,
                collectives,
            } => {
                enc.put_u8(8);
                enc.put_u64(*ckpt);
                enc.put_u64(*late);
                enc.put_u64(*nondet);
                enc.put_u64(*collectives);
            }
            TraceEvent::InitiatorPhase { phase, ckpt } => {
                enc.put_u8(9);
                enc.put_u8(*phase);
                enc.put_u64(*ckpt);
            }
            TraceEvent::Commit { ckpt } => {
                enc.put_u8(10);
                enc.put_u64(*ckpt);
            }
            TraceEvent::CollectiveControl {
                comm,
                kind,
                epoch,
                logging,
                max_epoch,
                stopped_at_max,
                logged,
            } => {
                enc.put_u8(11);
                enc.put_u64(*comm);
                enc.put_u8(*kind);
                enc.put_u32(*epoch);
                enc.put_bool(*logging);
                enc.put_u32(*max_epoch);
                enc.put_bool(*stopped_at_max);
                enc.put_bool(*logged);
            }
            TraceEvent::BarrierAligned {
                from_epoch,
                to_epoch,
            } => {
                enc.put_u8(12);
                enc.put_u32(*from_epoch);
                enc.put_u32(*to_epoch);
            }
            TraceEvent::RecoveryStart {
                ckpt,
                late_in_log,
                early_counts,
            } => {
                enc.put_u8(13);
                enc.put_u64(*ckpt);
                enc.put_u64(*late_in_log);
                enc.put_u64_slice(early_counts);
            }
            TraceEvent::SuppressSent { dst, count } => {
                enc.put_u8(14);
                enc.put_u32(*dst);
                enc.put_u64(*count);
            }
            TraceEvent::SuppressRecv { src, count } => {
                enc.put_u8(15);
                enc.put_u32(*src);
                enc.put_u64(*count);
            }
            TraceEvent::RecoveryComplete => enc.put_u8(16),
            TraceEvent::FailStop { op } => {
                enc.put_u8(17);
                enc.put_u64(*op);
            }
            TraceEvent::BlobStaged { ckpt, kind } => {
                enc.put_u8(18);
                enc.put_u64(*ckpt);
                enc.put_u8(*kind);
            }
            TraceEvent::PipelineDrained { ckpt, blobs } => {
                enc.put_u8(19);
                enc.put_u64(*ckpt);
                enc.put_u64(*blobs);
            }
            TraceEvent::GcRan { kept } => {
                enc.put_u8(21);
                enc.put_u64(*kept);
            }
            TraceEvent::NetSummary {
                retransmits,
                dup_delivered,
                wire_dropped,
                wire_duplicated,
                wire_held,
            } => {
                enc.put_u8(20);
                enc.put_u64(*retransmits);
                enc.put_u64(*dup_delivered);
                enc.put_u64(*wire_dropped);
                enc.put_u64(*wire_duplicated);
                enc.put_u64(*wire_held);
            }
            TraceEvent::TierDrained { ckpt, tier } => {
                enc.put_u8(22);
                enc.put_u64(*ckpt);
                enc.put_u8(*tier);
            }
            TraceEvent::TierRecovered { ckpt, tier } => {
                enc.put_u8(23);
                enc.put_u64(*ckpt);
                enc.put_u8(*tier);
            }
            TraceEvent::RankRespawned {
                incarnation,
                replayed,
            } => {
                enc.put_u8(24);
                enc.put_u32(*incarnation);
                enc.put_u64(*replayed);
            }
            TraceEvent::SpliceReplayed {
                replayed,
                suppressed,
            } => {
                enc.put_u8(25);
                enc.put_u64(*replayed);
                enc.put_u64(*suppressed);
            }
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Result<TraceEvent, CodecError> {
        Ok(match dec.get_u8()? {
            0 => TraceEvent::Send {
                comm: dec.get_u64()?,
                dst: dec.get_u32()?,
                tag: dec.get_i32()?,
                epoch: dec.get_u32()?,
                logging: dec.get_bool()?,
                message_id: dec.get_u32()?,
                suppressed: dec.get_bool()?,
                payload_len: dec.get_u64()?,
            },
            1 => TraceEvent::RecvClassified {
                comm: dec.get_u64()?,
                src: dec.get_u32()?,
                tag: dec.get_i32()?,
                message_id: dec.get_u32()?,
                class: class_from(dec.get_u8()?)?,
                sender_logging: dec.get_bool()?,
                receiver_epoch: dec.get_u32()?,
                receiver_logging: dec.get_bool()?,
            },
            2 => TraceEvent::LateLogged {
                src: dec.get_u32()?,
                message_id: dec.get_u32()?,
            },
            3 => TraceEvent::EarlyRecorded {
                src: dec.get_u32()?,
                message_id: dec.get_u32()?,
            },
            4 => TraceEvent::ReplayLate {
                comm: dec.get_u64()?,
                src: dec.get_u32()?,
                tag: dec.get_i32()?,
                message_id: dec.get_u32()?,
            },
            5 => TraceEvent::ControlSent {
                dst: dec.get_u32()?,
                kind: dec.get_u8()?,
                arg: dec.get_u64()?,
            },
            6 => TraceEvent::ControlRecv {
                src: dec.get_u32()?,
                kind: dec.get_u8()?,
                arg: dec.get_u64()?,
            },
            7 => TraceEvent::CheckpointTaken {
                ckpt: dec.get_u64()?,
                send_counts: dec.get_u64_vec()?,
                early_counts: dec.get_u64_vec()?,
            },
            8 => TraceEvent::LogFinalized {
                ckpt: dec.get_u64()?,
                late: dec.get_u64()?,
                nondet: dec.get_u64()?,
                collectives: dec.get_u64()?,
            },
            9 => TraceEvent::InitiatorPhase {
                phase: dec.get_u8()?,
                ckpt: dec.get_u64()?,
            },
            10 => TraceEvent::Commit {
                ckpt: dec.get_u64()?,
            },
            11 => TraceEvent::CollectiveControl {
                comm: dec.get_u64()?,
                kind: dec.get_u8()?,
                epoch: dec.get_u32()?,
                logging: dec.get_bool()?,
                max_epoch: dec.get_u32()?,
                stopped_at_max: dec.get_bool()?,
                logged: dec.get_bool()?,
            },
            12 => TraceEvent::BarrierAligned {
                from_epoch: dec.get_u32()?,
                to_epoch: dec.get_u32()?,
            },
            13 => TraceEvent::RecoveryStart {
                ckpt: dec.get_u64()?,
                late_in_log: dec.get_u64()?,
                early_counts: dec.get_u64_vec()?,
            },
            14 => TraceEvent::SuppressSent {
                dst: dec.get_u32()?,
                count: dec.get_u64()?,
            },
            15 => TraceEvent::SuppressRecv {
                src: dec.get_u32()?,
                count: dec.get_u64()?,
            },
            16 => TraceEvent::RecoveryComplete,
            17 => TraceEvent::FailStop { op: dec.get_u64()? },
            18 => TraceEvent::BlobStaged {
                ckpt: dec.get_u64()?,
                kind: dec.get_u8()?,
            },
            19 => TraceEvent::PipelineDrained {
                ckpt: dec.get_u64()?,
                blobs: dec.get_u64()?,
            },
            21 => TraceEvent::GcRan {
                kept: dec.get_u64()?,
            },
            20 => TraceEvent::NetSummary {
                retransmits: dec.get_u64()?,
                dup_delivered: dec.get_u64()?,
                wire_dropped: dec.get_u64()?,
                wire_duplicated: dec.get_u64()?,
                wire_held: dec.get_u64()?,
            },
            22 => TraceEvent::TierDrained {
                ckpt: dec.get_u64()?,
                tier: dec.get_u8()?,
            },
            23 => TraceEvent::TierRecovered {
                ckpt: dec.get_u64()?,
                tier: dec.get_u8()?,
            },
            24 => TraceEvent::RankRespawned {
                incarnation: dec.get_u32()?,
                replayed: dec.get_u64()?,
            },
            25 => TraceEvent::SpliceReplayed {
                replayed: dec.get_u64()?,
                suppressed: dec.get_u64()?,
            },
            k => {
                return Err(CodecError::new(format!(
                    "unknown trace event kind {k}"
                )))
            }
        })
    }
}

/// One trace event stamped with its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// World rank that recorded the event.
    pub rank: u32,
    /// Job attempt number (1-based; increments on every restart).
    pub attempt: u64,
    /// Rank incarnation within the attempt (0 = original; a localized
    /// splice respawns the rank as incarnation 1, 2, …). Streams of
    /// superseded incarnations stay in the trace — the analyzer selects
    /// the highest incarnation per (rank, attempt) as the effective
    /// history.
    pub incarnation: u32,
    /// Per-(rank, attempt, incarnation) sequence number, from 0.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.rank);
        enc.put_u64(self.attempt);
        enc.put_u32(self.incarnation);
        enc.put_u64(self.seq);
        self.event.save(enc);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<TraceRecord, CodecError> {
        Ok(TraceRecord {
            rank: dec.get_u32()?,
            attempt: dec.get_u64()?,
            incarnation: dec.get_u32()?,
            seq: dec.get_u64()?,
            event: TraceEvent::load(dec)?,
        })
    }
}

/// Magic bytes prefixing a serialized trace. Bumped to `2` when
/// [`TraceRecord`] gained the `incarnation` stamp (localized recovery).
const TRACE_MAGIC: &[u8; 8] = b"C3TRACE2";

/// Serialize a trace to bytes (the `c3verify` artifact format).
pub fn encode_trace(records: &[TraceRecord]) -> Vec<u8> {
    let mut enc = Encoder::new();
    for b in TRACE_MAGIC {
        enc.put_u8(*b);
    }
    enc.put_usize(records.len());
    for r in records {
        r.save(&mut enc);
    }
    enc.into_bytes()
}

/// Deserialize a trace produced by [`encode_trace`].
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceRecord>, CodecError> {
    let mut dec = Decoder::new(bytes);
    for b in TRACE_MAGIC {
        if dec.get_u8()? != *b {
            return Err(CodecError::new("not a C3 trace (bad magic)"));
        }
    }
    let n = dec.get_usize()?;
    let mut out = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        out.push(TraceRecord::load(&mut dec)?);
    }
    if !dec.is_exhausted() {
        return Err(CodecError::new("trailing bytes after trace records"));
    }
    Ok(out)
}

/// A shared, cheaply clonable collector of trace records. Install one in
/// [`crate::C3Config::trace`]; every rank of every attempt appends to it.
#[derive(Clone, Default)]
pub struct TraceSink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A per-rank recorder stamping `rank`/`attempt` (incarnation 0).
    pub fn for_rank(&self, rank: u32, attempt: u64) -> RankTracer {
        self.for_incarnation(rank, attempt, 0)
    }

    /// A per-rank recorder for a specific incarnation of `rank` within
    /// `attempt` — used when a localized splice respawns a rank and its
    /// fresh stream must be distinguishable from the superseded one.
    pub fn for_incarnation(
        &self,
        rank: u32,
        attempt: u64,
        incarnation: u32,
    ) -> RankTracer {
        RankTracer {
            records: self.records.clone(),
            rank,
            attempt,
            incarnation,
            seq: 0,
        }
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain and return all records collected so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Copy of all records collected so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().clone()
    }
}

/// Stamps and appends one rank's events to the shared sink.
#[derive(Clone)]
pub struct RankTracer {
    records: Arc<Mutex<Vec<TraceRecord>>>,
    rank: u32,
    attempt: u64,
    incarnation: u32,
    seq: u64,
}

impl RankTracer {
    /// Record one event.
    pub fn record(&mut self, event: TraceEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.records.lock().push(TraceRecord {
            rank: self.rank,
            attempt: self.attempt,
            incarnation: self.incarnation,
            seq,
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Send {
                comm: 0,
                dst: 1,
                tag: 7,
                epoch: 2,
                logging: true,
                message_id: 5,
                suppressed: false,
                payload_len: 64,
            },
            TraceEvent::RecvClassified {
                comm: 0,
                src: 3,
                tag: -1,
                message_id: 9,
                class: MsgClass::Late,
                sender_logging: false,
                receiver_epoch: 3,
                receiver_logging: true,
            },
            TraceEvent::LateLogged {
                src: 3,
                message_id: 9,
            },
            TraceEvent::EarlyRecorded {
                src: 0,
                message_id: 1,
            },
            TraceEvent::ReplayLate {
                comm: 1,
                src: 2,
                tag: 4,
                message_id: 0,
            },
            TraceEvent::ControlSent {
                dst: 0,
                kind: control_kind::READY_TO_STOP_LOGGING,
                arg: 0,
            },
            TraceEvent::ControlRecv {
                src: 0,
                kind: control_kind::PLEASE_CHECKPOINT,
                arg: 4,
            },
            TraceEvent::CheckpointTaken {
                ckpt: 4,
                send_counts: vec![1, 2, 3],
                early_counts: vec![0, 0, 1],
            },
            TraceEvent::LogFinalized {
                ckpt: 4,
                late: 2,
                nondet: 1,
                collectives: 0,
            },
            TraceEvent::InitiatorPhase {
                phase: phase_code::COLLECTING_READY,
                ckpt: 4,
            },
            TraceEvent::Commit { ckpt: 4 },
            TraceEvent::CollectiveControl {
                comm: 0,
                kind: 1,
                epoch: 4,
                logging: true,
                max_epoch: 4,
                stopped_at_max: false,
                logged: true,
            },
            TraceEvent::BarrierAligned {
                from_epoch: 3,
                to_epoch: 4,
            },
            TraceEvent::RecoveryStart {
                ckpt: 2,
                late_in_log: 5,
                early_counts: vec![0, 1, 0],
            },
            TraceEvent::SuppressSent { dst: 1, count: 1 },
            TraceEvent::SuppressRecv { src: 2, count: 0 },
            TraceEvent::RecoveryComplete,
            TraceEvent::FailStop { op: 99 },
            TraceEvent::BlobStaged { ckpt: 4, kind: 0 },
            TraceEvent::PipelineDrained { ckpt: 4, blobs: 6 },
            TraceEvent::GcRan { kept: 4 },
            TraceEvent::NetSummary {
                retransmits: 7,
                dup_delivered: 3,
                wire_dropped: 11,
                wire_duplicated: 2,
                wire_held: 5,
            },
            TraceEvent::TierDrained { ckpt: 4, tier: 2 },
            TraceEvent::TierRecovered { ckpt: 4, tier: 1 },
            TraceEvent::RankRespawned {
                incarnation: 1,
                replayed: 42,
            },
            TraceEvent::SpliceReplayed {
                replayed: 42,
                suppressed: 17,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        let records: Vec<TraceRecord> = sample_events()
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                rank: (i % 4) as u32,
                attempt: 1 + (i % 2) as u64,
                incarnation: (i % 3) as u32,
                seq: i as u64,
                event,
            })
            .collect();
        let bytes = encode_trace(&records);
        assert_eq!(decode_trace(&bytes).unwrap(), records);
    }

    #[test]
    fn corrupt_traces_are_rejected() {
        assert!(decode_trace(b"NOTATRACE").is_err());
        let mut bytes = encode_trace(&[TraceRecord {
            rank: 0,
            attempt: 1,
            incarnation: 0,
            seq: 0,
            event: TraceEvent::RecoveryComplete,
        }]);
        bytes.push(0); // trailing garbage
        assert!(decode_trace(&bytes).is_err());
        assert!(decode_trace(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn sink_stamps_rank_attempt_and_sequence() {
        let sink = TraceSink::new();
        let mut t0 = sink.for_rank(0, 1);
        let mut t1 = sink.for_rank(1, 1);
        t0.record(TraceEvent::RecoveryComplete);
        t1.record(TraceEvent::Commit { ckpt: 1 });
        t0.record(TraceEvent::FailStop { op: 3 });
        let recs = sink.take();
        assert_eq!(recs.len(), 3);
        let r0: Vec<_> = recs.iter().filter(|r| r.rank == 0).collect();
        assert_eq!((r0[0].seq, r0[1].seq), (0, 1));
        assert_eq!(r0[0].attempt, 1);
        assert!(sink.is_empty(), "take drains the sink");
    }
}

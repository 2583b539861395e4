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

use ckptstore::codec::{decode_exact, CodecError, Encoder};
use parking_lot::Mutex;

use crate::control::ControlMsg;
use crate::epoch::MsgClass;

/// Control-message kind codes used in [`TraceEvent::ControlSent`] /
/// [`TraceEvent::ControlRecv`]. They match the wire tags of
/// [`ControlMsg`].
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

ckptstore::impl_saveload_enum! {
/// One protocol decision, as seen by the rank that made it.
///
/// Rank fields (`dst`, `src`) are **world** ranks except where noted;
/// `comm` is the communicator pseudo-handle.
///
/// Each variant is stated once, with its one-byte kind code on the
/// wire: the enum, its encoder and its decoder all expand from this
/// table, fields in wire order. Retired codes are never reused: 20 (a
/// simulated lossy wire's summary), 22 and 23 (a multi-level store's
/// drains and recovery reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A point-to-point send left the protocol layer (or was suppressed).
    0 => Send {
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
    1 => RecvClassified {
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
    2 => LateLogged {
        /// Source world rank.
        src: u32,
        /// Piggybacked message id.
        message_id: u32,
    },
    /// An early message's id was recorded for recovery-time suppression.
    3 => EarlyRecorded {
        /// Source world rank.
        src: u32,
        /// Piggybacked message id.
        message_id: u32,
    },
    /// A receive was satisfied from the recovered late-message log.
    4 => ReplayLate {
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
    5 => ControlSent {
        /// Destination world rank.
        dst: u32,
        /// Control kind code.
        kind: u8,
        /// Kind-specific argument (checkpoint number or send count).
        arg: u64,
    },
    /// A control message was received and handled.
    6 => ControlRecv {
        /// Source world rank.
        src: u32,
        /// Control kind code.
        kind: u8,
        /// Kind-specific argument.
        arg: u64,
    },
    /// A local checkpoint was taken (Figure 4's bookkeeping ran); the
    /// rank's epoch is now `ckpt`.
    7 => CheckpointTaken {
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
    8 => LogFinalized {
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
    9 => InitiatorPhase {
        /// The new phase code.
        phase: u8,
        /// The checkpoint number being created (or just committed for
        /// [`phase_code::IDLE`]).
        ckpt: u64,
    },
    /// The initiator committed global checkpoint `ckpt` as the recovery
    /// line.
    10 => Commit {
        /// The committed checkpoint number.
        ckpt: u64,
    },
    /// This rank came out of a collective holding its participants'
    /// folded control word (on the data collective's own frames, in the
    /// root's answer, or on a preceding exchange, by kind) and applied
    /// the conjunction rule (Section 4.5). Emitted after the data call,
    /// so `epoch` reflects any barrier alignment.
    11 => CollectiveControl {
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
    12 => BarrierAligned {
        /// Epoch before alignment.
        from_epoch: u32,
        /// Target epoch (the participants' maximum).
        to_epoch: u32,
    },
    /// Recovery from a committed checkpoint began on this rank.
    13 => RecoveryStart {
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
    14 => SuppressSent {
        /// The sender (world rank) whose re-sends it suppresses.
        dst: u32,
        /// Number of message ids in the list.
        count: u64,
    },
    /// A suppression list was received from a receiver during recovery.
    15 => SuppressRecv {
        /// The receiver (world rank) that recorded the early messages.
        src: u32,
        /// Number of message ids in the list.
        count: u64,
    },
    /// This rank's recovery fully drained (log replayed, suppressed
    /// re-sends issued).
    16 => RecoveryComplete,
    /// An injected stopping failure fired on this rank.
    17 => FailStop {
        /// The rank's protocol-operation count at the failure.
        op: u64,
    },
    /// A checkpoint blob was handed to the write pipeline (synchronous or
    /// asynchronous). Staging happens on the rank's critical path; the
    /// write itself may complete much later.
    18 => BlobStaged {
        /// Checkpoint the blob belongs to.
        ckpt: u64,
        /// Blob kind: 0 = state, 1 = log, 2 = MPI objects.
        kind: u8,
    },
    /// The initiator's drain barrier returned: every blob staged for
    /// `ckpt` — by any rank — is on stable storage. Emitted immediately
    /// before [`TraceEvent::Commit`]; the analyzer checks that ordering
    /// and that `blobs` covers all ranks' staged blobs.
    19 => PipelineDrained {
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
    21 => GcRan {
        /// The committed checkpoint the sweep kept (the recovery line).
        kept: u64,
    },
    /// This rank was spliced back online: a fresh incarnation replaces a
    /// fail-stopped one *within the same attempt*, while the survivors
    /// keep running (localized recovery — no global rollback). First
    /// event of the new incarnation's stream. The analyzer checks (I15)
    /// that a superseded incarnation's stream ends in a failure and that
    /// the effective per-rank history is the highest incarnation's.
    24 => RankRespawned {
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
    25 => SpliceReplayed {
        /// Taped messages released during catch-up.
        replayed: u64,
        /// Re-executed sends squelched below the death-time sequence
        /// high-water.
        suppressed: u64,
    },
    /// A gather or reduce contributor that did not ask for the
    /// participants' fold (it was not logging) left as soon as its frame
    /// was sent: the answered form of Section 4.5's agreement. It neither
    /// read the fold nor logged the result.
    26 => CollectiveUninformed {
        /// Communicator pseudo-handle.
        comm: u64,
        /// Collective kind (see `logrec::coll_kind`).
        kind: u8,
        /// This rank's epoch at the data call.
        epoch: u32,
        /// Whether this rank was logging when the collective started.
        logging: bool,
    },
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

ckptstore::impl_saveload_struct!(TraceRecord {
    rank: u32,
    attempt: u64,
    incarnation: u32,
    seq: u64,
    event: TraceEvent,
});

/// Magic bytes prefixing a serialized trace. Bumped to `2` when
/// [`TraceRecord`] gained the `incarnation` stamp (localized recovery).
const TRACE_MAGIC: &[u8; 8] = b"C3TRACE2";

/// Serialize a trace to bytes (the `c3verify` artifact format).
pub fn encode_trace(records: &[TraceRecord]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_usize(records.len());
    records.iter().for_each(|r| enc.put(r));
    [&TRACE_MAGIC[..], &enc.into_bytes()].concat()
}

/// Deserialize a trace produced by [`encode_trace`].
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceRecord>, CodecError> {
    let records = bytes
        .strip_prefix(TRACE_MAGIC)
        .ok_or_else(|| CodecError::new("not a C3 trace (bad magic)"))?;
    decode_exact(records, "trace records")
}

/// A shared, cheaply clonable collector of trace records. Install one in
/// [`crate::C3Config::trace`]; every rank of every attempt hands it its
/// stream when the rank's protocol layer is dropped. Streams arrive whole
/// and in completion order; within one, `seq` is the order.
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
            sink: self.clone(),
            stream: Vec::new(),
            rank,
            attempt,
            incarnation,
        }
    }

    /// Number of records handed in so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing has been handed in.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain and return all records handed in so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock())
    }
}

/// Stamps and buffers one rank's events; the stream reaches the sink
/// once, when the tracer is dropped, so recording takes no lock.
pub struct RankTracer {
    sink: TraceSink,
    stream: Vec<TraceRecord>,
    rank: u32,
    attempt: u64,
    incarnation: u32,
}

impl RankTracer {
    /// Record one event.
    pub fn record(&mut self, event: TraceEvent) {
        self.stream.push(TraceRecord {
            rank: self.rank,
            attempt: self.attempt,
            incarnation: self.incarnation,
            seq: self.stream.len() as u64,
            event,
        });
    }
}

impl Drop for RankTracer {
    fn drop(&mut self) {
        self.sink.records.lock().append(&mut self.stream);
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
            TraceEvent::RankRespawned {
                incarnation: 1,
                replayed: 42,
            },
            TraceEvent::SpliceReplayed {
                replayed: 42,
                suppressed: 17,
            },
            TraceEvent::CollectiveUninformed {
                comm: 0,
                kind: 2,
                epoch: 3,
                logging: false,
            },
        ]
    }

    fn sample_records() -> Vec<TraceRecord> {
        sample_events()
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                rank: (i % 4) as u32,
                attempt: 1 + (i % 2) as u64,
                incarnation: (i % 3) as u32,
                seq: i as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn every_event_kind_round_trips() {
        let records = sample_records();
        let bytes = encode_trace(&records);
        assert_eq!(decode_trace(&bytes).unwrap(), records);
        // The sample covers the variant table, whatever it grows to.
        let mut sampled: Vec<u8> = sample_events()
            .iter()
            .map(|e| ckptstore::codec::encode(e)[0])
            .collect();
        let mut table = TraceEvent::TAGS.to_vec();
        sampled.sort_unstable();
        table.sort_unstable();
        assert_eq!(sampled, table);
    }

    /// `C3TRACE2` is pinned byte for byte by the length and digest of the
    /// sample's encoding: a change here breaks every recorded artifact
    /// and needs a new magic.
    #[test]
    fn c3trace2_golden_bytes() {
        let bytes = encode_trace(&sample_records());
        assert_eq!(bytes.len(), 1043);
        assert_eq!(
            ckptstore::hash128(&bytes),
            0xd34e_1aa9_247c_17bf_153e_dab5_7657_406d
        );
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
        // A field-less event ends the artifact with its tag byte. Tag 20
        // is retired (it summarised a simulated lossy wire), and so are
        // 22 and 23 (a multi-level store's drains and recovery reads): a
        // record bearing one is an unknown tag.
        assert_eq!(bytes.last(), Some(&16));
        for tag in [20, 22, 23] {
            assert!(!TraceEvent::TAGS.contains(&tag));
            let mut retired = bytes.clone();
            *retired.last_mut().unwrap() = tag;
            let err = decode_trace(&retired).unwrap_err().to_string();
            let named = format!("tag {tag}");
            assert!(err.contains("unknown") && err.contains(&named), "{err}");
        }
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
        assert!(sink.is_empty(), "streams arrive when their tracer drops");
        drop((t0, t1));
        let recs = sink.take();
        assert_eq!(recs.len(), 3);
        let r0: Vec<_> = recs.iter().filter(|r| r.rank == 0).collect();
        assert_eq!((r0[0].seq, r0[1].seq), (0, 1));
        assert_eq!(r0[0].attempt, 1);
        assert!(sink.is_empty(), "take drains the sink");
    }
}

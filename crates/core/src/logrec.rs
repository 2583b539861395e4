//! The per-process recovery log (Section 4.1, phase 2).
//!
//! Between taking its local checkpoint and terminating logging, a process
//! writes three kinds of records:
//!
//! * **late messages** — full payloads of messages sent in the previous
//!   epoch, so they can be re-delivered during recovery (the senders will
//!   not re-send them);
//! * **non-deterministic decisions** — so a recovering execution reproduces
//!   exactly the values the checkpointed global state causally depends on;
//! * **collective-call results** — so processes that re-execute a
//!   collective during recovery read its result from the log instead of
//!   communicating with peers that will not re-execute it (Section 4.5);
//!   only calls with such a peer are logged.
//!
//! The log is finalized (written to stable storage) at `finalizeLog`; on
//! recovery it is reloaded and consumed through per-kind cursors by
//! [`crate::recovery`].

use bytes::Bytes;
use ckptstore::codec::{CodecError, Decoder, Encoder, SaveLoad};

/// One logged late message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LateMessage {
    /// Pseudo-handle index of the communicator the message arrived on —
    /// replay must never cross-match messages between communicators whose
    /// rank/tag spaces overlap. Stable across restarts because
    /// communicator creation is journaled and replayed deterministically.
    pub comm: usize,
    /// Sender's rank (application-communicator frame).
    pub src: usize,
    /// Piggybacked per-epoch message id at the sender.
    pub message_id: u32,
    /// Application tag.
    pub tag: i32,
    /// Application payload (header already stripped). A refcounted view
    /// of the received message — logging a late message shares the
    /// payload instead of copying it.
    pub payload: Bytes,
}

impl SaveLoad for LateMessage {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.comm);
        enc.put_usize(self.src);
        enc.put_u32(self.message_id);
        enc.put_i32(self.tag);
        enc.put_bytes(&self.payload);
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(LateMessage {
            comm: dec.get_usize()?,
            src: dec.get_usize()?,
            message_id: dec.get_u32()?,
            tag: dec.get_i32()?,
            // Recovery reload is cold; one copy out of the blob is fine.
            payload: Bytes::copy_from_slice(dec.get_bytes()?),
        })
    }
}

/// One logged collective result: the bytes this process's collective call
/// returned. `kind` is a sanity tag so a replay mismatch (program drift)
/// is detected instead of silently returning the wrong bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveRecord {
    /// Pseudo-handle index of the communicator the call ran on: only a
    /// prefix of each communicator's calls is logged, so replay keeps one
    /// cursor per communicator.
    pub comm: usize,
    /// Which collective produced this (see the [`coll_kind`] constants).
    pub kind: u8,
    /// The result returned to the application, shared by refcount with
    /// the buffer the collective handed back.
    pub result: Bytes,
}

impl SaveLoad for CollectiveRecord {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.comm);
        enc.put_u8(self.kind);
        enc.put_bytes(&self.result);
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CollectiveRecord {
            comm: dec.get_usize()?,
            kind: dec.get_u8()?,
            result: Bytes::copy_from_slice(dec.get_bytes()?),
        })
    }
}

/// Collective kinds used in [`CollectiveRecord::kind`].
pub mod coll_kind {
    /// `barrier`.
    pub const BARRIER: u8 = 0;
    /// `bcast`.
    pub const BCAST: u8 = 1;
    /// `gather`.
    pub const GATHER: u8 = 2;
    /// `allgather`.
    pub const ALLGATHER: u8 = 3;
    /// `reduce`.
    pub const REDUCE: u8 = 4;
    /// `allreduce`.
    pub const ALLREDUCE: u8 = 5;
    /// `alltoall`.
    pub const ALLTOALL: u8 = 6;
    /// `scatter`.
    pub const SCATTER: u8 = 7;
    /// `scan`.
    pub const SCAN: u8 = 8;
}

/// The in-memory recovery log being written while `amLogging` is true.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Late messages in delivery order.
    pub late: Vec<LateMessage>,
    /// Non-deterministic draws in occurrence order.
    pub nondet: Vec<u64>,
    /// Collective results in call order (each communicator's in its own
    /// call order).
    pub collectives: Vec<CollectiveRecord>,
}

impl RecoveryLog {
    /// An empty log (opened at the local checkpoint).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a late message delivery.
    pub fn push_late(&mut self, m: LateMessage) {
        self.late.push(m);
    }

    /// Record a non-deterministic decision.
    pub fn push_nondet(&mut self, v: u64) {
        self.nondet.push(v);
    }

    /// Record the result of a collective call on communicator `comm`.
    pub fn push_collective(&mut self, comm: usize, kind: u8, result: Bytes) {
        self.collectives
            .push(CollectiveRecord { comm, kind, result });
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.late.is_empty()
            && self.nondet.is_empty()
            && self.collectives.is_empty()
    }
}

ckptstore::impl_saveload_struct!(RecoveryLog {
    late: Vec<LateMessage>,
    nondet: Vec<u64>,
    collectives: Vec<CollectiveRecord>,
});

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::codec::{decode_exact, encode};

    #[test]
    fn empty_log_round_trip() {
        let log = RecoveryLog::new();
        assert!(log.is_empty());
        let back: RecoveryLog = decode_exact(&encode(&log), "log").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_log_blob_errors() {
        let mut log = RecoveryLog::new();
        log.push_nondet(7);
        let bytes = encode(&log);
        let cut = &bytes[..bytes.len() - 1];
        assert!(decode_exact::<RecoveryLog>(cut, "log").is_err());
    }
}

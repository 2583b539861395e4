//! Recovery-time state: checkpoint blob formats and the replay engine.
//!
//! On restart from committed global checkpoint `N`, each rank:
//!
//! 1. loads its [`RankCheckpoint`] (state blob) — application state bytes,
//!    the early-message id sets recorded before the checkpoint, and the
//!    pending-request pseudo-handle table (Section 5.2);
//! 2. replays its persistent-object journal, recreating communicators;
//! 3. exchanges suppression lists: the recorded early ids are sent to their
//!    *senders*, which drop the matching re-sends (Section 3.2);
//! 4. replays its recovery log through [`Replay`]: logged late messages
//!    satisfy matching receives, logged non-deterministic draws are
//!    returned in order, logged collective results are returned without
//!    communication, in order per communicator (Sections 4.1 and 4.5).
//!
//! A new global checkpoint is not initiated until every rank reports its
//! replay fully drained (see `RecoveryComplete` handling in the process
//! layer) — this preserves the invariant that suppressed re-sends carry the
//! message ids the receivers recorded.

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;
use ckptstore::codec::{CodecError, Decoder, Encoder};

use crate::error::{C3Error, C3Result};
use crate::logrec::{LateMessage, RecoveryLog};
use crate::pending::PendingTable;

/// Header of the per-rank state blob written at `potentialCheckpoint`.
/// The blob is this header followed by the application state envelope
/// as a length-prefixed byte string (empty at `ProtocolOnly`
/// instrumentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankCheckpoint {
    /// The checkpoint number (equals the epoch the process enters).
    pub ckpt: u64,
    /// `earlyIDs[q]`: per sender, the piggybacked ids of early messages
    /// received from `q` before this checkpoint.
    pub early_ids: Vec<Vec<u32>>,
    /// Live non-blocking request pseudo-handles at checkpoint time.
    pub pending: PendingTable,
}

impl RankCheckpoint {
    /// Encode the state blob: the header, then whatever `app_state`
    /// appends as the envelope. Header and envelope share the one
    /// encoder, so the state is serialized exactly once and its tracked
    /// fields keep their parts.
    pub fn save(
        &self,
        enc: &mut Encoder,
        app_state: impl FnOnce(&mut Encoder),
    ) {
        enc.put_u64(self.ckpt);
        enc.put(&self.early_ids);
        enc.put(&self.pending);
        enc.put_len_prefixed(app_state);
    }

    /// Decode the header of a state blob and locate the envelope in it.
    pub fn load(blob: &[u8]) -> Result<(Self, Range<usize>), CodecError> {
        let mut dec = Decoder::new(blob);
        let rc = RankCheckpoint {
            ckpt: dec.get_u64()?,
            early_ids: dec.get()?,
            pending: dec.get()?,
        };
        let envelope = dec.get_bytes()?.len();
        dec.finish("state blob")?;
        Ok((rc, blob.len() - envelope..blob.len()))
    }
}

/// Replay engine over a reloaded [`RecoveryLog`].
#[derive(Debug)]
pub struct Replay {
    log: RecoveryLog,
    late_taken: Vec<bool>,
    late_remaining: usize,
    nondet_cursor: usize,
    /// Per communicator: the index in the log's collectives at which its
    /// next record's search starts.
    coll_cursors: BTreeMap<usize, usize>,
    coll_remaining: usize,
}

impl Replay {
    /// Build a replay over a log loaded from stable storage.
    pub fn new(log: RecoveryLog) -> Self {
        let n = log.late.len();
        Replay {
            late_taken: vec![false; n],
            late_remaining: n,
            nondet_cursor: 0,
            coll_cursors: BTreeMap::new(),
            coll_remaining: log.collectives.len(),
            log,
        }
    }

    /// Satisfy a receive from the log if an unconsumed late message on
    /// communicator `comm` matches the `(src, tag)` pattern (`None`
    /// components are wildcards; the communicator is always exact).
    /// Matches the earliest logged entry, preserving per-channel delivery
    /// order.
    pub fn take_late(
        &mut self,
        comm: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Option<LateMessage> {
        if self.late_remaining == 0 {
            return None;
        }
        let idx = self.log.late.iter().enumerate().position(|(i, m)| {
            !self.late_taken[i]
                && m.comm == comm
                && src.is_none_or(|s| s == m.src)
                && tag.is_none_or(|t| t == m.tag)
        })?;
        self.late_taken[idx] = true;
        self.late_remaining -= 1;
        Some(self.log.late[idx].clone())
    }

    /// Next logged non-deterministic draw, if any remain.
    pub fn next_nondet(&mut self) -> Option<u64> {
        let v = self.log.nondet.get(self.nondet_cursor).copied();
        if v.is_some() {
            self.nondet_cursor += 1;
        }
        v
    }

    /// Next logged result of a collective on communicator `comm`, if any
    /// remain: the log holds a prefix of each communicator's calls, so
    /// once `comm`'s records are consumed its calls run live. Validates
    /// the call kind so a re-execution that drifted from the original
    /// call sequence fails loudly instead of returning the wrong bytes.
    pub fn next_collective(
        &mut self,
        comm: usize,
        kind: u8,
    ) -> C3Result<Option<Bytes>> {
        let from = self.coll_cursors.get(&comm).copied().unwrap_or(0);
        let Some(at) = self.log.collectives[from..]
            .iter()
            .position(|rec| rec.comm == comm)
            .map(|i| from + i)
        else {
            return Ok(None);
        };
        let rec = &self.log.collectives[at];
        if rec.kind != kind {
            return Err(C3Error::Protocol(format!(
                "collective replay mismatch on communicator {comm}: log has \
                 kind {}, re-execution called kind {kind}",
                rec.kind
            )));
        }
        self.coll_cursors.insert(comm, at + 1);
        self.coll_remaining -= 1;
        Ok(Some(rec.result.clone()))
    }

    /// True once every logged record has been consumed.
    pub fn is_drained(&self) -> bool {
        self.late_remaining == 0
            && self.nondet_cursor >= self.log.nondet.len()
            && self.coll_remaining == 0
    }

    /// Unconsumed late messages (diagnostics).
    pub fn late_remaining(&self) -> usize {
        self.late_remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logrec::coll_kind;

    fn late(src: usize, id: u32, tag: i32, byte: u8) -> LateMessage {
        LateMessage {
            comm: 0,
            src,
            message_id: id,
            tag,
            payload: vec![byte].into(),
        }
    }

    #[test]
    fn rank_checkpoint_blob_is_the_parent_format_and_round_trips() {
        use crate::pending::PendingKind;
        let mut pending = PendingTable::new();
        pending.insert(PendingKind::Send);
        pending.insert(PendingKind::Recv {
            comm: 1,
            src: 2,
            tag: 7,
        });
        let rc = RankCheckpoint {
            ckpt: 4,
            early_ids: vec![vec![], vec![0, 3], vec![7]],
            pending,
        };
        let mut enc = Encoder::new();
        rc.save(&mut enc, |enc| {
            enc.put_u8(9);
            enc.put_u16(0x0909);
        });
        let blob = enc.into_bytes();
        // Golden: the bytes the commit before the one-encoder write path
        // produced for this checkpoint with app_state = [9, 9, 9] (its
        // `put_bytes` of a separately built envelope). A store written
        // then must restore now.
        #[rustfmt::skip]
        let golden = [
            4, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0,
            0, 0, 0, 0, 7, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0,
            0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0,
            0, 0, 0, 0, 9, 9, 9,
        ];
        assert_eq!(blob, golden);
        let (back, envelope) = RankCheckpoint::load(&blob).unwrap();
        assert_eq!(back, rc);
        assert_eq!(&blob[envelope], [9, 9, 9]);
        // An envelope that claims more bytes than the blob has is an
        // error, not a panic.
        assert!(RankCheckpoint::load(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn late_replay_matches_by_pattern_in_order() {
        let mut log = RecoveryLog::new();
        log.push_late(late(1, 0, 5, b'a'));
        log.push_late(late(2, 0, 5, b'b'));
        log.push_late(late(1, 1, 5, b'c'));
        let mut rep = Replay::new(log);

        // Specific source: earliest from rank 1.
        let m = rep.take_late(0, Some(1), Some(5)).unwrap();
        assert_eq!(m.payload, vec![b'a']);
        // Wildcard source: earliest remaining overall (rank 2's).
        let m = rep.take_late(0, None, Some(5)).unwrap();
        assert_eq!(m.payload, vec![b'b']);
        // Non-matching tag: nothing.
        assert!(rep.take_late(0, Some(1), Some(9)).is_none());
        // Channel order preserved: rank 1's second message last.
        let m = rep.take_late(0, Some(1), None).unwrap();
        assert_eq!(m.payload, vec![b'c']);
        assert_eq!(rep.late_remaining(), 0);
        assert!(rep.take_late(0, None, None).is_none());
    }

    #[test]
    fn nondet_replays_in_order_then_runs_dry() {
        let mut log = RecoveryLog::new();
        log.push_nondet(10);
        log.push_nondet(20);
        let mut rep = Replay::new(log);
        assert_eq!(rep.next_nondet(), Some(10));
        assert_eq!(rep.next_nondet(), Some(20));
        assert_eq!(rep.next_nondet(), None);
    }

    #[test]
    fn collective_replay_checks_kind() {
        let mut log = RecoveryLog::new();
        log.push_collective(0, coll_kind::ALLREDUCE, vec![1].into());
        log.push_collective(0, coll_kind::BARRIER, Bytes::new());
        let mut rep = Replay::new(log);
        assert_eq!(
            rep.next_collective(0, coll_kind::ALLREDUCE).unwrap(),
            Some(vec![1].into())
        );
        // Wrong kind next: loud failure.
        assert!(rep.next_collective(0, coll_kind::ALLGATHER).is_err());
        assert_eq!(
            rep.next_collective(0, coll_kind::BARRIER).unwrap(),
            Some(Bytes::new())
        );
        assert_eq!(rep.next_collective(0, coll_kind::BARRIER).unwrap(), None);
    }

    /// Each communicator's records are consumed in its own order, and a
    /// communicator with none left runs live while others still replay.
    #[test]
    fn collective_replay_keeps_one_cursor_per_communicator() {
        let mut log = RecoveryLog::new();
        log.push_collective(1, coll_kind::ALLREDUCE, vec![10].into());
        log.push_collective(2, coll_kind::ALLREDUCE, vec![20].into());
        log.push_collective(1, coll_kind::ALLREDUCE, vec![11].into());
        let mut rep = Replay::new(log);
        let mut next =
            |comm| rep.next_collective(comm, coll_kind::ALLREDUCE).unwrap();
        assert_eq!(next(2), Some(vec![20].into()));
        assert_eq!(next(2), None, "communicator 2's prefix is consumed");
        assert_eq!(next(0), None, "nothing was logged on communicator 0");
        assert_eq!(next(1), Some(vec![10].into()));
        assert_eq!(next(1), Some(vec![11].into()));
        assert_eq!(next(1), None);
        assert!(rep.is_drained());
    }

    #[test]
    fn drained_reflects_all_three_streams() {
        let mut log = RecoveryLog::new();
        log.push_late(late(0, 0, 1, 0));
        log.push_nondet(1);
        log.push_collective(0, coll_kind::BCAST, Bytes::new());
        let mut rep = Replay::new(log);
        assert!(!rep.is_drained());
        rep.take_late(0, Some(0), Some(1)).unwrap();
        assert!(!rep.is_drained());
        rep.next_nondet().unwrap();
        assert!(!rep.is_drained());
        rep.next_collective(0, coll_kind::BCAST).unwrap();
        assert!(rep.is_drained());
    }

    #[test]
    fn empty_log_is_immediately_drained() {
        assert!(Replay::new(RecoveryLog::new()).is_drained());
    }
}

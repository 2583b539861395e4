//! MPI library state captured through pseudo-handles (Section 5.2).
//!
//! The protocol layer never sees inside the MPI library; it records, at its
//! own level, everything needed to give the application a consistent view
//! after restart:
//!
//! * **Transient objects** (`MPI_Request`): [`PendingTable`] tracks every
//!   live non-blocking request by pseudo-handle. A request created before a
//!   checkpoint and completed after it is *reinitialized* on recovery —
//!   an `Isend` request completes immediately (the message is either part
//!   of the receiver's checkpoint or in its log); an `Irecv` request is
//!   satisfied from the late-message log if it matches, or re-posted
//!   against the live library otherwise.
//! * **Persistent objects** (communicators, ...): [`PersistentJournal`]
//!   records every creating call with its arguments; on restart the calls
//!   are replayed in order, recreating functionally identical objects
//!   behind the same pseudo-handles.

use std::collections::BTreeMap;

/// Pseudo-handle for a non-blocking request, stable across checkpoints.
pub type ReqHandle = u64;

/// Pseudo-handle for a communicator (index into the comm registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CommHandle(pub usize);

ckptstore::impl_saveload_enum! {
/// What a pending request was, as persisted in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingKind {
    /// An `Isend`: on recovery, `wait` returns immediately.
    0 => Send,
    /// An `Irecv` with its repost arguments: communicator pseudo-handle,
    /// source pattern (`usize::MAX` = any), and tag pattern
    /// (`i32::MIN` = any).
    1 => Recv {
        /// Communicator pseudo-handle index the receive was posted on.
        comm: usize,
        /// Source pattern (`usize::MAX` = any source).
        src: usize,
        /// Tag pattern (`i32::MIN` = any tag).
        tag: i32,
    },
}
}

/// The live table of not-yet-completed request pseudo-handles.
///
/// Only the persistable description is stored here; the protocol layer
/// keeps the live `simmpi` request object alongside (it is deliberately
/// *not* part of the checkpoint — on recovery the handle is
/// reinitialized).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PendingTable {
    entries: BTreeMap<ReqHandle, PendingKind>,
    next: ReqHandle,
}

impl PendingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new pending request; returns its pseudo-handle.
    pub fn insert(&mut self, kind: PendingKind) -> ReqHandle {
        let h = self.next;
        self.next += 1;
        self.entries.insert(h, kind);
        h
    }

    /// Remove a completed request.
    pub fn remove(&mut self, h: ReqHandle) -> Option<PendingKind> {
        self.entries.remove(&h)
    }

    /// Look up a pending request.
    pub fn get(&self, h: ReqHandle) -> Option<&PendingKind> {
        self.entries.get(&h)
    }

    /// Number of live pseudo-handles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over live handles.
    pub fn iter(&self) -> impl Iterator<Item = (ReqHandle, &PendingKind)> {
        self.entries.iter().map(|(&h, k)| (h, k))
    }
}

ckptstore::impl_saveload_struct!(PendingTable {
    next: ReqHandle,
    entries: BTreeMap<ReqHandle, PendingKind>,
});

ckptstore::impl_saveload_enum! {
/// One recorded persistent-object-creating call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistentCall {
    /// `comm_dup(parent)` → the next comm pseudo-handle.
    0 => CommDup {
        /// Pseudo-handle index of the parent communicator.
        parent: usize,
    },
    /// `comm_split(parent, color, key)` → the next comm pseudo-handle
    /// (or an opted-out `None`, which still consumes a journal slot so all
    /// ranks replay the same call sequence).
    1 => CommSplit {
        /// Pseudo-handle index of the parent communicator.
        parent: usize,
        /// Split color (negative = opt out).
        color: i32,
        /// Ordering key within the color group.
        key: i32,
    },
}
}

/// The record/replay journal for persistent MPI opaque objects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistentJournal {
    calls: Vec<PersistentCall>,
}

impl PersistentJournal {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a creating call.
    pub fn record(&mut self, call: PersistentCall) {
        self.calls.push(call);
    }

    /// The recorded calls, in creation order (replayed on restart).
    pub fn calls(&self) -> &[PersistentCall] {
        &self.calls
    }

    /// Number of recorded calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

ckptstore::impl_saveload_struct!(PersistentJournal {
    calls: Vec<PersistentCall>,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_table_lifecycle() {
        let mut t = PendingTable::new();
        let a = t.insert(PendingKind::Send);
        let b = t.insert(PendingKind::Recv {
            comm: 0,
            src: 3,
            tag: 7,
        });
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), Some(&PendingKind::Send));
        assert_eq!(t.remove(a), Some(PendingKind::Send));
        assert_eq!(t.remove(a), None);
        assert_eq!(t.len(), 1);
        // Handles are never reused.
        let c = t.insert(PendingKind::Send);
        assert!(c > b);
    }
}

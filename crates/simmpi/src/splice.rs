//! Online rank substitution: the supervision types behind
//! [`crate::World::run_supervised`].
//!
//! The supervisor has one failure path: a rank's death reaches it as the
//! `Err(FailStop)` the rank thread exits with, and after the detection
//! latency the attempt is aborted — full-job rollback, the paper's
//! recovery model, which throws away every survivor's progress to repair
//! one dead rank. A *splice policy*, when the caller supplies one, may
//! instead keep the survivors running. Only then does each rank handle
//! carry splice bookkeeping (`Mpi::splice`): it tapes every message the
//! rank *consumed* (tagged with the consuming rank's operation count), and
//! when the rank fail-stops the dead handle itself — tape and mailbox —
//! travels to the supervisor, which turns it into a fresh
//! incarnation that deterministically re-executes the rank function with
//! the tape substituting for its peers:
//!
//! * messages are taped at the moment the dead incarnation *consumed*
//!   them (handed them to the caller), in consumption order, and
//!   released to the successor's matching engine strictly one at a
//!   time in that order — the head entry becomes visible only once
//!   the previously released entry has been consumed *and* the
//!   successor's operation count reaches `max(feed_op, consume_op -
//!   1)` (never before the original's physical arrival, and no
//!   earlier than the poll that found it: the control pump probes one
//!   operation before its consuming receive). Both gates matter:
//!   taping at consumption rather than at feed keeps *polled*
//!   consumption order-faithful (a message the original fed but never
//!   polled must not be consumed mid-replay at a point the original
//!   never reached), and one-at-a-time release sequences polls that
//!   share an operation count (the original may consume a message
//!   between two same-op probes, which no op threshold can tell
//!   apart). Messages fed but never consumed are not on the tape and
//!   go live only after catch-up;
//! * re-executed sends are counted and squelched until the dead
//!   incarnation's per-(destination, context, tag) transmitted-frame
//!   budgets are spent — survivors already hold those messages, and the
//!   protocol layer's duplicate-suppression machinery never even sees a
//!   duplicate. Budgets are class-wise because replay may interleave
//!   control and application traffic differently than the original run;
//! * the successor inherits the dead rank's mailbox, so traffic peers sent
//!   during the death window is neither lost nor duplicated.
//!
//! Determinism is what makes this sound: a rank's execution is a function
//! of its rank id, the attempt-scoped seed material derived from them by
//! the layers above, and the sequence of messages fed to its matching
//! engine. Replaying the consumed-message sequence at faithful op counts
//! reproduces the dead incarnation's execution exactly up to the death
//! point, after which the incarnation goes live on the real fabric.

use crate::envelope::Message;

/// A taped consumed message: its release point (the consuming rank's
/// operation count from which a replay may make it visible) plus the
/// message.
pub(crate) type TapeEntry = (u64, Message);

/// What the supervisor tells a splice policy about a freshly detected
/// rank death.
#[derive(Debug, Clone, Copy)]
pub struct SpliceQuery {
    /// The world rank that fail-stopped.
    pub rank: usize,
    /// How many times this rank has already been respawned this attempt.
    pub rank_respawns: u32,
    /// Total respawns performed this attempt (all ranks).
    pub total_respawns: usize,
}

/// A splice policy's verdict on a rank death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceDecision {
    /// Splice in a new incarnation; survivors keep running.
    Respawn,
    /// Give up on online recovery: abort the attempt so the job driver
    /// falls back to a full rollback-restart.
    Escalate,
}

/// A splice policy, as the supervisor borrows it: consulted once per
/// detected rank death.
pub type SplicePolicy<'p> = &'p mut dyn FnMut(SpliceQuery) -> SpliceDecision;

/// What a supervised run did about failures, alongside the per-rank
/// results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Respawns performed (incarnations spawned beyond the first).
    pub respawns: usize,
    /// Respawned ranks whose final incarnation ran to successful
    /// completion — the count of *completed* splices.
    pub completed: usize,
    /// True if a splice policy escalated and the attempt was aborted.
    pub escalated: bool,
}

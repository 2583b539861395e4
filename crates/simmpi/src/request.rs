//! Non-blocking communication requests (the `MPI_Request` analogue).

use crate::envelope::RecvMsg;
use crate::matching::RecvId;

/// Handle for a non-blocking operation, completed via [`crate::Mpi::wait`],
/// [`crate::Mpi::test`], or the `waitall`/`waitany` variants.
///
/// A request is single-use: waiting on it a second time is a
/// [`crate::MpiError::BadRequest`]. Requests must be completed by the same
/// rank that created them.
#[derive(Debug)]
pub struct Request {
    pub(crate) state: ReqState,
    /// World rank that owns this request; used to detect cross-rank misuse.
    pub(crate) owner: usize,
}

#[derive(Debug)]
pub(crate) enum ReqState {
    /// Send has been handed to the transport (sends buffer and complete
    /// immediately in this runtime, like a buffered-mode `MPI_Isend`).
    SendDone,
    /// Receive completed at post time or via a mailbox drain.
    RecvReady(RecvMsg),
    /// Receive still pending in the matching engine.
    RecvPending(RecvId),
    /// Result already taken by `wait`/`test`.
    Consumed,
}

impl Request {
    pub(crate) fn send_done(owner: usize) -> Self {
        Request {
            state: ReqState::SendDone,
            owner,
        }
    }

    pub(crate) fn recv_ready(owner: usize, msg: RecvMsg) -> Self {
        Request {
            state: ReqState::RecvReady(msg),
            owner,
        }
    }

    pub(crate) fn recv_pending(owner: usize, id: RecvId) -> Self {
        Request {
            state: ReqState::RecvPending(id),
            owner,
        }
    }

    /// True if the result has already been taken.
    pub fn is_consumed(&self) -> bool {
        matches!(self.state, ReqState::Consumed)
    }
}

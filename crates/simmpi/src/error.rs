//! Error type for every MPI-like operation.

use std::fmt;

/// Errors surfaced by `simmpi` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The job was aborted (a stopping failure was detected somewhere and
    /// the recovery harness is rolling the job back). Every blocked call in
    /// every rank returns this; rank functions should propagate it upward.
    Aborted,
    /// This rank has been told to fail-stop. The rank function must return
    /// immediately and silently — a stopped process neither sends nor
    /// receives (Section 1.1 of the paper).
    FailStop,
    /// A rank index outside `0..size` was supplied.
    InvalidRank {
        /// The offending rank index.
        rank: usize,
        /// The communicator's size.
        size: usize,
    },
    /// The rank making the call is not a member of the communicator.
    NotInComm,
    /// Collective participants disagreed on payload sizes or dtypes.
    CollectiveMismatch(String),
    /// A reduce payload length was not a multiple of the dtype width.
    BadPayload(String),
    /// A request was waited on twice, or a `Request` from a different rank
    /// was passed in.
    BadRequest(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Aborted => write!(f, "job aborted for rollback"),
            MpiError::FailStop => write!(f, "rank fail-stopped"),
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "invalid rank {rank} for communicator of size {size}"
                )
            }
            MpiError::NotInComm => {
                write!(f, "calling rank is not a member of the communicator")
            }
            MpiError::CollectiveMismatch(m) => {
                write!(f, "collective call mismatch: {m}")
            }
            MpiError::BadPayload(m) => write!(f, "bad payload: {m}"),
            MpiError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Convenience alias used throughout the crate and by layers above.
pub type MpiResult<T> = Result<T, MpiError>;

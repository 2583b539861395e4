//! `simmpi` — an in-process MPI-like message-passing runtime.
//!
//! This crate is the "MPI library" layer of the PPoPP 2003 C³ system
//! architecture (Figure 2 of *Automated Application-level Checkpointing of
//! MPI Programs*). The checkpointing protocol layer in `c3-core` sits on top
//! of it and treats it as a **black box reachable only through its
//! interface** — exactly the constraint the paper imposes (Section 3.5: "our
//! problem is to record and recover the state of the MPI library using only
//! the MPI interface").
//!
//! Design choices that mirror MPI semantics relevant to the paper:
//!
//! * **Ranks are OS threads** inside one process; the transport is a
//!   reliable, per-sender-FIFO channel per destination (the paper assumes a
//!   reliable message delivery substrate, Section 1.1).
//! * **Tag/source matching** happens at the receiver: an application can
//!   receive messages from the same sender *out of send order* by using
//!   different tags — the non-FIFO behaviour at application level that
//!   breaks Chandy-Lamport-style protocols (Section 3.3).
//! * **Non-blocking requests** (`isend`/`irecv`/`wait`/`test`) with the
//!   delivery-point semantics of Section 2: a message counts as *received*
//!   when it is delivered to the application (at `wait`), not when `irecv`
//!   was posted.
//! * **Communicators** with collective-consistent context identifiers,
//!   `dup` and `split`, and a set of collectives (barrier, bcast, reduce,
//!   allreduce, gather, allgather, scatter, alltoall, scan) implemented over
//!   internal point-to-point messages, invisible to the layer above.
//! * **Abortable blocking**: every blocking call watches a shared
//!   [`world::JobControl`]; when the failure detector declares a stopping
//!   failure the whole job unblocks with [`error::MpiError::Aborted`], which
//!   is how the recovery harness rolls every rank back to the last committed
//!   checkpoint.
//!
//! # Quick start
//!
//! ```
//! use simmpi::{World, MpiResult};
//!
//! let outputs = World::run(4, |mpi| -> MpiResult<u64> {
//!     let comm = mpi.world();
//!     let me = mpi.rank() as u64;
//!     let total = mpi.allreduce_t::<u64>(&comm, simmpi::ReduceOp::Sum, &[me])?;
//!     Ok(total[0])
//! })
//! .unwrap();
//! assert_eq!(outputs, vec![6, 6, 6, 6]);
//! ```

#![deny(missing_docs)]

pub mod collective;
pub mod comm;
pub mod datatype;
pub mod envelope;
pub mod error;
pub mod matching;
pub(crate) mod obs;
pub mod rank;
pub mod request;
pub mod splice;
pub mod transport;
pub mod world;

pub use comm::Comm;
pub use datatype::{DType, MpiType, ReduceOp};
pub use envelope::{HeaderBytes, Message, RecvMsg, MAX_HEADER_LEN};
pub use error::{MpiError, MpiResult};
pub use rank::{Mpi, ANY_SOURCE, ANY_TAG};
pub use request::Request;
pub use splice::{SpliceDecision, SplicePolicy, SpliceQuery, SpliceStats};
pub use world::{JobControl, World};

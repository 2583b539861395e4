//! `c3-core` — the PPoPP 2003 C³ protocol: automated application-level,
//! coordinated, non-blocking checkpointing for MPI-style programs.
//!
//! This crate implements the primary contribution of *Automated
//! Application-level Checkpointing of MPI Programs* (Bronevetsky, Marques,
//! Pingali, Stodghill, PPoPP 2003):
//!
//! * the **non-blocking coordination protocol** of Section 4 — epochs and
//!   colors ([`epoch`]), piggybacked control words ([`piggyback`]),
//!   late/early/intra-epoch classification, late-message and
//!   non-determinism logging ([`logrec`]), `mySendCount` accounting
//!   ([`counters`]), the initiator phase machine ([`initiator`]), and the
//!   collective-communication rules (`process::collective`);
//! * **MPI library state reconstruction** through pseudo-handles
//!   ([`pending`], Section 5.2);
//! * the **recovery path** ([`recovery`]) — suppression of early re-sends,
//!   log replay, persistent-object call replay;
//! * a **fault-tolerant job driver** ([`job`]) with a simulated failure
//!   detector, rollback, and restart.
//!
//! # Quick start
//!
//! ```
//! use c3_core::{run_job, C3App, C3Config, C3Result, Process};
//! use ckptstore::impl_saveload_struct;
//!
//! struct CountUp { iters: u64 }
//!
//! struct CounterState { i: u64, acc: u64 }
//! impl_saveload_struct!(CounterState { i: u64, acc: u64 });
//!
//! impl C3App for CountUp {
//!     type State = CounterState;
//!     type Output = u64;
//!
//!     fn init(&self, _p: &mut Process<'_>) -> C3Result<CounterState> {
//!         Ok(CounterState { i: 0, acc: 0 })
//!     }
//!
//!     fn run(
//!         &self,
//!         p: &mut Process<'_>,
//!         s: &mut CounterState,
//!     ) -> C3Result<u64> {
//!         let world = p.world();
//!         while s.i < self.iters {
//!             // One "timestep": exchange with the neighbor ring.
//!             let n = p.size();
//!             let right = (p.rank() + 1) % n;
//!             let left = (p.rank() + n - 1) % n;
//!             let got = p.sendrecv(world, right, 0, &s.acc.to_le_bytes(),
//!                                  left, 0)?;
//!             s.acc = s.acc.wrapping_add(u64::from_le_bytes(
//!                 got.payload[..8].try_into().unwrap()));
//!             s.i += 1;
//!             p.potential_checkpoint(s)?; // a checkpoint site per step
//!         }
//!         Ok(s.acc)
//!     }
//! }
//!
//! let cfg = C3Config::every_ops(16).with_failure(1, 40);
//! let report = run_job(3, &cfg, None, &CountUp { iters: 30 }).unwrap();
//! assert_eq!(report.outputs.len(), 3);
//! assert!(report.restarts >= 1, "the injected failure forced a rollback");
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod control;
pub mod counters;
pub mod epoch;
pub mod error;
pub mod initiator;
pub mod job;
pub mod logrec;
pub mod obs;
pub mod pending;
pub mod piggyback;
pub mod process;
pub mod recovery;
pub mod rng;
pub mod trace;

pub use config::{
    C3Config, CheckpointTrigger, InstrumentationLevel, RecoveryMode,
};
pub use error::{C3Error, C3Result};
pub use job::{run_job, C3App, JobReport};
pub use pending::{CommHandle, ReqHandle};
pub use piggyback::PiggybackMode;
pub use process::{C3Request, ProcStats, Process};
pub use trace::{TraceEvent, TraceRecord, TraceSink};

// Re-exports applications typically need alongside the protocol layer.
pub use ckptpipe::{
    CheckpointPipeline, Chunker, PipelineConfig, PipelineStats, RetryPolicy,
    WriteMode,
};
pub use simmpi::{DType, ReduceOp, ANY_SOURCE, ANY_TAG};
pub use statesave::snapshot::{SaveState, Tracked};

pub use obs::health_check;

//! `ftfuzz` — the failure adversary, its one driver, and a seeded
//! crash-recovery fuzzer built on both.
//!
//! * An [`Adversary`] is one failure scenario as plain data: rank kills
//!   as `(rank, at_op, attempt)`, a [`ckptstore::FaultPlan`], the write
//!   mode and the recovery mode. Seeded constructors place kills at
//!   random, at an MTBF, during async writes, after a commit and during
//!   recovery itself, and on the online-splice path.
//! * [`run_case`] runs a job failure-free, then against an adversary,
//!   and returns one verdict: outputs against the reference, the
//!   `c3verify` analyzer and race checker, and the `c3obs` health check.
//!   Every kill matrix under `tests/` is a table of rows for it.
//! * [`Scenario::from_seed`] derives a whole campaign from one `u64`;
//!   [`run_campaign`] runs it, [`shrink`] delta-debugs a failing one and
//!   [`reproducer`] renders the result as a `#[test]`. `cargo xtask
//!   fuzz` sweeps seed ranges and the corpus under `tests/fuzz_corpus/`.

pub mod campaign;
pub mod corpus;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use campaign::{
    canonicalize, run_campaign, run_case, CaseOutcome, FuzzFailure, Plant,
};
pub use corpus::{load_seeds, parse_seeds};
pub use scenario::{AppChoice, Scenario};
pub use schedule::{Adversary, Kill};
pub use shrink::{reproducer, shrink, ShrinkOutcome};

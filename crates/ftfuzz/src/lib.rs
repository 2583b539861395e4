//! `ftfuzz` — a seeded long-horizon crash-recovery fuzzer for the C³
//! protocol stack.
//!
//! One `u64` seed derives a whole adversarial *campaign*
//! ([`Scenario::from_seed`]): world size, application (Dense CG or
//! Laplace), checkpoint cadence (including back-to-back lines), a
//! [`ckptstore::FaultPlan`] of storage faults and latency, a tier
//! topology, and a composed [`ftsim::FailureSchedule`] of rank kills —
//! during async checkpoint writes, during tier drains, and during
//! recovery itself (attempt-gated double failures).
//!
//! [`run_campaign`] runs the scenario to completion against a
//! failure-free reference, asserts recovery to a correct committed
//! line, and pipes the recorded trace through the `c3verify` analyzer
//! (I1..I14 + T0), the happens-before race checker (R0..R6), and the
//! `c3obs` metrics health check. Any discrepancy becomes a
//! [`FuzzFailure`].
//!
//! On failure, [`shrink`] runs delta debugging over the scenario
//! dimensions — fewer kills, quieter storage, fewer ranks, shorter
//! horizon — re-running the campaign at every step and
//! keeping only candidates that preserve the failure. The result is
//! rendered by [`reproducer`] as a self-contained `#[test]`-shaped
//! snippet plus the shrunk scenario.
//!
//! Entry points: `cargo xtask fuzz` (sweeps a seed range and the
//! checked-in corpus under `tests/fuzz_corpus/`), and the library API
//! used by the `fuzz_matrix` integration suite.

pub mod campaign;
pub mod corpus;
pub mod scenario;
pub mod shrink;

pub use campaign::{
    canonicalize, run_campaign, CampaignOutcome, FuzzFailure, Plant,
};
pub use corpus::{load_seeds, parse_seeds};
pub use scenario::{AppChoice, Scenario};
pub use shrink::{reproducer, shrink, ShrinkOutcome};

//! `ftsim` — failure simulation and verification harness.
//!
//! The paper's problem statement (Section 1.1) assumes unreliable
//! processors that "can fail silently at any time". This crate provides the
//! machinery to *simulate that adversary* and to verify the protocol's
//! guarantee against it:
//!
//! * [`schedule`] — seeded random failure schedules (which rank dies at
//!   which operation count), so chaos tests are reproducible;
//! * [`harness`] — run an application under many failure schedules and
//!   check that every run's outputs equal the failure-free reference
//!   (the observable definition of "the program makes progress in spite of
//!   these faults");
//! * [`metrics`] — recovery accounting: lost work, restart counts, and
//!   wall-clock overhead versus a failure-free run.

#![deny(missing_docs)]

pub mod harness;
pub mod metrics;
pub mod schedule;

pub use harness::{chaos_check, ChaosReport};
pub use metrics::RecoveryMetrics;
pub use schedule::FailureSchedule;

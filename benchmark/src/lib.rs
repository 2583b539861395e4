//! `c3bench`: one repeatable end-to-end benchmark for checkpointed MPI
//! jobs, with an outside-in per-layer budget. See `README.md`.

pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod passes;
pub mod probes;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workload;

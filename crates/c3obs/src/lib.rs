//! `c3obs` — a lock-light observability layer for the C³ stack.
//!
//! The paper's entire evaluation is an overhead argument, so the
//! instrumentation that measures the protocol must not itself perturb
//! it. This crate provides exactly the primitives the rest of the
//! workspace needs and nothing more:
//!
//! * a [`Registry`] of named **counters** and fixed-bucket **log2
//!   latency histograms** — registration takes a mutex and may
//!   allocate, but recording through a pre-registered handle is a
//!   handful of relaxed atomic increments: no locks, no floats, no
//!   allocation;
//! * lightweight **span** records ([`Registry::record_span`]) for
//!   low-frequency protocol phases (initiator phases, local-checkpoint
//!   duration, log drain, recovery replay) tagged with rank and epoch;
//! * a [`Snapshot`] of everything, written as one JSON document
//!   (arrays of flat objects of scalars) and read back by a
//!   hand-rolled parser, so round-trips can be tested without
//!   external dependencies;
//! * a `c3obs` CLI binary that renders a per-rank, per-epoch phase
//!   table from a snapshot file.
//!
//! The crate is dependency-free; downstream crates record into it only
//! once a [`Registry`] is attached at run time.

#![deny(missing_docs)]

mod hist;
mod json;
mod registry;
mod snapshot;

pub use hist::{bucket_bound, bucket_index, Stopwatch, BUCKETS};
pub use registry::{Counter, Histogram, Registry};
pub use snapshot::{HistogramSnapshot, MetricValue, Snapshot, SpanRecord};

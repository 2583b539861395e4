//! `c3-apps` — the paper's evaluation applications (Section 6.1).
//!
//! Three codes, matching the paper's benchmark suite in communication
//! structure and state shape:
//!
//! * [`dense_cg`] — a dense conjugate-gradient solver with block-row
//!   distribution. Per iteration: a parallel matrix-vector product (needs
//!   an allgather of the direction vector) and two dot products
//!   (allreduces). Exactly as in the paper, the reductions are implemented
//!   *in the application* as butterflies of point-to-point messages
//!   ([`butterfly`]), so this code stresses the protocol's p2p piggyback
//!   path. Per-rank state is dominated by the matrix block, so checkpoint
//!   cost grows quadratically with problem size — the effect behind the
//!   14% → 43% overhead jump in Figure 8.
//! * [`laplace`] — a Jacobi iteration on an `n × n` grid distributed by
//!   block rows; communication is one halo exchange with each vertical
//!   neighbor per iteration. Large messages, tiny state: the code where
//!   checkpointing is nearly free (≤ 2.1% in the paper).
//! * [`neurosys`] — a neuron-network simulator integrating a
//!   FitzHugh-Nagumo-style ODE system with RK4. Per iteration it performs
//!   5 allgathers and 1 gather (the paper's exact call mix), making it the
//!   collective-control-overhead stress test: at small sizes the paper
//!   measured up to 160% overhead from the piggyback/control collectives
//!   alone, decaying to ~3% at larger sizes (here the control word rides
//!   on the allgathers themselves; see `c3_core::collective`).
//!
//! A fourth mini-app, [`folding`], executes the paper's *motivating*
//! example (§1.2's ab initio protein folding): a molecular-dynamics chain
//! whose checkpointable state — positions and velocities only — is a small
//! fraction of its working set.
//!
//! Every application is deterministic for a given configuration, produces
//! a bit-stable digest as its per-rank output, and structures its main
//! loop so `potential_checkpoint` sits at an iteration-consistent point.

#![deny(missing_docs)]

pub mod butterfly;
pub mod dense_cg;
pub mod folding;
pub mod laplace;
pub mod linalg;
pub mod neurosys;

pub use dense_cg::DenseCg;
pub use folding::Folding;
pub use laplace::Laplace;
pub use neurosys::Neurosys;

/// Fold a slice of doubles into a bit-stable digest (outputs must be
/// comparable across runs with `==`, so floats are hashed by bits).
pub fn digest_f64(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x1000_0000_01b3)
    })
}

//! Logged non-determinism (Section 3.2).
//!
//! The protocol must log "the result of every non-deterministic decision"
//! made while logging, because a checkpointed global state may causally
//! depend on such a decision (the paper's example: a random number
//! generated by one process and shipped to another in an early message).
//!
//! [`NondetSource`] models a genuinely non-deterministic source: it is
//! seeded differently on every execution attempt, so recovery **cannot**
//! reproduce its draws by re-running — only the protocol's log/replay can.
//! This makes integration tests that check recovered-run consistency
//! against cross-restart divergence meaningful rather than vacuous.

/// A per-rank non-deterministic value source (splitmix64 over an
/// attempt-dependent seed).
#[derive(Debug, Clone)]
pub struct NondetSource {
    state: u64,
}

impl NondetSource {
    /// Build a source whose stream differs across attempts (the `attempt`
    /// component guarantees a recovered run would diverge without the
    /// protocol's non-determinism log).
    pub fn new(rank: usize, attempt: u64) -> Self {
        // Distinct, well-mixed seed per (rank, attempt).
        let seed = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ 0x94D0_49BB_1331_11EB;
        NondetSource { state: seed }
    }

    /// Draw the next value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        ckptstore::splitmix64(&mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = NondetSource::new(3, 1);
        let mut b = NondetSource::new(3, 1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_attempts_diverge() {
        let mut a = NondetSource::new(3, 1);
        let mut b = NondetSource::new(3, 2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should differ across attempts");
    }

    #[test]
    fn different_ranks_diverge() {
        let mut a = NondetSource::new(0, 1);
        let mut b = NondetSource::new(1, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }
}

//! Log2 histogram bucket layout and a nanosecond stopwatch.
//!
//! A histogram has [`BUCKETS`] fixed buckets; a recorded value `v`
//! lands in the bucket whose index is the *bit length* of `v`
//! (`64 - v.leading_zeros()`, with `v == 0` in bucket 0). Bucket `i`
//! therefore covers the half-open power-of-two range
//! `[2^(i-1), 2^i - 1]` and its inclusive upper bound is `2^i - 1`.
//! The mapping is a single `leading_zeros` instruction: no floats, no
//! search, no branches beyond the atomic increments themselves.

use std::time::Instant;

/// Number of buckets in every histogram: one per possible bit length
/// of a `u64` (0 through 64).
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in: its bit length.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; saturates to
/// `u64::MAX` for the last bucket).
pub fn bucket_bound(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A nanosecond stopwatch for span and latency timing.
///
/// Thin wrapper over [`Instant`] that clamps to `u64` nanoseconds so
/// histogram recording stays integer-only.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_bracket_their_bucket() {
        for i in 1..BUCKETS - 1 {
            let ub = bucket_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound stays inside");
            assert_eq!(bucket_index(ub + 1), i + 1, "successor leaves");
        }
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}

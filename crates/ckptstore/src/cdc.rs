//! Content-defined chunking (FastCDC-style): the one way every rank blob
//! is cut into chunks.
//!
//! Fixed-size chunking breaks dedup the moment state shifts: inserting a
//! single byte at the front of a blob moves every later chunk boundary,
//! so every chunk hash changes and nothing dedups against the previous
//! checkpoint. Content-defined chunking cuts where the *data* says to
//! cut — a rolling gear hash over the last ~64 bytes hits a boundary
//! condition at data-dependent positions — so an insertion only disturbs
//! the chunks overlapping the edit; boundaries downstream re-synchronise
//! and those chunks dedup again. The same holds inside one blob: a matrix
//! whose rows are shifted copies of each other cuts into chunks that
//! repeat, and a repeated chunk is stored once.
//!
//! [`Chunker`] implements the FastCDC refinements:
//!
//! * **Gear hash**: `h = (h << 1) + GEAR[byte]` — one shift and one add
//!   per byte, with a 256-entry random table. The shift ages a byte out
//!   of the hash after 64 steps, giving a ~64-byte rolling window
//!   without an explicit subtraction.
//! * **Normalized chunking**: below the target size the boundary mask is
//!   *harder* (`log2(avg) + 2` bits), past it the mask is *easier*
//!   (`log2(avg) - 2` bits). This squeezes the chunk-size distribution
//!   toward `avg` and sharply reduces the pathological tiny/huge chunks
//!   of the plain rolling-hash cut rule.
//! * **Min/max clamps**: no boundary is considered before `min` bytes
//!   (cheap skip, also guards against degenerate tiny chunks) and a cut
//!   is forced at `max`.

/// The 256-entry gear table. Generated deterministically by SplitMix64
/// so the chunking function is identical across builds and machines —
/// chunk boundaries (and therefore dedup) must not depend on the build.
const GEAR: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut s = 0xC3A1_5EED_0000_0000u64;
    let mut i = 0;
    while i < 256 {
        t[i] = crate::splitmix64(&mut s);
        i += 1;
    }
    t
};

/// A boundary mask testing the top `bits` bits of the gear hash. The
/// gear hash accumulates entropy upward (each step shifts left), so the
/// high bits mix the most input bytes and make the best cut judge.
const fn high_mask(bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        !0u64 << (64 - bits)
    }
}

/// Roll the gear hash across `window`, returning the offset of the
/// first position where `h & mask == 0`. Iterator-based so the per-byte
/// loop carries no bounds checks — this scan touches every staged byte
/// and is the chunker's entire CPU cost.
#[inline]
fn gear_scan(window: &[u8], h: &mut u64, mask: u64) -> Option<usize> {
    for (k, &b) in window.iter().enumerate() {
        *h = (*h << 1).wrapping_add(GEAR[b as usize]);
        if *h & mask == 0 {
            return Some(k);
        }
    }
    None
}

/// How a staged blob is split into chunks before hashing and dedup:
/// FastCDC content-defined cuts with normalized `avg/4 .. avg*4` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chunker {
    /// Smallest chunk the cut rule may produce (except the final chunk
    /// of a blob).
    min: usize,
    /// Target average chunk size, a power of two ≥ 256.
    avg: usize,
    /// Forced-cut ceiling; every chunk is at most this long.
    max: usize,
}

impl Default for Chunker {
    /// Cuts around 4 KiB.
    fn default() -> Self {
        Chunker::cdc(4096)
    }
}

impl Chunker {
    /// Content-defined chunking around `avg` bytes. Panics unless `avg`
    /// is a power of two ≥ 256 (the gear window needs room below `min`).
    pub fn cdc(avg: usize) -> Self {
        assert!(
            avg.is_power_of_two() && avg >= 256,
            "avg must be a power of two ≥ 256"
        );
        Chunker {
            min: avg / 4,
            avg,
            max: avg * 4,
        }
    }

    /// The target average chunk size.
    pub fn avg(&self) -> usize {
        self.avg
    }

    /// Length of the first chunk of `data` (the whole remainder when no
    /// boundary fires). Returns 0 only for empty input.
    fn next_cut(&self, data: &[u8]) -> usize {
        let Chunker { min, avg, max } = *self;
        let n = data.len();
        if n <= min {
            return n;
        }
        let bits = avg.trailing_zeros();
        let mask_s = high_mask(bits + 2);
        let mask_l = high_mask(bits.saturating_sub(2).max(1));
        let center = avg.min(n);
        let end = max.min(n);
        let mut h = 0u64;
        if let Some(k) = gear_scan(&data[min..center], &mut h, mask_s) {
            return min + k + 1;
        }
        if let Some(k) = gear_scan(&data[center..end], &mut h, mask_l) {
            return center + k + 1;
        }
        end
    }

    /// Split `data` into chunks. The concatenation of the yielded slices
    /// is exactly `data`; empty input yields no chunks.
    pub fn cut<'a>(
        &self,
        mut rest: &'a [u8],
    ) -> impl Iterator<Item = &'a [u8]> + 'a {
        let chunker = *self;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let (chunk, tail) = rest.split_at(chunker.next_cut(rest));
            rest = tail;
            Some(chunk)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::hash128;
    use crate::splitmix64;
    use std::collections::HashSet;

    fn random_bytes(rng: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| (splitmix64(rng) % 256) as u8).collect()
    }

    #[test]
    fn chunks_concatenate_to_the_input() {
        let mut rng: u64 = 0xCDC0;
        for chunker in
            [Chunker::cdc(256), Chunker::cdc(1024), Chunker::default()]
        {
            for len in [0usize, 1, 255, 256, 4096, 70_000] {
                let data = random_bytes(&mut rng, len);
                let joined: Vec<u8> =
                    chunker.cut(&data).flatten().copied().collect();
                assert_eq!(joined, data, "{chunker:?} len {len}");
            }
        }
    }

    #[test]
    fn cdc_chunk_sizes_respect_the_bounds() {
        let mut rng: u64 = 0xCDC1;
        let chunker = Chunker::cdc(1024);
        let Chunker { min, max, .. } = chunker;
        let data = random_bytes(&mut rng, 300_000);
        let chunks: Vec<&[u8]> = chunker.cut(&data).collect();
        assert!(chunks.len() > 10);
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= max, "chunk {i} over max");
            if i + 1 != chunks.len() {
                assert!(c.len() >= min, "chunk {i} under min");
            }
        }
        // Normalized chunking keeps the mean near the target.
        let mean = data.len() / chunks.len();
        assert!(
            (256..=4096).contains(&mean),
            "mean chunk size {mean} far from 1024"
        );
    }

    #[test]
    fn cutting_is_deterministic() {
        let mut rng: u64 = 0xCDC2;
        let data = random_bytes(&mut rng, 50_000);
        let a: Vec<usize> =
            Chunker::cdc(512).cut(&data).map(<[u8]>::len).collect();
        let b: Vec<usize> =
            Chunker::cdc(512).cut(&data).map(<[u8]>::len).collect();
        assert_eq!(a, b);
    }

    /// The property the module exists for: inserting bytes near the
    /// front of a blob leaves most chunk *content* (and therefore most
    /// content addresses) unchanged, while fixed-size chunking loses
    /// almost everything.
    #[test]
    fn proptest_cdc_dedup_survives_insertions() {
        let mut rng: u64 = 0xCDC3;
        for trial in 0..8 {
            let data = random_bytes(&mut rng, 128 * 1024);
            let pos =
                (splitmix64(&mut rng) % (data.len() / 4) as u64) as usize;
            let ins_len = 1 + (splitmix64(&mut rng) % 63) as usize;
            let ins = random_bytes(&mut rng, ins_len);
            let mut shifted = data.clone();
            shifted.splice(pos..pos, ins.iter().copied());

            let hashes = |chunker: Chunker, d: &[u8]| -> HashSet<u128> {
                chunker.cut(d).map(hash128).collect()
            };

            let cdc = Chunker::cdc(1024);
            let before = hashes(cdc, &data);
            let after = hashes(cdc, &shifted);
            let shared = before.intersection(&after).count();
            assert!(
                shared * 4 >= before.len() * 3,
                "trial {trial}: only {shared}/{} CDC chunks survived the \
                 insertion",
                before.len()
            );

            // Fixed-size pieces re-address every chunk after the
            // insertion point — the control that motivates CDC.
            let fixed = |d: &[u8]| -> HashSet<u128> {
                d.chunks(1024).map(hash128).collect()
            };
            let fb = fixed(&data);
            let fa = fixed(&shifted);
            let fshared = fb.intersection(&fa).count();
            assert!(
                fshared * 2 < fb.len(),
                "trial {trial}: fixed-size unexpectedly survived the shift \
                 ({fshared}/{})",
                fb.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cdc_rejects_non_power_of_two_avg() {
        let _ = Chunker::cdc(1000);
    }
}

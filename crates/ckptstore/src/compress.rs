//! Chunk codecs: PackBits run-length encoding and a dependency-free
//! LZ4-class compressor, selected per chunk via [`Codec`].
//!
//! Checkpoint state in the paper's applications is dominated by numeric
//! arrays whose untouched regions are long runs of identical bytes (zero
//! pages, constant boundary strips). A PackBits-style run-length encoding
//! captures most of that redundancy at memcpy-like speed and with no
//! dependencies. Pages that are *repetitive but not run-like* (struct
//! arrays, strided floats, text) need real match finding, which is what
//! the [`lz4_compress`] path provides: an LZ4-block-format encoder with a
//! greedy hash-chain match finder. Compression everywhere stays
//! opportunistic — a chunk is stored encoded only when the encoding is
//! actually smaller (see [`crate::manifest::ChunkRef::codec`]).
//!
//! PackBits format (per control byte `h`):
//! * `0..=127` — copy the next `h + 1` bytes literally,
//! * `129..=255` — repeat the next byte `257 - h` times (runs of 2..=128),
//! * `128` — reserved, never produced; decode rejects it.
//!
//! LZ4 block format (per sequence):
//! * token byte: high nibble = literal length, low nibble = match
//!   length − 4; a nibble of 15 is extended by `255`-run length bytes,
//! * the literals,
//! * a 2-byte little-endian match offset (1..=65535) and the match
//!   length extension — omitted for the final, literals-only sequence.

/// How a chunk's stored bytes are encoded. The numeric ids are the wire
/// representation inside manifests ([`Codec::id`] / [`Codec::from_id`]);
/// they are append-only — never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw bytes, stored as-is.
    None,
    /// PackBits run-length encoding ([`compress`] / [`decompress`]).
    PackBits,
    /// LZ4-class block compression ([`lz4_compress`] /
    /// [`lz4_decompress`]).
    Lz4,
}

impl Codec {
    /// Wire id of this codec (stored per chunk in manifests).
    pub fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::PackBits => 1,
            Codec::Lz4 => 2,
        }
    }

    /// Inverse of [`Codec::id`]; `None` for unknown ids (treated as
    /// manifest corruption by the decoder).
    pub fn from_id(id: u8) -> Option<Codec> {
        match id {
            0 => Some(Codec::None),
            1 => Some(Codec::PackBits),
            2 => Some(Codec::Lz4),
            _ => None,
        }
    }

    /// Encode `data` with this codec. `Codec::None` returns `None` (the
    /// caller stores the raw bytes). The encoding is returned even when
    /// it is larger than the input; callers compare lengths and fall
    /// back to raw storage — that decision is recorded in the manifest,
    /// not here.
    pub fn encode(self, data: &[u8]) -> Option<Vec<u8>> {
        match self {
            Codec::None => None,
            Codec::PackBits => Some(compress(data)),
            Codec::Lz4 => Some(lz4_compress(data)),
        }
    }

    /// Append the decoded form of `stored` to `out`, validating that it
    /// expands to exactly `expected_len` bytes. `None` means malformed
    /// input or a length mismatch — recovery treats that as corruption.
    /// On failure `out` may hold a partial decode; callers discard it.
    pub fn decode_into(
        self,
        stored: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Option<()> {
        match self {
            Codec::None => {
                if stored.len() != expected_len {
                    return None;
                }
                out.extend_from_slice(stored);
                Some(())
            }
            Codec::PackBits => decompress_into(stored, expected_len, out),
            Codec::Lz4 => lz4_decompress_into(stored, expected_len, out),
        }
    }
}

/// Run-length encode `data`. The output is only useful if it is smaller
/// than the input; callers compare lengths and keep the raw bytes
/// otherwise.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while run < 128 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
        } else {
            // Literal segment: up to 128 bytes, stopping where a run of at
            // least 3 begins (that run compresses better as a repeat).
            let start = i;
            let mut j = i;
            while j < data.len() && j - start < 128 {
                if j + 2 < data.len()
                    && data[j] == data[j + 1]
                    && data[j] == data[j + 2]
                {
                    break;
                }
                j += 1;
            }
            out.push((j - start - 1) as u8);
            out.extend_from_slice(&data[start..j]);
            i = j;
        }
    }
    out
}

/// True when [`compress`] provably cannot make `data` smaller, decided in
/// one branch-free pass instead of by running the encoder. Let `T` count
/// the positions that start three equal bytes. A repeat record of `r`
/// bytes saves `r − 2` and covers `r − 2` such positions, so the repeats
/// save `S ≤ T` bytes in at most `S` records, leaving at least
/// `len − 3·S` literal bytes, which cost a header per 128: the output is
/// no shorter than the input whenever `(len − 3·S) / 128 ≥ S`, and
/// `131·T ≤ len` guarantees that. Never true of an input the encoder
/// shrinks, so "store raw iff the encoding is not smaller" is decided
/// the same with or without it (the dedup invariant); `f64` arrays almost
/// always take this exit.
pub fn packbits_cannot_shrink(data: &[u8]) -> bool {
    if data.len() < 3 {
        return true;
    }
    // The input against itself shifted by one and by two, in stretches
    // short enough for a `u8` counter: the inner loop compiles to byte
    // compares sixteen or thirty-two wide.
    let n = data.len() - 2;
    let (a, b, c) = (&data[..n], &data[1..=n], &data[2..]);
    let mut triples = 0usize;
    for ((a, b), c) in a.chunks(255).zip(b.chunks(255)).zip(c.chunks(255)) {
        let count: u8 = a
            .iter()
            .zip(b)
            .zip(c)
            .map(|((a, b), c)| u8::from((a == b) & (b == c)))
            .sum();
        triples += usize::from(count);
    }
    131 * triples <= data.len()
}

/// Decode a [`compress`] stream, validating that it expands to exactly
/// `expected_len` bytes. `None` means the stream is malformed or the
/// length disagrees — recovery treats that as blob corruption.
pub fn decompress(data: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    decompress_into(data, expected_len, &mut out)?;
    Some(out)
}

/// [`decompress`], but appending into a caller-owned buffer — the blob
/// reassembly path decodes every chunk straight into the output blob
/// without per-chunk temporaries. On failure `out` may hold a partial
/// decode; callers discard it.
pub fn decompress_into(
    data: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Option<()> {
    let base = out.len();
    let mut i = 0;
    while i < data.len() {
        let h = data[i];
        i += 1;
        match h {
            0..=127 => {
                let n = h as usize + 1;
                if i + n > data.len() {
                    return None;
                }
                out.extend_from_slice(&data[i..i + n]);
                i += n;
            }
            128 => return None,
            129..=255 => {
                let n = 257 - h as usize;
                let b = *data.get(i)?;
                i += 1;
                out.resize(out.len() + n, b);
            }
        }
        if out.len() - base > expected_len {
            return None;
        }
    }
    (out.len() - base == expected_len).then_some(())
}

const LZ4_MIN_MATCH: usize = 4;
const LZ4_WINDOW: usize = 65_535;
const LZ4_HASH_BITS: u32 = 13;
const LZ4_CHAIN_DEPTH: usize = 16;
/// A match this long is accepted without scanning deeper candidates —
/// on repetitive checkpoint pages the nearest candidate almost always
/// extends to the end of the chunk and further search is wasted work.
const LZ4_GOOD_MATCH: usize = 64;
/// Stride for indexing the interior of an emitted match. Indexing every
/// interior byte costs a hash insert per input byte on match-dominated
/// data; a sparse grid keeps later data able to match into the region
/// at a fraction of the cost.
const LZ4_INDEX_STRIDE: usize = 8;

/// Documented worst-case size of [`lz4_compress`] output: incompressible
/// input costs one length-extension byte per 255 literals plus constant
/// framing. Pinned by a proptest over adversarial inputs.
pub fn lz4_max_compressed_len(len: usize) -> usize {
    len + len / 255 + 16
}

fn lz4_hash(word: u32, bits: u32) -> usize {
    (word.wrapping_mul(2_654_435_761) >> (32 - bits)) as usize
}

/// Extend a match at `data[c..]` vs `data[i..]` (already known equal for
/// the first [`LZ4_MIN_MATCH`] bytes) as far as it goes, comparing eight
/// bytes per step. Match extension dominates encoder time on long-match
/// inputs, which checkpoint pages are.
fn lz4_extend(data: &[u8], c: usize, i: usize) -> usize {
    let n = data.len();
    let mut l = LZ4_MIN_MATCH;
    while i + l + 8 <= n {
        let a = u64::from_le_bytes(data[c + l..c + l + 8].try_into().unwrap());
        let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().unwrap());
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while i + l < n && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

fn lz4_put_len_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// Emit one LZ4 sequence: `literals`, then (unless this is the final,
/// literals-only sequence) a match of `mlen ≥ 4` bytes at `off` back.
fn lz4_emit_seq(out: &mut Vec<u8>, literals: &[u8], m: Option<(u16, usize)>) {
    let lit = literals.len();
    let match_nib = match m {
        Some((_, mlen)) => (mlen - LZ4_MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push(((lit.min(15) as u8) << 4) | match_nib);
    if lit >= 15 {
        lz4_put_len_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
    if let Some((off, mlen)) = m {
        out.extend_from_slice(&off.to_le_bytes());
        if mlen - LZ4_MIN_MATCH >= 15 {
            lz4_put_len_ext(out, mlen - LZ4_MIN_MATCH - 15);
        }
    }
}

/// LZ4-block-format compression with a greedy hash-chain match finder
/// (13-bit head table, chains bounded at [`LZ4_CHAIN_DEPTH`] candidates,
/// 64 KiB window). Like [`compress`], the output is only useful when it
/// is smaller than the input; callers compare lengths and keep the raw
/// bytes otherwise. Output never exceeds [`lz4_max_compressed_len`].
pub fn lz4_compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n <= LZ4_MIN_MATCH {
        lz4_emit_seq(&mut out, data, None);
        return out;
    }
    const NIL: u32 = u32::MAX;
    // Size the head table to the input: a 4 KiB chunk does not repay
    // clearing a 32 KiB table. Deterministic in `n`, so identical chunks
    // still encode identically (the dedup invariant).
    let hash_bits = n
        .next_power_of_two()
        .trailing_zeros()
        .clamp(8, LZ4_HASH_BITS);
    let mut head = vec![NIL; 1 << hash_bits];
    let mut prev = vec![NIL; n];
    let insert =
        |head: &mut [u32], prev: &mut [u32], data: &[u8], j: usize| {
            let w = u32::from_le_bytes(data[j..j + 4].try_into().unwrap());
            let h = lz4_hash(w, hash_bits);
            prev[j] = head[h];
            head[h] = j as u32;
        };
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + LZ4_MIN_MATCH <= n {
        let word = u32::from_le_bytes(data[i..i + 4].try_into().unwrap());
        let h = lz4_hash(word, hash_bits);
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let mut cand = head[h];
        let mut depth = 0;
        while cand != NIL && depth < LZ4_CHAIN_DEPTH {
            let c = cand as usize;
            if i - c > LZ4_WINDOW {
                break; // chain positions only get older
            }
            if data[c..c + 4] == data[i..i + 4] {
                let l = lz4_extend(data, c, i);
                if l > best_len {
                    best_len = l;
                    best_off = i - c;
                    if l >= LZ4_GOOD_MATCH {
                        break; // good enough; deeper search is waste
                    }
                }
            }
            cand = prev[c];
            depth += 1;
        }
        insert(&mut head, &mut prev, data, i);
        if best_len >= LZ4_MIN_MATCH {
            lz4_emit_seq(
                &mut out,
                &data[lit_start..i],
                Some((best_off as u16, best_len)),
            );
            // Index the interior of the match (sparsely) so later data
            // can match into it.
            let mut j = i + 1;
            while j < i + best_len && j + LZ4_MIN_MATCH <= n {
                insert(&mut head, &mut prev, data, j);
                j += LZ4_INDEX_STRIDE;
            }
            i += best_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    lz4_emit_seq(&mut out, &data[lit_start..], None);
    out
}

/// Decode an [`lz4_compress`] stream, validating that it expands to
/// exactly `expected_len` bytes. `None` means malformed input or a
/// length mismatch.
pub fn lz4_decompress(data: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    lz4_decompress_into(data, expected_len, &mut out)?;
    Some(out)
}

/// [`lz4_decompress`], appending into a caller-owned buffer. Match
/// offsets resolve only within the bytes this call has itself produced —
/// a malicious stream cannot read the caller's earlier buffer contents.
/// On failure `out` may hold a partial decode; callers discard it.
pub fn lz4_decompress_into(
    data: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Option<()> {
    let base = out.len();
    let mut i = 0usize;
    while i < data.len() {
        let token = data[i];
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            loop {
                let b = *data.get(i)?;
                i += 1;
                lit = lit.checked_add(b as usize)?;
                if lit > expected_len {
                    return None;
                }
                if b != 255 {
                    break;
                }
            }
        }
        if i + lit > data.len() || out.len() - base + lit > expected_len {
            return None;
        }
        out.extend_from_slice(&data[i..i + lit]);
        i += lit;
        if i == data.len() {
            break; // final sequence carries no match
        }
        if i + 2 > data.len() {
            return None;
        }
        let off =
            u16::from_le_bytes(data[i..i + 2].try_into().unwrap()) as usize;
        i += 2;
        if off == 0 || off > out.len() - base {
            return None;
        }
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            loop {
                let b = *data.get(i)?;
                i += 1;
                mlen = mlen.checked_add(b as usize)?;
                if mlen > expected_len {
                    return None;
                }
                if b != 255 {
                    break;
                }
            }
        }
        let mlen = mlen + LZ4_MIN_MATCH;
        if out.len() - base + mlen > expected_len {
            return None;
        }
        // Byte-by-byte so overlapping matches (off < mlen) replicate the
        // produced bytes, per LZ77 semantics.
        let start = out.len() - off;
        for k in 0..mlen {
            let b = out[start + k];
            out.push(b);
        }
    }
    (out.len() - base == expected_len).then_some(())
}

/// Cheap RLE-friendliness probe for the pipeline's per-chunk codec
/// picker: sample up to the first 1 KiB and count adjacent equal-byte
/// pairs. Run-dominated pages compress as well under PackBits as under
/// LZ4 at a fraction of the cost. Deterministic in the chunk bytes —
/// the dedup invariant requires every writer to store identical bytes
/// for an identical chunk.
pub fn rle_friendly(data: &[u8]) -> bool {
    let probe = &data[..data.len().min(1024)];
    if probe.len() < 2 {
        return true;
    }
    let pairs = probe.windows(2).filter(|w| w[0] == w[1]).count();
    pairs * 2 >= probe.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let enc = compress(data);
        assert_eq!(
            decompress(&enc, data.len()).as_deref(),
            Some(data),
            "round trip failed for {} bytes",
            data.len()
        );
    }

    #[test]
    fn round_trips() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"aaa");
        round_trip(&[0u8; 4096]);
        round_trip(&[1, 1, 2, 2, 2, 3, 3, 3, 3, 0, 0]);
        let mixed: Vec<u8> = (0..2000)
            .map(|i| if i % 7 < 4 { 0 } else { i as u8 })
            .collect();
        round_trip(&mixed);
        // Worst case: no runs at all.
        let noisy: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        round_trip(&noisy);
    }

    #[test]
    fn zero_pages_shrink_dramatically() {
        let data = vec![0u8; 64 * 1024];
        let enc = compress(&data);
        assert!(enc.len() < data.len() / 50, "got {} bytes", enc.len());
    }

    #[test]
    fn long_runs_cross_the_128_limit() {
        for n in [127, 128, 129, 255, 256, 257, 1000] {
            round_trip(&vec![7u8; n]);
        }
    }

    #[test]
    fn malformed_streams_are_rejected() {
        // Truncated literal.
        assert!(decompress(&[5, 1, 2], 6).is_none());
        // Reserved control byte.
        assert!(decompress(&[128], 0).is_none());
        // Repeat with missing byte.
        assert!(decompress(&[250], 7).is_none());
        // Length mismatch.
        let enc = compress(b"hello world");
        assert!(decompress(&enc, 10).is_none());
        assert!(decompress(&enc, 12).is_none());
    }

    #[test]
    fn proptest_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        for _ in 0..50 {
            let len = rng.random_range(0..3000usize);
            let palette = rng.random_range(1..5u32);
            let data: Vec<u8> = (0..len)
                .map(|_| (rng.random_range(0..(palette * 64)) % 256) as u8)
                .collect();
            round_trip(&data);
        }
    }

    /// The pre-scan's contract, and how often it fires on `data`.
    fn check_pre_scan(data: &[u8], fired: &mut usize) {
        if packbits_cannot_shrink(data) {
            *fired += 1;
            assert!(
                compress(data).len() >= data.len(),
                "pre-scan said raw, encoder shrinks {data:?}"
            );
        }
    }

    #[test]
    fn packbits_pre_scan_never_refuses_an_input_the_encoder_shrinks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9AC4);
        let mut fired = 0;
        for len in (0..=600).chain([4096]) {
            // Uniform noise, all-equal, and two symbols at several biases.
            let noise: Vec<u8> =
                (0..len).map(|_| rng.random_range(0..=255u8)).collect();
            check_pre_scan(&noise, &mut fired);
            check_pre_scan(
                &vec![rng.random_range(0..=255u8); len],
                &mut fired,
            );
            for bias in [2u32, 3, 5, 9] {
                let two: Vec<u8> = (0..len)
                    .map(|_| u8::from(rng.random_range(0..bias) == 0))
                    .collect();
                check_pre_scan(&two, &mut fired);
            }
            // Runs of random length 1..=max between random literals.
            for max in [2usize, 3, 4, 8, 200] {
                let mut runs = Vec::with_capacity(len);
                while runs.len() < len {
                    let n = rng.random_range(1..=max).min(len - runs.len());
                    runs.resize(runs.len() + n, rng.random_range(0..4u8));
                }
                check_pre_scan(&runs, &mut fired);
            }
            // `f64` arrays: a smooth ramp, and one padded with zeros.
            let ramp: Vec<u8> = (0..len.div_ceil(8))
                .flat_map(|i| (1.0 + i as f64 / 7.0).sqrt().to_le_bytes())
                .take(len)
                .collect();
            check_pre_scan(&ramp, &mut fired);
            let mut padded = ramp.clone();
            padded[len / 2..].fill(0);
            check_pre_scan(&padded, &mut fired);
        }
        assert!(fired > 600, "the pre-scan fired on {fired} inputs only");
        // It is a one-sided test: it may pass an input the encoder then
        // fails to shrink, never the reverse.
        assert!(packbits_cannot_shrink(b"") && packbits_cannot_shrink(b"aa"));
        assert!(!packbits_cannot_shrink(b"aaa"));
        assert_eq!(compress(b"aaa").len(), 2);
    }

    #[test]
    fn packbits_pre_scan_boundary_is_131_triples_per_byte() {
        // One run of `t + 2` equal bytes (t triples) in `len` bytes of
        // otherwise run-free filler: the scan flips exactly at 131·t = len.
        for t in [1usize, 2, 5, 30] {
            for len in [131 * t - 1, 131 * t, 131 * t + 1] {
                let mut data: Vec<u8> =
                    (0..len).map(|i| 1 + (i % 250) as u8).collect();
                data[..t + 2].fill(0);
                assert_eq!(
                    packbits_cannot_shrink(&data),
                    131 * t <= len,
                    "t {t} len {len}"
                );
                assert!(
                    !packbits_cannot_shrink(&data)
                        || compress(&data).len() >= len
                );
            }
        }
    }

    fn lz4_round_trip(data: &[u8]) {
        let enc = lz4_compress(data);
        assert!(
            enc.len() <= lz4_max_compressed_len(data.len()),
            "{} bytes encoded to {} > documented bound {}",
            data.len(),
            enc.len(),
            lz4_max_compressed_len(data.len())
        );
        assert_eq!(
            lz4_decompress(&enc, data.len()).as_deref(),
            Some(data),
            "lz4 round trip failed for {} bytes",
            data.len()
        );
    }

    #[test]
    fn lz4_round_trips() {
        lz4_round_trip(b"");
        lz4_round_trip(b"a");
        lz4_round_trip(b"abcd");
        lz4_round_trip(b"abcde");
        lz4_round_trip(&[0u8; 4096]);
        // Overlapping matches: period-3 repetition forces off < mlen.
        lz4_round_trip(&b"abc".repeat(500));
        lz4_round_trip(
            &b"the quick brown fox jumps over the lazy dog. ".repeat(40),
        );
        let mixed: Vec<u8> = (0..20_000)
            .map(|i| if i % 100 < 60 { 0 } else { (i / 7) as u8 })
            .collect();
        lz4_round_trip(&mixed);
    }

    #[test]
    fn lz4_compresses_repetitive_pages_better_than_packbits() {
        // A strided f64-like pattern: repetitive, but with no byte runs,
        // so PackBits can't touch it and LZ4 must.
        let data: Vec<u8> = (0..32 * 1024)
            .map(|i| [0x3F, 0xF0, 0x12, (i / 256) as u8][i % 4])
            .collect();
        let lz = lz4_compress(&data);
        let pb = compress(&data);
        assert!(lz.len() < data.len() / 4, "lz4 got {} bytes", lz.len());
        assert!(
            lz.len() < pb.len(),
            "lz4 {} !< packbits {}",
            lz.len(),
            pb.len()
        );
    }

    #[test]
    fn proptest_lz4_round_trip_and_expansion_bound() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x124C);
        for _ in 0..40 {
            let len = rng.random_range(0..5000usize);
            // Mix compressible (small palette) and incompressible
            // (full-byte) regimes.
            let palette: u32 = if rng.random::<bool>() { 4 } else { 256 };
            let data: Vec<u8> = (0..len)
                .map(|_| (rng.random_range(0..palette) % 256) as u8)
                .collect();
            lz4_round_trip(&data);
        }
        // Adversarial: pure noise (incompressible) and a long
        // all-distinct ramp, both must stay within the documented bound.
        let noise: Vec<u8> = (0..70_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        lz4_round_trip(&noise);
    }

    #[test]
    fn lz4_malformed_streams_are_rejected() {
        // Truncated literals.
        assert!(lz4_decompress(&[0x50, b'a', b'b'], 5).is_none());
        // Match with no offset bytes.
        assert!(lz4_decompress(&[0x12, b'x', 0x01], 6).is_none());
        // Zero offset.
        assert!(lz4_decompress(&[0x10, b'x', 0, 0, 0x00], 5).is_none());
        // Offset beyond what was produced.
        assert!(lz4_decompress(&[0x10, b'x', 9, 0, 0x00], 5).is_none());
        // Length mismatch against the manifest's expectation.
        let enc = lz4_compress(b"hello hello hello");
        assert!(lz4_decompress(&enc, 16).is_none());
        assert!(lz4_decompress(&enc, 18).is_none());
        // Unterminated length-extension run.
        assert!(lz4_decompress(&[0xF0, 255, 255], 4096).is_none());
    }

    #[test]
    fn decompress_into_appends_without_clobbering() {
        let mut out = b"prefix".to_vec();
        let enc = compress(b"aaaaaaaaaa");
        decompress_into(&enc, 10, &mut out).unwrap();
        let lz = lz4_compress(b"bcd bcd bcd bcd!");
        lz4_decompress_into(&lz, 16, &mut out).unwrap();
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..16], b"aaaaaaaaaa");
        assert_eq!(&out[16..], b"bcd bcd bcd bcd!");
    }

    #[test]
    fn codec_ids_round_trip_and_unknown_ids_are_rejected() {
        for c in [Codec::None, Codec::PackBits, Codec::Lz4] {
            assert_eq!(Codec::from_id(c.id()), Some(c));
        }
        assert_eq!(Codec::from_id(3), None);
        assert_eq!(Codec::from_id(255), None);
    }

    #[test]
    fn codec_encode_decode_round_trips() {
        let data = b"runs: aaaaaaa and text text text".to_vec();
        for c in [Codec::PackBits, Codec::Lz4] {
            let enc = c.encode(&data).unwrap();
            let mut out = Vec::new();
            c.decode_into(&enc, data.len(), &mut out).unwrap();
            assert_eq!(out, data, "{c:?}");
        }
        assert!(Codec::None.encode(&data).is_none());
        let mut out = Vec::new();
        Codec::None
            .decode_into(&data, data.len(), &mut out)
            .unwrap();
        assert_eq!(out, data);
        assert!(Codec::None.decode_into(&data, 5, &mut Vec::new()).is_none());
    }

    #[test]
    fn rle_probe_separates_runs_from_structured_data() {
        assert!(rle_friendly(&[0u8; 4096]));
        assert!(rle_friendly(b""));
        assert!(rle_friendly(b"x"));
        let strided: Vec<u8> =
            (0..4096).map(|i| [1, 2, 3, 4][i % 4]).collect();
        assert!(!rle_friendly(&strided));
    }
}

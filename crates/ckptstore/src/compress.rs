//! Chunk codecs: PackBits run-length encoding and a dependency-free
//! LZ4-class compressor, selected per chunk via [`Codec`].
//!
//! Checkpoint state in the paper's applications is dominated by `f64`
//! arrays, where byte runs are rare and repeats are whole values or their
//! high bytes. Measured in 4 KiB pieces (EXPERIMENTS.md M14), stored size
//! over raw for PackBits → [`lz4_compress`]: rank 0's Dense CG block
//! 0.976 → 0.789, a Laplace band after 300 sweeps 1.004 → 0.656 and
//! after 2 000 sweeps 1.004 → 0.991, zero pages 0.016 → 0.006, noise
//! 1.008 → 1.004. LZ4 is the pipeline's default; PackBits stays
//! selectable. Compression everywhere stays opportunistic — a chunk is
//! stored encoded only when the encoding is actually smaller (see
//! [`crate::manifest::ChunkRef::codec`]).
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
/// The format's end-of-block rules: the last match starts at least this
/// many bytes before the end of the input …
const LZ4_MFLIMIT: usize = 12;
/// … and the last five bytes are always literals.
const LZ4_LAST_LITERALS: usize = 5;
const LZ4_HASH_BITS: u32 = 12;
/// The search step grows by one after every `2^6` probes that miss.
const LZ4_SKIP_TRIGGER: u32 = 6;

/// Documented worst-case size of [`lz4_compress`] output: incompressible
/// input costs one length-extension byte per 255 literals plus constant
/// framing. Pinned by a proptest over adversarial inputs.
pub fn lz4_max_compressed_len(len: usize) -> usize {
    len + len / 255 + 16
}

/// How many bytes from `data[c..]` and `data[i..]` (`c < i`) agree
/// before `i` reaches `limit`, compared eight at a time.
fn lz4_count(data: &[u8], c: usize, i: usize, limit: usize) -> usize {
    let word =
        |p: usize| u64::from_le_bytes(data[p..p + 8].try_into().unwrap());
    let mut l = 0;
    while i + l + 8 <= limit {
        let x = word(c + l) ^ word(i + l);
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while i + l < limit && data[c + l] == data[i + l] {
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

/// LZ4-block-format compression, the reference encoder's fast path: one
/// probe per position into a 4096-slot table of 16-bit positions, zeroed
/// on every call, a search step that grows after every 64 misses in a
/// row, and matches extended backwards over pending literals. Like
/// [`compress`], the output is only useful when it is smaller than the
/// input; callers compare lengths and keep the raw bytes otherwise.
/// Output never exceeds [`lz4_max_compressed_len`], and is a function of
/// `data` alone (the dedup invariant).
pub fn lz4_compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(lz4_max_compressed_len(n));
    let mut anchor = 0;
    if n > LZ4_MFLIMIT {
        let mflimit = n - LZ4_MFLIMIT;
        let match_limit = n - LZ4_LAST_LITERALS;
        let word =
            |p: usize| u32::from_le_bytes(data[p..p + 4].try_into().unwrap());
        // `probe` swaps `p` into its slot; the position the slot held is a
        // match if it starts with the same four bytes. Slots hold positions
        // modulo 2^16, so that one is always inside the 64 KiB window
        // behind `p` (a stale slot aliases to some position there, which
        // the compare rejects), and every zeroed slot names position 0.
        let mut table = [0u16; 1 << LZ4_HASH_BITS];
        let mut probe = |p: usize| {
            let h =
                word(p).wrapping_mul(2_654_435_761) >> (32 - LZ4_HASH_BITS);
            let back = usize::from((p as u16).wrapping_sub(table[h as usize]));
            table[h as usize] = p as u16;
            (back != 0 && back <= p && word(p - back) == word(p))
                .then(|| p - back)
        };
        let mut i = 1;
        'block: loop {
            let mut next = i;
            let mut step = 1;
            let mut probes = 1 << LZ4_SKIP_TRIGGER;
            let mut c = loop {
                i = next;
                next += step;
                step = probes >> LZ4_SKIP_TRIGGER;
                probes += 1;
                if next > mflimit + 1 {
                    break 'block;
                }
                if let Some(c) = probe(i) {
                    break c;
                }
            };
            while i > anchor && c > 0 && data[i - 1] == data[c - 1] {
                i -= 1;
                c -= 1;
            }
            loop {
                let m = LZ4_MIN_MATCH;
                let len = m + lz4_count(data, c + m, i + m, match_limit);
                lz4_emit_seq(
                    &mut out,
                    &data[anchor..i],
                    Some(((i - c) as u16, len)),
                );
                i += len;
                anchor = i;
                if i > mflimit {
                    break 'block;
                }
                // Index two back from the match's end, then try for a
                // match that starts right where this one stopped.
                probe(i - 2);
                let Some(next_c) = probe(i) else { break };
                c = next_c;
            }
            i += 1;
        }
    }
    lz4_emit_seq(&mut out, &data[anchor..], None);
    out
}

/// Decode an [`lz4_compress`] stream, validating that it expands to
/// exactly `expected_len` bytes. `None` means malformed input or a
/// length mismatch.
pub fn lz4_decompress(data: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    lz4_decompress_into(data, expected_len, &mut out)?;
    Some(out)
}

/// [`lz4_decompress`], appending into a caller-owned buffer. Match
/// offsets resolve only within the bytes this call has itself produced —
/// a malicious stream cannot read the caller's earlier buffer contents.
/// On failure `out` is left as it was.
pub fn lz4_decompress_into(
    data: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Option<()> {
    // No stream byte expands to more than 255 output bytes: a longer
    // claim is refused before anything is allocated for it.
    if expected_len > data.len().saturating_mul(255) {
        return None;
    }
    let base = out.len();
    out.resize(base + expected_len, 0);
    let decoded = lz4_decode(data, &mut out[base..], copy_match);
    if decoded.is_none() {
        out.truncate(base);
    }
    decoded
}

/// Copy the `len` bytes that start `off` back from `dst[o]` to `dst[o..]`.
/// A match with `off < len` overlaps its own output and repeats with
/// period `off`: every copy takes all it can from `o - off`, which is a
/// multiple of the period until the last, so each copy doubles the next
/// and stays in phase.
fn copy_match(dst: &mut [u8], o: usize, off: usize, len: usize) {
    let src = o - off;
    if off >= 16 && len <= 16 && o + 16 <= dst.len() {
        // One fixed-size move; what lands past `len` is overwritten by
        // the next sequence before anything can read it.
        dst.copy_within(src..src + 16, o);
        return;
    }
    let mut done = 0;
    while done < len {
        let n = (len - done).min(off + done);
        dst.copy_within(src..src + n, o + done);
        done += n;
    }
}

/// A length nibble, extended by the `255`-run at `data[*i..]` when it is
/// 15. `None` past the end of `data` or once the length exceeds `max`.
fn lz4_len(
    data: &[u8],
    i: &mut usize,
    nibble: u8,
    max: usize,
) -> Option<usize> {
    let (mut len, mut b) = (usize::from(nibble), 255);
    while nibble == 15 && b == 255 {
        b = *data.get(*i)?;
        *i += 1;
        len = len.checked_add(usize::from(b))?;
        if len > max {
            return None;
        }
    }
    Some(len)
}

/// Decode a stream into exactly `dst`, copying matches with
/// `copy(dst, o, off, len)` — a parameter so tests can hold the decoder
/// against a byte-at-a-time copy.
fn lz4_decode(
    data: &[u8],
    dst: &mut [u8],
    copy: impl Fn(&mut [u8], usize, usize, usize),
) -> Option<()> {
    let expected_len = dst.len();
    let (mut i, mut o) = (0usize, 0usize);
    while i < data.len() {
        let token = data[i];
        i += 1;
        let lit = lz4_len(data, &mut i, token >> 4, expected_len)?;
        if i + lit > data.len() || o + lit > expected_len {
            return None;
        }
        if lit <= 16 && i + 16 <= data.len() && o + 16 <= expected_len {
            // As in `copy_match`: one fixed-size move.
            dst[o..o + 16].copy_from_slice(&data[i..i + 16]);
        } else {
            dst[o..o + lit].copy_from_slice(&data[i..i + lit]);
        }
        i += lit;
        o += lit;
        if i == data.len() {
            break; // final sequence carries no match
        }
        let off = u16::from_le_bytes([*data.get(i)?, *data.get(i + 1)?]);
        let off = usize::from(off);
        i += 2;
        if off == 0 || off > o {
            return None;
        }
        let mlen =
            lz4_len(data, &mut i, token & 0x0F, expected_len)? + LZ4_MIN_MATCH;
        if o + mlen > expected_len {
            return None;
        }
        copy(dst, o, off, mlen);
        o += mlen;
    }
    (o == expected_len).then_some(())
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

    /// The match copy as it was: one byte at a time, which replicates an
    /// overlapping match by construction. The oracle.
    fn copy_bytewise(dst: &mut [u8], o: usize, off: usize, len: usize) {
        for k in o..o + len {
            dst[k] = dst[k - off];
        }
    }

    fn lz4_round_trip(data: &[u8]) {
        let enc = lz4_compress(data);
        let n = data.len();
        assert!(
            enc.len() <= lz4_max_compressed_len(n),
            "{n} bytes encoded to {} > documented bound {}",
            enc.len(),
            lz4_max_compressed_len(n)
        );
        assert_eq!(
            lz4_decompress(&enc, n).as_deref(),
            Some(data),
            "lz4 round trip failed for {n} bytes"
        );
        // Under the oracle too, and within the format's end-of-block
        // rules: no match starts in the last 12 bytes or covers any of
        // the last 5.
        let mut out = vec![0; n];
        let in_bounds = |dst: &mut [u8], o: usize, off: usize, len: usize| {
            assert!(
                o + LZ4_MFLIMIT <= n && o + len + LZ4_LAST_LITERALS <= n,
                "match of {len} at {o} in {n} bytes"
            );
            copy_bytewise(dst, o, off, len);
        };
        lz4_decode(&enc, &mut out, in_bounds).unwrap();
        assert_eq!(out, data);
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
        // Every length across the end-of-block limits.
        for len in 0..=64 {
            lz4_round_trip(&noise[..len]);
            lz4_round_trip(&vec![7u8; len]);
        }
    }

    /// An LZ4 stream of one `off`/`mlen` match between random literals.
    fn one_match_stream(
        rng: &mut impl rand::Rng,
        off: usize,
        mlen: usize,
    ) -> (Vec<u8>, usize) {
        let lits: Vec<u8> = (0..off + rng.random_range(0..20usize))
            .map(|_| rng.random_range(0..=255u8))
            .collect();
        let tail: Vec<u8> = (0..rng.random_range(0..20usize))
            .map(|_| rng.random_range(0..=255u8))
            .collect();
        let mut s = Vec::new();
        lz4_emit_seq(&mut s, &lits, Some((off as u16, mlen)));
        lz4_emit_seq(&mut s, &tail, None);
        (s, lits.len() + mlen + tail.len())
    }

    #[test]
    fn lz4_decoder_matches_the_bytewise_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1D4C);
        let mut streams = Vec::new();
        // Every overlap at every match length, then streams of random
        // sequences at any offset (fewer of both under Miri).
        let (stride, random) = if cfg!(miri) { (37, 20) } else { (1, 200) };
        for off in 1..=16 {
            for mlen in (4..=300).step_by(stride) {
                streams.push(one_match_stream(&mut rng, off, mlen));
            }
        }
        for _ in 0..random {
            let mut s = Vec::new();
            let mut len = 0;
            for _ in 0..rng.random_range(1..40usize) {
                let lits: Vec<u8> = (0..rng.random_range(0..40usize))
                    .map(|_| rng.random_range(0..4u8))
                    .collect();
                len += lits.len();
                if len == 0 {
                    continue;
                }
                let far = rng.random_range(1..=len.min(65_535));
                let off = if rng.random() { far } else { far.min(20) };
                let mlen = rng.random_range(4..=300usize);
                lz4_emit_seq(&mut s, &lits, Some((off as u16, mlen)));
                len += mlen;
            }
            lz4_emit_seq(&mut s, b"end", None);
            streams.push((s, len + 3));
        }
        for (s, len) in streams {
            let decode = |copy: fn(&mut [u8], usize, usize, usize)| {
                let mut out = vec![0; len];
                lz4_decode(&s, &mut out, copy).map(|()| out)
            };
            let want = decode(copy_bytewise);
            assert!(want.is_some());
            assert_eq!(decode(copy_match), want);
        }
    }

    #[test]
    fn lz4_hostile_streams_are_refused_or_decode_to_the_expected_length() {
        let f64s = |v: Vec<f64>| -> Vec<u8> {
            v.iter().flat_map(|x| x.to_le_bytes()).collect()
        };
        // A row of the dense CG matrix, a 16 x 8 Laplace grid after ten
        // Jacobi sweeps, noise and zeros: 1 KiB each.
        let row = f64s((0..128).map(|j| 1.0 / (1.0 + j as f64)).collect());
        let mut grid = vec![0.0; 128];
        for _ in 0..10 {
            let g = grid.clone();
            for (k, cell) in grid.iter_mut().enumerate() {
                let (i, j) = (k / 16, k % 16);
                *cell = match (i, j) {
                    (_, 0) => 100.0,
                    (0 | 7, _) | (_, 15) => 25.0,
                    _ => 0.25 * (g[k - 16] + g[k + 16] + g[k - 1] + g[k + 1]),
                };
            }
        }
        let mut seed = 0xB10C_u64;
        let noise: Vec<u8> = (0..128)
            .flat_map(|_| crate::splitmix64(&mut seed).to_le_bytes())
            .collect();
        let masks: &[u8] = if cfg!(miri) {
            &[0xFF]
        } else {
            &[1, 2, 4, 8, 16, 32, 64, 128, 0xFF]
        };
        for data in [row, f64s(grid), noise, vec![0; 1024]] {
            let n = data.len();
            let enc = lz4_compress(&data);
            let check = |stream: &[u8]| {
                let mut out = b"prefix".to_vec();
                let len = match lz4_decompress_into(stream, n, &mut out) {
                    Some(()) => 6 + n,
                    None => 6,
                };
                assert_eq!(out.len(), len);
                assert_eq!(&out[..6], b"prefix");
            };
            check(&enc);
            for cut in 0..enc.len() {
                check(&enc[..cut]);
            }
            for at in 0..enc.len() {
                for mask in masks {
                    let mut s = enc.clone();
                    s[at] ^= mask;
                    check(&s);
                }
            }
        }
    }

    #[test]
    fn lz4_encoding_depends_on_the_input_alone() {
        // The dedup invariant: whatever the thread encoded before.
        let inputs: Vec<Vec<u8>> = vec![
            vec![0; 4096],
            (0..4096u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
                .collect(),
            b"abc".repeat(1000),
            (0..512)
                .flat_map(|i| (i as f64).sqrt().to_le_bytes())
                .collect(),
        ];
        let first: Vec<Vec<u8>> =
            inputs.iter().map(|d| lz4_compress(d)).collect();
        for (d, e) in inputs.iter().zip(&first).rev() {
            assert_eq!(&lz4_compress(d), e);
        }
        let fresh = std::thread::spawn(move || {
            inputs
                .iter()
                .rev()
                .map(|d| lz4_compress(d))
                .collect::<Vec<_>>()
        });
        let mut fresh = fresh.join().unwrap();
        fresh.reverse();
        assert_eq!(fresh, first);
    }

    #[test]
    fn lz4_streams_of_the_hash_chain_encoder_still_decode() {
        // What the hash-chain encoder of a28e75e wrote for three inputs:
        // stores written then must restore now. The first ends in a
        // match, which that encoder allowed.
        let text = b"abc".repeat(100);
        let ramp: Vec<u8> =
            (0..512).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let zeros = [0u8; 4096];
        let text_stream = [0x3f, b'a', b'b', b'c', 3, 0, 0xff, 0x17, 0];
        let zeros_stream =
            [&[0x1f, 0, 1, 0][..], &[0xff; 15], &[0xfb, 0]].concat();
        let vectors: [(&[u8], &[u8]); 3] = [
            (&text, &text_stream),
            (
                &ramp,
                include_bytes!("../testdata/lz4_a28e75e_f64_ramp.bin"),
            ),
            (&zeros, &zeros_stream),
        ];
        for (raw, stream) in vectors {
            assert_eq!(
                lz4_decompress(stream, raw.len()).as_deref(),
                Some(raw)
            );
        }
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
        // A claim no stream of this length can expand to is refused
        // before anything is allocated for it.
        let mut out = Vec::new();
        assert!(lz4_decompress_into(&enc, usize::MAX / 2, &mut out).is_none());
        assert_eq!(out.capacity(), 0);
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
}

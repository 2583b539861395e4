//! Chunk codec: a dependency-free LZ4-class block compressor, tried on
//! each chunk three times, with the smallest stored [`Form`] kept (see
//! [`Form::encode`]).
//!
//! Checkpoint state in the paper's applications is dominated by `f64`
//! arrays. Plain LZ4 finds byte runs and repeated values. Byte planes —
//! byte 0 of every 8-byte lane, then byte 1, and so on — put the shared
//! sign, exponent and high mantissa bytes of neighbouring values side by
//! side. The planes of each lane's residual against `2·x[i−1] − x[i−2]`
//! (the 1-D Lorenzo predictor of float compressors) turn the high bytes
//! of a slowly varying field into runs of `0x00` or `0xFF`. Stored size
//! over raw on the distinct chunks each job stores (EXPERIMENTS.md M20),
//! plain / planes / predicted / the per-chunk choice: Dense CG 0.771 /
//! 0.812 / 0.649 / 0.629, Laplace about 0.86 / 0.67 / 0.65 / 0.64. A
//! chunk is stored encoded only when that is smaller than its bytes (see
//! [`crate::manifest::ChunkRef::form`]).
//!
//! LZ4 block format (per sequence):
//! * token byte: high nibble = literal length, low nibble = match
//!   length − 4; a nibble of 15 is extended by `255`-run length bytes,
//! * the literals,
//! * a 2-byte little-endian match offset (1..=65535) and the match
//!   length extension — omitted for the final, literals-only sequence.

/// How one chunk's stored bytes are encoded. The discriminants are the
/// wire ids inside manifests ([`Form::id`] / [`Form::from_id`]); they are
/// append-only — never renumber. Id 1 (a run-length codec) is retired and
/// never reused: it reads as an unknown id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Form {
    /// Raw bytes, stored as-is.
    Raw = 0,
    /// LZ4 block compression of the bytes.
    Lz4 = 2,
    /// LZ4 block compression of the bytes' planes: byte 0 of every 8-byte
    /// lane, then byte 1, …, then byte 7, then the tail of fewer than 8
    /// bytes as it is.
    Lz4Planes = 3,
    /// [`Form::Lz4Planes`] over the lanes' residuals: each whole 8-byte
    /// lane as a wrapping `u64` minus `2·x[i−1] − x[i−2]` (lane 0 minus 0,
    /// lane 1 minus lane 0), the tail as it is.
    Lz4Predicted = 4,
}

impl Form {
    /// Wire id of this form (stored per chunk in manifests).
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Form::id`]; `None` for unknown ids (treated as
    /// manifest corruption by the decoder).
    pub fn from_id(id: u8) -> Option<Form> {
        [Form::Raw, Form::Lz4, Form::Lz4Planes, Form::Lz4Predicted]
            .into_iter()
            .find(|f| f.id() == id)
    }

    /// The stored form of `piece` and its stored bytes: the smallest of
    /// raw and the three LZ4 forms, ties going to raw, then plain LZ4, then
    /// planes. The choice is a function of `piece` alone — dedup is
    /// first-writer-wins, so every writer has to agree on what a given
    /// piece is stored as — and the encodings live in `trials` until the
    /// next call.
    pub fn encode<'a>(
        piece: &'a [u8],
        trials: &'a mut Trials,
    ) -> (Form, &'a [u8]) {
        let Trials { lanes, planes, out } = trials;
        out.clear();
        lz4_compress_into(piece, out);
        let mut best = (Form::Lz4, 0..out.len());
        // Under two lanes the planes are the piece itself.
        if piece.len() >= 16 {
            planes.resize(piece.len(), 0);
            lanes.clear();
            lanes.extend_from_slice(piece);
            predict::<true>(lanes);
            for (form, src) in
                [(Form::Lz4Planes, piece), (Form::Lz4Predicted, &lanes[..])]
            {
                shuffle::<true>(src, planes);
                let start = out.len();
                lz4_compress_into(planes, out);
                if out.len() - start < best.1.len() {
                    best = (form, start..out.len());
                }
            }
        }
        if best.1.len() < piece.len() {
            (best.0, &out[best.1])
        } else {
            (Form::Raw, piece)
        }
    }

    /// Append the decoded form of `stored` to `out`, validating that it
    /// expands to exactly `expected_len` bytes. `None` means malformed
    /// input or a length mismatch — recovery treats that as corruption.
    /// On failure `out` is left as it was. `scratch` holds the planes of
    /// a planes or predicted chunk on their way back to lanes; a caller
    /// decoding many chunks passes the same one to each.
    pub fn decode_into(
        self,
        stored: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Option<()> {
        match self {
            Form::Raw => {
                if stored.len() != expected_len {
                    return None;
                }
                out.extend_from_slice(stored);
                Some(())
            }
            Form::Lz4 => lz4_decompress_into(stored, expected_len, out),
            Form::Lz4Planes | Form::Lz4Predicted => {
                scratch.clear();
                lz4_decompress_into(stored, expected_len, scratch)?;
                let base = out.len();
                out.resize(base + expected_len, 0);
                shuffle::<false>(scratch, &mut out[base..]);
                if self == Form::Lz4Predicted {
                    predict::<false>(&mut out[base..]);
                }
                Some(())
            }
        }
    }
}

/// The buffers a writer reuses across chunks while [`Form::encode`]
/// tries each one: its residual lanes, its planes, and the three LZ4
/// trials back to back.
#[derive(Debug, Default)]
pub struct Trials {
    lanes: Vec<u8>,
    planes: Vec<u8>,
    out: Vec<u8>,
}

/// Replace each whole 8-byte lane of `buf` by its wrapping residual
/// against `2·x[i−1] − x[i−2]` ([`Form::Lz4Predicted`]), or with
/// `!RESIDUALS` turn residuals back into lanes; the tail stays as it is.
fn predict<const RESIDUALS: bool>(buf: &mut [u8]) {
    let (mut x1, mut x2) = (0u64, 0u64);
    for (i, lane) in buf.chunks_exact_mut(8).enumerate() {
        let v = u64::from_le_bytes((&*lane).try_into().expect("8-byte lane"));
        let guess = x1.wrapping_mul(2).wrapping_sub(x2);
        let x = if RESIDUALS { v } else { v.wrapping_add(guess) };
        let put = if RESIDUALS { v.wrapping_sub(guess) } else { x };
        lane.copy_from_slice(&put.to_le_bytes());
        // Lane 1's guess is lane 0 itself.
        (x1, x2) = (x, if i == 0 { x } else { x1 });
    }
}

/// Copy `src` into the equally long `dst` between lane order and plane
/// order ([`Form::Lz4Planes`]); `TO_PLANES` picks the direction. Eight
/// lanes at a time the two are an 8 × 8 byte transpose of eight words,
/// read from one side and written to the other; the last few lanes go
/// byte by byte, and the tail is copied as it is.
fn shuffle<const TO_PLANES: bool>(src: &[u8], dst: &mut [u8]) {
    let lanes = src.len() / 8;
    // Where word `w` of group `g` sits: lane `8g + w`, or bytes `8g..`
    // of plane `w`.
    let lane = |g: usize, w: usize| (8 * g + w) * 8;
    let plane = |g: usize, w: usize| w * lanes + 8 * g;
    for g in 0..lanes / 8 {
        let mut words = [0u64; 8];
        for (w, word) in words.iter_mut().enumerate() {
            let at = if TO_PLANES { lane(g, w) } else { plane(g, w) };
            let bytes = src[at..at + 8].try_into().expect("8-byte slice");
            *word = u64::from_le_bytes(bytes);
        }
        transpose8x8(&mut words);
        for (w, word) in words.iter().enumerate() {
            let at = if TO_PLANES { plane(g, w) } else { lane(g, w) };
            dst[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
    }
    for l in lanes / 8 * 8..lanes {
        for k in 0..8 {
            let (at_lane, at_plane) = (8 * l + k, k * lanes + l);
            if TO_PLANES {
                dst[at_plane] = src[at_lane];
            } else {
                dst[at_lane] = src[at_plane];
            }
        }
    }
    dst[8 * lanes..].copy_from_slice(&src[8 * lanes..]);
}

/// Transpose the 8 × 8 byte matrix whose row `i` is `w[i]`, byte `j`
/// (little-endian) in column `j`: swap the off-diagonal 4 × 4 blocks,
/// then the 2 × 2 blocks inside each, then single bytes.
fn transpose8x8(w: &mut [u64; 8]) {
    // Swap the `rows` × `rows` block right of the diagonal in rows
    // `i..` with the one below it, `rows` rows down.
    let mut swap = |i: usize, rows: usize, mask: u64| {
        let t = ((w[i] >> (8 * rows)) ^ w[i + rows]) & mask;
        w[i] ^= t << (8 * rows);
        w[i + rows] ^= t;
    };
    for i in [0, 1, 2, 3] {
        swap(i, 4, 0x0000_0000_FFFF_FFFF);
    }
    for i in [0, 1, 4, 5] {
        swap(i, 2, 0x0000_FFFF_0000_FFFF);
    }
    for i in [0, 2, 4, 6] {
        swap(i, 1, 0x00FF_00FF_00FF_00FF);
    }
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

/// Documented worst-case size of [`lz4_compress_into`] output:
/// incompressible input costs one length-extension byte per 255 literals
/// plus constant framing. Pinned by a proptest over adversarial inputs.
fn lz4_max_compressed_len(len: usize) -> usize {
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
/// row, and matches extended backwards over pending literals. The
/// encoding is appended to `out`. It is only useful when it is smaller
/// than the input; callers compare lengths and keep the raw bytes
/// otherwise. It never exceeds [`lz4_max_compressed_len`], and is a
/// function of `data` alone (the dedup invariant).
fn lz4_compress_into(data: &[u8], out: &mut Vec<u8>) {
    let n = data.len();
    out.reserve(lz4_max_compressed_len(n));
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
                    out,
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
    lz4_emit_seq(out, &data[anchor..], None);
}

/// Decode an [`lz4_compress_into`] stream into a caller-owned buffer,
/// validating that it expands to exactly `expected_len` bytes. `None`
/// means malformed input or a length mismatch. Match offsets resolve only within the bytes this call has itself produced —
/// a malicious stream cannot read the caller's earlier buffer contents.
/// On failure `out` is left as it was.
fn lz4_decompress_into(
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

    fn lz4_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        lz4_compress_into(data, &mut out);
        out
    }

    fn lz4_decompress(data: &[u8], expected_len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        lz4_decompress_into(data, expected_len, &mut out)?;
        Some(out)
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
    fn zero_pages_shrink_dramatically() {
        let data = vec![0u8; 64 * 1024];
        let enc = lz4_compress(&data);
        assert!(enc.len() < data.len() / 50, "got {} bytes", enc.len());
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
        // A row of the dense CG matrix cut to 1 021 bytes, a 16 x 8
        // Laplace grid after ten Jacobi sweeps, noise and zeros: 1 KiB
        // each.
        let mut row = f64s((0..128).map(|j| 1.0 / (1.0 + j as f64)).collect());
        row.truncate(1021);
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
        // Every stream three times: plain (id 2), over the planes (id 3)
        // and over the residuals' planes (id 4).
        let mut streams = Vec::new();
        for data in [row, f64s(grid), noise, vec![0; 1024]] {
            streams.push((Form::Lz4, lz4_compress(&data), data.len()));
            let enc = lz4_compress(&planes(&data));
            streams.push((Form::Lz4Planes, enc, data.len()));
            let enc = lz4_compress(&planes(&residuals(&data)));
            streams.push((Form::Lz4Predicted, enc, data.len()));
        }
        let mut scratch = Vec::new();
        for (form, enc, n) in streams {
            // Each also decoded as id 4, whatever it was written as.
            let mut check = |stream: &[u8]| {
                for form in [form, Form::Lz4Predicted] {
                    let mut out = b"prefix".to_vec();
                    let got =
                        form.decode_into(stream, n, &mut out, &mut scratch);
                    let len = if got.is_some() { 6 + n } else { 6 };
                    assert_eq!(out.len(), len, "{form:?}");
                    assert_eq!(&out[..6], b"prefix");
                }
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
        let lz = lz4_compress(b"bcd bcd bcd bcd!");
        lz4_decompress_into(&lz, 16, &mut out).unwrap();
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], b"bcd bcd bcd bcd!");
    }

    #[test]
    fn codec_ids_round_trip_and_unknown_ids_are_rejected() {
        let forms =
            [Form::Raw, Form::Lz4, Form::Lz4Planes, Form::Lz4Predicted];
        for f in forms {
            assert_eq!(Form::from_id(f.id()), Some(f));
        }
        assert_eq!(forms.map(Form::id), [0, 2, 3, 4]);
        // Id 1 is retired, never reused.
        for id in [1, 5, 255] {
            assert_eq!(Form::from_id(id), None);
        }
    }

    #[test]
    fn codec_encode_decode_round_trips() {
        let data = b"runs: aaaaaaa and text text text".to_vec();
        let mut trials = Trials::default();
        let (form, stored) = Form::encode(&data, &mut trials);
        assert_eq!(form, Form::Lz4);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        form.decode_into(stored, data.len(), &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, data);
        // Bytes no form shrinks are stored as they are.
        let text = b"no repeats";
        let (form, stored) = Form::encode(text, &mut trials);
        assert_eq!((form, stored), (Form::Raw, &text[..]));
        let mut out = Vec::new();
        Form::Raw
            .decode_into(&data, data.len(), &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, data);
        let short = Form::Raw.decode_into(&data, 5, &mut out, &mut scratch);
        assert!(short.is_none());
    }

    /// The planes of `data`, byte by byte. The oracle.
    fn planes(data: &[u8]) -> Vec<u8> {
        let lanes = data.len() / 8;
        let mut out: Vec<u8> = (0..8)
            .flat_map(|k| (0..lanes).map(move |l| data[8 * l + k]))
            .collect();
        out.extend_from_slice(&data[8 * lanes..]);
        out
    }

    /// The residual lanes of `data`, lane by lane from the definition:
    /// lane 0 against 0, lane 1 against lane 0, lane `i` against
    /// `2·x[i−1] − x[i−2]`, the tail as it is. The oracle.
    fn residuals(data: &[u8]) -> Vec<u8> {
        let x: Vec<u64> = data
            .chunks_exact(8)
            .map(|l| u64::from_le_bytes(l.try_into().unwrap()))
            .collect();
        let mut out: Vec<u8> = (0..x.len())
            .flat_map(|i| {
                let guess = match i {
                    0 => 0,
                    1 => x[0],
                    _ => x[i - 1].wrapping_mul(2).wrapping_sub(x[i - 2]),
                };
                x[i].wrapping_sub(guess).to_le_bytes()
            })
            .collect();
        out.extend_from_slice(&data[8 * x.len()..]);
        out
    }

    /// `len` bytes of `f64`s from `value(i)`, the last value cut short
    /// when `len` is not a multiple of 8.
    fn f64_bytes(len: usize, value: impl Fn(usize) -> f64) -> Vec<u8> {
        let mut out: Vec<u8> = (0..len.div_ceil(8))
            .flat_map(|i| value(i).to_le_bytes())
            .collect();
        out.truncate(len);
        out
    }

    /// The inputs of the byte-plane properties: noise, an `f64` ramp, a
    /// smooth field, a field that converges to a constant, and zeros.
    fn plane_inputs(len: usize, seed: u64) -> [Vec<u8>; 5] {
        let mut state = seed;
        let noise = (0..len)
            .map(|_| crate::splitmix64(&mut state) as u8)
            .collect();
        let x0 = (seed % 1000) as f64;
        [
            noise,
            f64_bytes(len, |i| x0 + i as f64),
            f64_bytes(len, |i| (0.01 * (x0 + i as f64)).sin() * 100.0),
            f64_bytes(len, |i| 25.0 + 75.0 * 0.99f64.powi(i as i32)),
            vec![0; len],
        ]
    }

    #[test]
    fn proptest_planes_round_trip_and_the_choice_never_stores_more() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x91A7E5);
        // Every length across the lane and group edges, then random ones
        // up to just past a 4 KiB chunk (fewer of both under Miri).
        let (edges, random) = if cfg!(miri) { (20, 4) } else { (150, 60) };
        let mut lens: Vec<usize> = (0..edges).collect();
        lens.extend((0..random).map(|_| rng.random_range(0..=4100usize)));
        lens.push(4100);
        let mut cases = Vec::new();
        for &len in &lens {
            cases.extend(plane_inputs(len, rng.random()));
        }
        let mut trials = Trials::default();
        let (mut lanes, mut scratch) = (Vec::new(), Vec::new());
        let mut chosen = Vec::new();
        for data in &cases {
            let n = data.len();
            let mut shuffled = vec![0; n];
            shuffle::<true>(data, &mut shuffled);
            assert_eq!(shuffled, planes(data), "{n} bytes");
            let mut back = vec![0; n];
            shuffle::<false>(&shuffled, &mut back);
            assert_eq!(&back, data, "{n} bytes");
            let mut resid = data.clone();
            predict::<true>(&mut resid);
            assert_eq!(resid, residuals(data), "{n} bytes");
            predict::<false>(&mut resid);
            assert_eq!(&resid, data, "{n} bytes");

            let (form, stored) = Form::encode(data, &mut trials);
            let plain = lz4_compress(data).len().min(n);
            assert!(stored.len() <= plain && plain <= n, "{n} bytes");
            if n >= 16 {
                let planes = lz4_compress(&planes(data)).len();
                assert!(stored.len() <= planes, "{n} bytes");
                if form == Form::Lz4Predicted {
                    assert!(stored.len() < plain.min(planes), "{n} bytes");
                }
            }
            if form == Form::Lz4Planes {
                assert!(stored.len() < plain, "{n} bytes");
            }
            lanes.clear();
            form.decode_into(stored, n, &mut lanes, &mut scratch)
                .unwrap();
            assert_eq!(&lanes, data, "{form:?}, {n} bytes");
            chosen.push((form, stored.to_vec()));
        }
        assert!(chosen.iter().any(|(f, _)| *f == Form::Lz4Predicted));
        assert!(chosen.iter().any(|(f, _)| *f == Form::Lz4Planes));
        assert!(chosen.iter().any(|(f, _)| *f == Form::Lz4));
        // The same choice on a thread that has encoded nothing before.
        let fresh = std::thread::spawn(move || {
            let mut trials = Trials::default();
            cases
                .iter()
                .rev()
                .map(|d| {
                    let (form, stored) = Form::encode(d, &mut trials);
                    (form, stored.to_vec())
                })
                .collect::<Vec<_>>()
        });
        let mut fresh = fresh.join().unwrap();
        fresh.reverse();
        assert!(fresh == chosen);
    }

    #[test]
    fn a_pinned_planes_stream_still_decodes() {
        // A smooth field of 4 100 bytes, the last value cut to four: what
        // the first encoder to write id 3 stored for it. Stores written
        // then must restore now.
        let field = f64_bytes(4100, |i| (0.01 * i as f64).sin() * 100.0);
        let stream = include_bytes!("../testdata/lz4_planes_sine_4100.bin");
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        Form::Lz4Planes
            .decode_into(stream, field.len(), &mut out, &mut scratch)
            .unwrap();
        assert!(out == field);
        assert!(stream.len() < lz4_compress(&field).len());
    }

    #[test]
    fn a_pinned_predicted_stream_still_decodes() {
        // The same field: what the first encoder to write id 4 stored for
        // it, which it chose over both other LZ4 forms.
        let field = f64_bytes(4100, |i| (0.01 * i as f64).sin() * 100.0);
        let stream = include_bytes!("../testdata/lz4_predicted_sine_4100.bin");
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        Form::Lz4Predicted
            .decode_into(stream, field.len(), &mut out, &mut scratch)
            .unwrap();
        assert!(out == field);
        assert!(stream.len() < lz4_compress(&planes(&field)).len());
    }
}

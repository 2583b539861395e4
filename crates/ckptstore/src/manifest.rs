//! Chunk manifests for incremental (delta) checkpoints.
//!
//! Instead of one opaque blob per rank, the write pipeline splits a
//! snapshot into fixed-size chunks addressed by content —
//! `hash128(chunk) + length` (see [`crate::integrity::hash128`]; 128 bits
//! so accidental collision, which would silently dedup one chunk to
//! another's bytes, is negligible) — and stores a small **manifest**
//! listing the chunk references in order. Chunks are immutable and
//! shared: if a chunk of checkpoint `n+1` hashes identically to one
//! already stored by checkpoint `n`, it is not written again. Recovery
//! reassembles the blob
//! from the manifest, and [`crate::store::CheckpointStore::gc_keeping`]
//! refcounts chunks through the manifests of the surviving checkpoints so
//! shared chunks outlive the checkpoints that first wrote them.
//!
//! The scheme follows the storage-hierarchy / differential-checkpointing
//! line of work (Adam et al., "Checkpoint/Restart Approaches for a
//! Thread-Based MPI Runtime"): the paper's own store writes full
//! snapshots, which dominates its Figure 8 overhead numbers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use crate::codec::{CodecError, Decoder, Encoder, SaveLoad};
use crate::compress::Form;
use crate::integrity::{crc32, hash128};
use crate::store::CkptId;

/// Magic prefix of an encoded manifest (also a format version marker).
/// `…0002` widened chunk addresses from CRC-32 to a 128-bit content hash;
/// `…0003` replaced the per-chunk compressed flag with a stored-form id
/// ([`Form::id`]).
const MANIFEST_MAGIC: u32 = 0xC3A1_0003;

/// Storage key of the chunk with the given content address. Chunks live in
/// a flat `chunk/` namespace outside any checkpoint directory, because
/// they are shared across checkpoints.
pub fn chunk_key(hash: u128, len: u32) -> String {
    use std::fmt::Write as _;
    // Pre-sized so the hot path (one key per chunk on every write and
    // read) allocates exactly once: 6 ("chunk/") + 32 (hash) + 1 ('-')
    // + ≤10 (len digits).
    let mut key = String::with_capacity(50);
    let _ = write!(key, "chunk/{hash:032x}-{len}");
    key
}

/// Inverse of [`chunk_key`]: the content address a chunk key names, or
/// `None` for anything `chunk_key` would not have produced (so a key that
/// parses is the one key of its address).
pub fn parse_chunk_key(key: &str) -> Option<(u128, u32)> {
    let (hex, len) = key.strip_prefix("chunk/")?.split_once('-')?;
    if hex.len() != 32
        || !len.bytes().all(|b| b.is_ascii_digit())
        || (len.len() > 1 && len.starts_with('0'))
    {
        return None;
    }
    let mut hash = 0u128;
    for b in hex.bytes() {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        hash = hash << 4 | u128::from(digit);
    }
    Some((hash, len.parse().ok()?))
}

/// A map keyed by chunk content address `(hash128, len)`. The key *is* a
/// well-mixed hash of the job's own bytes, so the map's hasher passes its
/// low 64 bits through instead of hashing them again.
pub type AddrMap<V> = HashMap<(u128, u32), V, BuildHasherDefault<AddrHasher>>;

/// The pass-through hasher of [`AddrMap`].
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u128(&mut self, hash: u128) {
        self.0 = hash as u64;
    }
    // The length half of the key: chunks that differ only there are rare
    // and already apart in the hash.
    fn write_u32(&mut self, _len: u32) {}
    fn write(&mut self, bytes: &[u8]) {
        // No `AddrMap` key reaches this; any other key still hashes.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A reference to one content-addressed chunk of a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// [`hash128`] of the chunk's raw (uncompressed) bytes.
    pub hash: u128,
    /// Raw (uncompressed) length in bytes.
    pub len: u32,
    /// Length of the stored representation (compressed or raw), before
    /// the storage seal. Lets byte accounting and GC reason about actual
    /// storage cost without fetching the chunk.
    pub stored_len: u32,
    /// How the stored representation is encoded ([`Form::Raw`] = raw
    /// bytes); on the wire, its [`Form::id`].
    pub form: Form,
}

impl ChunkRef {
    /// Reference for a raw (uncompressed, not-yet-stored) chunk.
    pub fn for_piece(piece: &[u8]) -> Self {
        ChunkRef {
            hash: hash128(piece),
            len: piece.len() as u32,
            stored_len: piece.len() as u32,
            form: Form::Raw,
        }
    }

    /// The storage key this chunk lives under.
    pub fn key(&self) -> String {
        chunk_key(self.hash, self.len)
    }

    /// Whether the stored representation needs decoding on read.
    pub fn compressed(&self) -> bool {
        self.form != Form::Raw
    }
}

impl SaveLoad for ChunkRef {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u128(self.hash);
        enc.put_u32(self.len);
        enc.put_u32(self.stored_len);
        enc.put_u8(self.form.id());
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ChunkRef {
            hash: dec.get_u128()?,
            len: dec.get_u32()?,
            stored_len: dec.get_u32()?,
            form: {
                let id = dec.get_u8()?;
                Form::from_id(id).ok_or_else(|| {
                    CodecError::new(format!("unknown chunk codec id {id}"))
                })?
            },
        })
    }
}

/// Ordered chunk list describing one rank blob of one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Total raw blob length; must equal the sum of chunk `len`s.
    pub total_len: u64,
    /// CRC-32 over the whole raw blob — an end-to-end check on top of the
    /// per-chunk CRCs, so a bug that reassembles valid chunks in the wrong
    /// order still surfaces as corruption.
    pub blob_crc: u32,
    /// Chunk references in blob order.
    pub chunks: Vec<ChunkRef>,
}

impl Manifest {
    /// Build a manifest skeleton for a raw blob (chunk list filled by the
    /// caller as it cuts and stores chunks).
    pub fn for_blob(blob: &[u8]) -> Self {
        Manifest {
            total_len: blob.len() as u64,
            blob_crc: crc32(blob),
            chunks: Vec::new(),
        }
    }

    /// Sum of stored chunk lengths (what the chunks cost on the backend,
    /// ignoring seals and dedup).
    pub fn stored_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.stored_len)).sum()
    }

    /// The chunks (as indices into `chunks`) covering exactly bytes
    /// `offset .. offset + len` of the blob; `None` unless both ends fall
    /// on chunk boundaries.
    pub fn run_at(&self, offset: usize, len: usize) -> Option<Range<usize>> {
        let end = offset.checked_add(len)?;
        let (mut at, mut next) = (0usize, 0usize);
        let mut advance_to = |target: usize| {
            while at < target {
                at += self.chunks.get(next)?.len as usize;
                next += 1;
            }
            (at == target).then_some(next)
        };
        let first = advance_to(offset)?;
        let last = advance_to(end)?;
        Some(first..last)
    }

    /// Serialize for storage (the result is additionally CRC-sealed by the
    /// store like every other blob).
    pub fn encode(&self) -> Vec<u8> {
        // Magic, length, CRC, the list's length prefix and 25 bytes per
        // chunk — and the seal trailer, so `seal_vec` appends in place.
        let mut enc = Encoder::with_capacity(24 + self.chunks.len() * 25 + 4);
        enc.put_u32(MANIFEST_MAGIC);
        enc.put_u64(self.total_len);
        enc.put_u32(self.blob_crc);
        enc.put(&self.chunks);
        enc.into_bytes()
    }

    /// Decode a stored manifest, validating magic and internal length
    /// consistency.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.get_u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(CodecError::new(format!(
                "bad manifest magic {magic:#010x}"
            )));
        }
        let m = Manifest {
            total_len: dec.get_u64()?,
            blob_crc: dec.get_u32()?,
            chunks: dec.get()?,
        };
        dec.finish("manifest")?;
        let sum: u64 = m.chunks.iter().map(|c| u64::from(c.len)).sum();
        if sum != m.total_len {
            return Err(CodecError::new(format!(
                "manifest total_len {} disagrees with chunk sum {sum}",
                m.total_len
            )));
        }
        Ok(m)
    }
}

/// What one tracked value ([`crate::codec::Tracked`]) put on storage in
/// a written line: its encoded length, the CRC-32 of that encoding and
/// the chunk references covering it. Enough to name the value in a later
/// manifest without its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleanRun {
    /// Encoded length in bytes (the sum of the chunks' `len`s).
    pub len: usize,
    /// CRC-32 of the encoded bytes.
    pub crc: u32,
    /// The chunks covering the encoding, in order.
    pub chunks: Vec<ChunkRef>,
}

/// What the last written line of one `(rank, kind)` blob stream left on
/// storage, as the write pipeline remembers it: the dedup base of the
/// stream's next line. An [`Encoder`] built against it encodes a tracked
/// value whose version is in `clean` as a reference, and the pipeline
/// resolves that reference — and every chunk whose address is in
/// `chunks` — without encoding or storing anything.
#[derive(Debug, Default)]
pub struct LineRecord {
    /// The checkpoint whose manifest this describes. The record vouches
    /// for its chunks only while that manifest is on storage.
    pub ckpt: CkptId,
    /// Stored form `(stored_len, form)` of every chunk address
    /// `(hash128, len)` in the manifest: a hit yields the manifest entry
    /// directly, with no recompression to reconstruct what the first
    /// writer chose.
    pub chunks: AddrMap<(u32, Form)>,
    /// Per tracked-value version in the line, what it put on storage.
    /// Versions are process-unique and a value's version changes
    /// whenever its bytes may have, so equal version ⇒ equal bytes.
    pub clean: HashMap<u64, Arc<CleanRun>>,
}

impl LineRecord {
    /// The record of a line whose manifest is `manifest`.
    pub fn new(
        ckpt: CkptId,
        manifest: &Manifest,
        clean: HashMap<u64, Arc<CleanRun>>,
    ) -> Self {
        LineRecord {
            ckpt,
            chunks: manifest
                .chunks
                .iter()
                .map(|c| ((c.hash, c.len), (c.stored_len, c.form)))
                .collect(),
            clean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_key_is_stable() {
        assert_eq!(
            chunk_key(0xdead_beef, 4096),
            "chunk/000000000000000000000000deadbeef-4096"
        );
        let c = ChunkRef {
            hash: 0xff,
            len: 7,
            stored_len: 7,
            form: Form::Raw,
        };
        assert_eq!(c.key(), "chunk/000000000000000000000000000000ff-7");
        // `for_piece` agrees with the content hash.
        let piece = b"chunk bytes";
        let r = ChunkRef::for_piece(piece);
        assert_eq!(r.hash, hash128(piece));
        assert_eq!(r.len, piece.len() as u32);
        assert!(!r.compressed());
    }

    #[test]
    fn parse_chunk_key_inverts_chunk_key_and_nothing_else() {
        for addr in [(0u128, 0u32), (0xdead_beef, 4096), (u128::MAX, u32::MAX)]
        {
            assert_eq!(
                parse_chunk_key(&chunk_key(addr.0, addr.1)),
                Some(addr)
            );
        }
        let good = chunk_key(0xab, 7);
        for bad in [
            "chunk/ab-7".to_owned(),           // hash not 32 digits
            good.to_uppercase(),               // wrong prefix case
            good.replace("ab-", "AB-"),        // upper-case hex
            good.replace("-7", "-07"),         // leading zero
            good.replace("-7", "-+7"),         // sign
            good.replace("-7", "-"),           // no length
            good.replace("-7", "-4294967296"), // length overflows u32
            good.replace('-', "_"),
            good.replace("chunk/", "ckpt/"),
            format!("{good}/x"),
        ] {
            assert_eq!(parse_chunk_key(&bad), None, "{bad}");
        }
    }

    #[test]
    fn addr_map_keys_on_the_whole_address() {
        let mut m: AddrMap<u8> = AddrMap::default();
        // Equal low 64 bits, different high bits and lengths: the hasher
        // collides them, the map still tells them apart.
        m.insert((1, 5), 1);
        m.insert((1 | (1 << 64), 5), 2);
        m.insert((1, 6), 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&(1, 5)), Some(&1));
        assert_eq!(m.get(&(1 | (1 << 64), 5)), Some(&2));
        assert_eq!(m.get(&(1, 6)), Some(&3));
        assert_eq!(m.get(&(2, 5)), None);
    }

    #[test]
    fn run_at_finds_only_chunk_aligned_spans() {
        let chunk = |len| ChunkRef {
            hash: u128::from(len),
            len,
            stored_len: len,
            form: Form::Raw,
        };
        let m = Manifest {
            total_len: 60,
            blob_crc: 0,
            chunks: vec![chunk(10), chunk(20), chunk(30)],
        };
        assert_eq!(m.run_at(0, 60), Some(0..3));
        assert_eq!(m.run_at(10, 20), Some(1..2));
        assert_eq!(m.run_at(10, 50), Some(1..3));
        assert_eq!(m.run_at(30, 0), Some(2..2));
        assert_eq!(m.run_at(60, 0), Some(3..3));
        for (offset, len) in
            [(5, 5), (10, 10), (0, 61), (61, 0), (10, usize::MAX)]
        {
            assert_eq!(m.run_at(offset, len), None, "({offset}, {len})");
        }
    }

    #[test]
    fn encode_reserves_exactly_with_room_for_the_seal() {
        let mut m = Manifest::for_blob(&[0; 75]);
        m.chunks = vec![ChunkRef::for_piece(&[0; 25]); 3];
        let enc = m.encode();
        assert_eq!(enc.len(), 24 + 25 * 3);
        assert_eq!(enc.capacity(), enc.len() + 4);
    }

    #[test]
    fn manifest_round_trip() {
        let blob = vec![3u8; 140];
        let mut m = Manifest::for_blob(&blob);
        m.chunks = vec![
            ChunkRef {
                hash: 1 << 100,
                len: 64,
                stored_len: 4,
                form: Form::Lz4,
            },
            ChunkRef {
                hash: 2,
                len: 36,
                stored_len: 36,
                form: Form::Raw,
            },
            ChunkRef {
                hash: 3,
                len: 40,
                stored_len: 9,
                form: Form::Lz4Planes,
            },
        ];
        let enc = m.encode();
        assert_eq!(Manifest::decode(&enc).unwrap(), m);
        assert_eq!(m.stored_bytes(), 49);
    }

    #[test]
    fn decode_rejects_inconsistent_manifests() {
        // Wrong magic.
        assert!(Manifest::decode(&[0; 20]).is_err());
        // total_len disagreeing with the chunk sum.
        let mut m = Manifest {
            total_len: 10,
            blob_crc: 0,
            chunks: vec![ChunkRef {
                hash: 0,
                len: 5,
                stored_len: 5,
                form: Form::Raw,
            }],
        };
        m.total_len = 99;
        assert!(Manifest::decode(&m.encode()).is_err());
        // Trailing garbage.
        m.total_len = 5;
        let mut enc = m.encode();
        enc.push(0);
        assert!(Manifest::decode(&enc).is_err());
    }

    #[test]
    fn decode_rejects_unknown_codec_ids() {
        let mut m = Manifest {
            total_len: 5,
            blob_crc: 0,
            chunks: vec![ChunkRef {
                hash: 7,
                len: 5,
                stored_len: 5,
                form: Form::Lz4,
            }],
        };
        m.blob_crc = 1;
        let mut enc = m.encode();
        // The form id is the last byte of the encoded chunk list. Id 1
        // is retired: a manifest naming it is as corrupt as any other.
        let last = enc.len() - 1;
        assert_eq!(enc[last], Form::Lz4.id());
        for id in [1, 4, 255] {
            enc[last] = id;
            let err = Manifest::decode(&enc).unwrap_err();
            assert!(err.to_string().contains("codec"), "{id}: {err}");
        }
    }
}

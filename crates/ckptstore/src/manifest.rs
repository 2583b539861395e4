//! Chunk manifests for incremental (delta) checkpoints.
//!
//! Instead of one opaque blob per rank, the write pipeline splits a
//! snapshot into content-defined chunks addressed by content —
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
//! The chunk list of a tracked value ([`crate::codec::Tracked`]) of more
//! than one chunk is stored once, as a *run object*: its references
//! ([`encode_run`]) stored content-addressed under `chunk/` like any
//! chunk. A manifest names the run by one entry instead of listing its
//! chunks, so a line whose tracked value did not change writes a manifest
//! the size of what did.
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

/// Form-id bit marking a manifest entry as a run object rather than a
/// chunk; the entry is followed by the raw length the run covers. No
/// [`Form`] id has it, so a reader that predates runs finds an unknown
/// codec id and reads the manifest as corrupt.
const RUN: u8 = 0x80;

/// Bytes of one chunk entry on the wire (hash, len, stored len, form id);
/// a run entry is 8 more.
const ENTRY_LEN: usize = 25;

/// A tracked part cut into at least this many chunks is stored as a run
/// object; a shorter one is named chunk by chunk, as any other part.
pub const RUN_MIN_CHUNKS: usize = 2;

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
        || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        || !len.bytes().all(|b| b.is_ascii_digit())
        || (len.len() > 1 && len.starts_with('0'))
    {
        return None;
    }
    Some((u128::from_str_radix(hex, 16).ok()?, len.parse().ok()?))
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

    /// The content address `(hash128, len)`.
    pub fn addr(&self) -> (u128, u32) {
        (self.hash, self.len)
    }

    /// Whether the stored representation needs decoding on read.
    pub fn compressed(&self) -> bool {
        self.form != Form::Raw
    }

    /// Encode as a manifest entry: a chunk, or with `run_len` a run
    /// object covering that many raw bytes.
    fn save_entry(&self, enc: &mut Encoder, run_len: Option<u64>) {
        enc.put_u128(self.hash);
        enc.put_u32(self.len);
        enc.put_u32(self.stored_len);
        enc.put_u8(self.form.id() | if run_len.is_some() { RUN } else { 0 });
        if let Some(len) = run_len {
            enc.put_u64(len);
        }
    }

    /// Inverse of [`ChunkRef::save_entry`].
    fn load_entry(
        dec: &mut Decoder<'_>,
    ) -> Result<(Self, Option<u64>), CodecError> {
        let (hash, len, stored_len) =
            (dec.get_u128()?, dec.get_u32()?, dec.get_u32()?);
        let id = dec.get_u8()?;
        let form = Form::from_id(id & !RUN).ok_or_else(|| {
            CodecError::new(format!("unknown chunk codec id {id}"))
        })?;
        let run_len = (id & RUN != 0).then(|| dec.get_u64()).transpose()?;
        let chunk = ChunkRef {
            hash,
            len,
            stored_len,
            form,
        };
        Ok((chunk, run_len))
    }
}

impl SaveLoad for ChunkRef {
    fn save(&self, enc: &mut Encoder) {
        self.save_entry(enc, None);
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match ChunkRef::load_entry(dec)? {
            (chunk, None) => Ok(chunk),
            (_, Some(_)) => Err(CodecError::new("a run names a run")),
        }
    }
}

/// The raw bytes of the run object naming `chunks`: their count, then
/// each reference as a manifest lists a chunk.
pub fn encode_run(chunks: &[ChunkRef]) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(8 + chunks.len() * ENTRY_LEN);
    enc.put_usize(chunks.len());
    for chunk in chunks {
        chunk.save(&mut enc);
    }
    enc.into_bytes()
}

/// Inverse of [`encode_run`], for a run its manifest says covers `len` raw
/// bytes. Runs are one level deep: an entry that is itself a run, a count
/// the bytes cannot hold exactly, or lengths that do not sum to `len` are
/// errors, found before anything is reserved beyond the input.
pub fn decode_run(
    bytes: &[u8],
    len: u64,
) -> Result<Vec<ChunkRef>, CodecError> {
    let mut dec = Decoder::new(bytes);
    let n = dec.get_u64()?;
    if n.checked_mul(ENTRY_LEN as u64) != Some(dec.remaining() as u64) {
        return Err(CodecError::new(format!(
            "run of {n} chunks does not fit its {} bytes",
            bytes.len()
        )));
    }
    let chunks = (0..n)
        .map(|_| ChunkRef::load(&mut dec))
        .collect::<Result<Vec<_>, _>>()?;
    let sum: u64 = chunks.iter().map(|c| u64::from(c.len)).sum();
    if sum != len {
        return Err(CodecError::new(format!(
            "run covers {sum} bytes, its manifest entry {len}"
        )));
    }
    Ok(chunks)
}

/// A span of a manifest's chunks stored as one run object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpan {
    /// The chunks the run names: `Manifest::chunks[chunks]`.
    pub chunks: Range<usize>,
    /// The run object's content address and stored form.
    pub obj: ChunkRef,
}

/// A run entry of a decoded manifest, not yet resolved: where in
/// [`Manifest::chunks`] its chunks belong, the run object, and the raw
/// length it covers.
pub type UnresolvedRun = (usize, ChunkRef, u64);

/// Ordered chunk list describing one rank blob of one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Total raw blob length; must equal the sum of chunk `len`s.
    pub total_len: u64,
    /// CRC-32 over the whole raw blob — an end-to-end check on top of the
    /// per-chunk CRCs, so a bug that reassembles valid chunks in the wrong
    /// order still surfaces as corruption.
    pub blob_crc: u32,
    /// Chunk references in blob order, every run's in place.
    pub chunks: Vec<ChunkRef>,
    /// The spans of `chunks` stored as run objects, in order and
    /// disjoint: the encoding names each by one entry.
    pub runs: Vec<RunSpan>,
}

impl Manifest {
    /// Build a manifest skeleton for a raw blob (chunk list filled by the
    /// caller as it cuts and stores chunks).
    pub fn for_blob(blob: &[u8]) -> Self {
        Manifest {
            total_len: blob.len() as u64,
            blob_crc: crc32(blob),
            ..Manifest::default()
        }
    }

    /// Name `chunks[first..]` by the run object `obj`, if there is one.
    pub fn push_run(&mut self, first: usize, obj: Option<ChunkRef>) {
        if let Some(obj) = obj {
            let chunks = first..self.chunks.len();
            self.runs.push(RunSpan { chunks, obj });
        }
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
    /// store like every other blob). Without runs, the bytes are those of
    /// a manifest written before runs existed.
    pub fn encode(&self) -> Vec<u8> {
        let named: usize = self.runs.iter().map(|r| r.chunks.len()).sum();
        let entries = self.chunks.len() - named + self.runs.len();
        // Magic, length, CRC, the entry count and 25 bytes per entry (8
        // more per run) — and the seal trailer, so `seal_vec` appends in
        // place.
        let mut enc = Encoder::with_capacity(
            24 + entries * ENTRY_LEN + self.runs.len() * 8 + 4,
        );
        enc.put_u32(MANIFEST_MAGIC);
        enc.put_u64(self.total_len);
        enc.put_u32(self.blob_crc);
        enc.put_usize(entries);
        let mut next = 0;
        for run in &self.runs {
            for chunk in &self.chunks[next..run.chunks.start] {
                chunk.save(&mut enc);
            }
            let named = &self.chunks[run.chunks.clone()];
            let len = named.iter().map(|c| u64::from(c.len)).sum();
            run.obj.save_entry(&mut enc, Some(len));
            next = run.chunks.end;
        }
        for chunk in &self.chunks[next..] {
            chunk.save(&mut enc);
        }
        enc.into_bytes()
    }

    /// Decode a stored manifest, validating magic and that its entries
    /// cover `total_len`. The chunks come back with every run left out;
    /// the runs come back unresolved, for the store to fetch and splice
    /// in (`CheckpointStore::get_rank_manifest`). Nothing is reserved
    /// beyond a small multiple of the input.
    pub fn decode(
        bytes: &[u8],
    ) -> Result<(Self, Vec<UnresolvedRun>), CodecError> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.get_u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(CodecError::new(format!(
                "bad manifest magic {magic:#010x}"
            )));
        }
        let mut m = Manifest {
            total_len: dec.get_u64()?,
            blob_crc: dec.get_u32()?,
            ..Manifest::default()
        };
        let n = dec.get_usize()?;
        if n > dec.remaining() / ENTRY_LEN {
            return Err(CodecError::new(format!(
                "manifest of {n} entries does not fit its {} bytes",
                bytes.len()
            )));
        }
        m.chunks.reserve_exact(n);
        let (mut runs, mut sum) = (Vec::new(), 0u64);
        for _ in 0..n {
            match ChunkRef::load_entry(&mut dec)? {
                (chunk, None) => {
                    sum = sum.saturating_add(chunk.len.into());
                    m.chunks.push(chunk);
                }
                (obj, Some(len)) => {
                    sum = sum.saturating_add(len);
                    runs.push((m.chunks.len(), obj, len));
                }
            }
        }
        dec.finish("manifest")?;
        if sum != m.total_len {
            return Err(CodecError::new(format!(
                "manifest total_len {} disagrees with chunk sum {sum}",
                m.total_len
            )));
        }
        Ok((m, runs))
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
    /// The run object naming `chunks`, when there are at least
    /// [`RUN_MIN_CHUNKS`]: a later manifest names the value by it alone.
    pub run: Option<ChunkRef>,
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

    fn raw(hash: u128, len: u32) -> ChunkRef {
        ChunkRef {
            hash,
            len,
            stored_len: len,
            form: Form::Raw,
        }
    }

    #[test]
    fn run_at_finds_only_chunk_aligned_spans() {
        let m = Manifest {
            total_len: 60,
            chunks: vec![raw(10, 10), raw(20, 20), raw(30, 30)],
            ..Manifest::default()
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
        let enc = manifest_with_a_run().encode();
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
        assert_eq!(Manifest::decode(&enc).unwrap(), (m, Vec::new()));
    }

    #[test]
    fn decode_rejects_inconsistent_manifests() {
        // Wrong magic.
        assert!(Manifest::decode(&[0; 20]).is_err());
        // total_len disagreeing with the chunk sum.
        let mut m = Manifest {
            total_len: 99,
            chunks: vec![raw(0, 5)],
            ..Manifest::default()
        };
        assert!(Manifest::decode(&m.encode()).is_err());
        // Trailing garbage.
        m.total_len = 5;
        let mut enc = m.encode();
        enc.push(0);
        assert!(Manifest::decode(&enc).is_err());
    }

    #[test]
    fn decode_rejects_unknown_codec_ids() {
        let m = Manifest {
            total_len: 5,
            blob_crc: 1,
            chunks: vec![ChunkRef {
                form: Form::Lz4,
                ..raw(7, 5)
            }],
            ..Manifest::default()
        };
        let mut enc = m.encode();
        // The form id is the last byte of the encoded chunk list. Id 1
        // is retired: a manifest naming it is as corrupt as any other.
        let last = enc.len() - 1;
        assert_eq!(enc[last], Form::Lz4.id());
        for id in [1, 5, 255] {
            enc[last] = id;
            let err = Manifest::decode(&enc).unwrap_err();
            assert!(err.to_string().contains("codec"), "{id}: {err}");
        }
        enc[last] = Form::Lz4Predicted.id();
        let (direct, _) = Manifest::decode(&enc).unwrap();
        assert_eq!(direct.chunks[0].form, Form::Lz4Predicted);
    }

    /// A chunk, a run of three chunks stored as LZ4, and a chunk: the
    /// shape of a Dense CG state line.
    fn manifest_with_a_run() -> Manifest {
        let mut m = Manifest {
            total_len: 150,
            blob_crc: 7,
            chunks: (1..=5).map(|i| raw(i, 10 * i as u32)).collect(),
            ..Manifest::default()
        };
        let obj = ChunkRef {
            stored_len: 9,
            form: Form::Lz4,
            ..ChunkRef::for_piece(&encode_run(&m.chunks[1..4]))
        };
        m.runs.push(RunSpan { chunks: 1..4, obj });
        m
    }

    #[test]
    fn without_runs_the_encoding_is_the_one_before_runs() {
        let mut m = manifest_with_a_run();
        m.runs.clear();
        let mut before = Encoder::new();
        before.put_u32(MANIFEST_MAGIC);
        before.put_u64(m.total_len);
        before.put_u32(m.blob_crc);
        before.put(&m.chunks);
        assert_eq!(m.encode(), before.into_bytes());
    }

    #[test]
    fn a_run_is_one_entry_a_reader_without_runs_refuses() {
        let m = manifest_with_a_run();
        let enc = m.encode();
        // Two chunk entries and one run entry in place of five chunks.
        assert_eq!(enc.len(), 24 + 3 * ENTRY_LEN + 8);
        let (direct, runs) = Manifest::decode(&enc).unwrap();
        assert_eq!(direct.chunks, [m.chunks[0], m.chunks[4]]);
        assert!(direct.runs.is_empty());
        assert_eq!(runs, [(1, m.runs[0].obj, 20 + 30 + 40)]);
        // The run entry's form byte is no form id, so the chunk-list
        // decoder of a reader that predates runs refuses it.
        let entry = &enc[24 + ENTRY_LEN..];
        assert_eq!(Form::from_id(entry[24]), None);
        let err = ChunkRef::load(&mut Decoder::new(entry)).unwrap_err();
        assert!(err.to_string().contains("run"), "{err}");
        let obj = encode_run(&m.chunks[1..4]);
        assert_eq!(decode_run(&obj, 90).unwrap(), &m.chunks[1..4]);
    }

    #[test]
    fn hostile_runs_and_manifests_are_refused_never_panic() {
        let m = manifest_with_a_run();
        let run = encode_run(&m.chunks[1..4]);
        // Every truncation and every bit and byte flip of a run object
        // and of a manifest naming one: an error or a decode, never a
        // panic, and never more than a small multiple of the input
        // allocated.
        let decode = |input: &[u8]| {
            let before = crate::test_alloc::allocated_bytes();
            let _ = decode_run(input, 90);
            let _ = Manifest::decode(input);
            let spent = crate::test_alloc::allocated_bytes() - before;
            let bound = 8 * input.len() as u64 + 512;
            assert!(spent <= bound, "{spent} bytes for {}", input.len());
        };
        for bytes in [&run, &m.encode()] {
            (0..bytes.len()).for_each(|cut| decode(&bytes[..cut]));
            for i in 0..bytes.len() {
                for flip in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= flip;
                    decode(&flipped);
                }
            }
        }
        // A run naming a run.
        let mut nested = run.clone();
        nested[8 + 24] |= RUN;
        let err = decode_run(&nested, 90).unwrap_err().to_string();
        assert!(err.contains("a run names a run"), "{err}");
        // Entries that do not sum to what the manifest says.
        assert!(decode_run(&run, 91).is_err());
        // Counts the object's length cannot hold.
        for n in [2, 4, u64::MAX / 25 + 1, u64::MAX] {
            let mut bad = run.clone();
            bad[..8].copy_from_slice(&n.to_le_bytes());
            let err = decode_run(&bad, 90).unwrap_err().to_string();
            assert!(err.contains("does not fit"), "{n}: {err}");
        }
        let mut bad = m.encode();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Manifest::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("does not fit"), "{err}");
    }
}

//! Compact binary encoding for persisted checkpoint structures.
//!
//! Every structure that reaches stable storage — application snapshots, the
//! protocol layer's message/non-determinism logs, early-message identifier
//! sets, persistent-object call records, commit records — is serialized with
//! this codec. It is deliberately simple: fixed-width little-endian integers,
//! IEEE-754 floats, and length-prefixed byte strings. Simplicity matters here
//! because decode happens on the *recovery* path, where the only acceptable
//! failure mode is an explicit [`CodecError`], never a panic.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::manifest::LineRecord;

/// Decode failure: the blob is shorter than expected or contains an invalid
/// discriminant. Carries a human-readable description of what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the decoder was trying to read when it failed.
    pub detail: String,
}

impl CodecError {
    /// Construct a decode error (also used by downstream crates that
    /// implement [`SaveLoad`] with custom validation).
    pub fn new(detail: impl Into<String>) -> Self {
        CodecError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

/// One stretch of an encoding, in order. An encoding with no tracked
/// value in it is a single [`Part::Bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The next `len` bytes of the encoder's buffer. `version` is set
    /// when they are exactly one [`Tracked`] value's encoding.
    Bytes {
        /// Length in bytes.
        len: usize,
        /// The tracked value's version, if this part is one.
        version: Option<u64>,
    },
    /// A [`Tracked`] value the encoder's base line already holds: `len`
    /// bytes of the encoding that were never produced.
    Clean {
        /// The tracked value's version (a key of the base's `clean` map).
        version: u64,
        /// Length of the encoding the reference stands for.
        len: usize,
    },
    /// A [`Tracked`] value an encoder built for a line did not serialize:
    /// the `len` bytes its [`Fresh`] handle (the next one
    /// [`Encoder::into_parts`] yields) streams when the line is written.
    Fresh {
        /// The tracked value's version.
        version: u64,
        /// Length of its encoding.
        len: usize,
    },
}

/// A fresh [`Tracked`] value, shared with the state that owns it, and the
/// pure `save` that encodes it: what a [`Part::Fresh`] stands for.
#[derive(Clone)]
pub struct Fresh(Arc<dyn Fn(&mut Encoder) + Send + Sync>);

impl Fresh {
    fn new(save: impl Fn(&mut Encoder) + Send + Sync + 'static) -> Self {
        Fresh(Arc::new(save))
    }

    /// Append the value's encoding to `enc`.
    pub fn save(&self, enc: &mut Encoder) {
        (self.0)(enc)
    }

    /// Length of the encoding, from a pass that counts and copies nothing.
    fn encoded_len(&self) -> usize {
        let mut count = Encoder {
            out: Out::Count,
            in_tracked: true,
            ..Encoder::default()
        };
        self.save(&mut count);
        count.len()
    }

    /// Encode the value into `sink` a window at a time: whenever the
    /// encoder's buffer of [`WINDOW`] bytes is full, the sink gets it and
    /// returns how many leading bytes it is done with; the rest stay for
    /// the next window. Returns the bytes the sink has not taken and the
    /// length of the whole encoding.
    pub fn stream(
        &self,
        sink: &mut dyn FnMut(&[u8]) -> usize,
    ) -> (Vec<u8>, usize) {
        let mut enc = Encoder {
            buf: Vec::with_capacity(WINDOW),
            out: Out::Stream(sink),
            in_tracked: true,
            ..Encoder::default()
        };
        self.save(&mut enc);
        let len = enc.len();
        (enc.buf, len)
    }
}

/// What a streaming encoder holds before handing its bytes on: it grows
/// only while the sink keeps a whole window (one of its pieces is longer)
/// or a length prefix is open.
const WINDOW: usize = 64 << 10;

/// Where an encoder's bytes go.
#[derive(Default)]
enum Out<'s> {
    /// Into its buffer.
    #[default]
    Buffer,
    /// Nowhere: they are only counted.
    Count,
    /// Into a sink, a window at a time ([`Fresh::stream`]).
    Stream(&'s mut dyn FnMut(&[u8]) -> usize),
}

/// Append-only binary encoder.
///
/// ```
/// use ckptstore::codec::{Encoder, Decoder};
/// let mut enc = Encoder::new();
/// enc.put_u32(7);
/// enc.put_str("epoch");
/// let bytes = enc.into_bytes();
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert_eq!(dec.get_str().unwrap(), "epoch");
/// ```
///
/// The encoder also records *parts*: a [`Tracked`] value always starts a
/// part of its own. An encoder built [`against`](Encoder::against) a base
/// line, for one incremental checkpoint line, encodes a tracked value
/// whose version the base holds as a [`Part::Clean`] reference and any
/// other outermost one as a [`Part::Fresh`] value, neither with bytes in
/// the buffer. [`Encoder::into_parts`] yields the parts; any other
/// encoder puts every byte in its buffer, so [`Encoder::into_bytes`] is
/// always the whole encoding there.
#[derive(Default)]
pub struct Encoder<'s> {
    buf: Vec<u8>,
    out: Out<'s>,
    /// Closed parts; buffer bytes from `open_at` on are an open untracked
    /// part.
    parts: Vec<Part>,
    open_at: usize,
    /// Bytes the encoding stands for outside `buf`: clean references,
    /// fresh values, and bytes counted or handed to the sink.
    away: usize,
    /// Of `away`, the bytes covered by `Part::Clean` references.
    clean_len: usize,
    /// The values of the `Part::Fresh` parts, in order.
    fresh: Vec<Fresh>,
    /// Length prefixes still open: a streaming encoder hands nothing on
    /// until the last one is patched.
    open_prefixes: usize,
    /// Inside a tracked value's own encoding (nested tracked values
    /// encode inline there).
    in_tracked: bool,
    /// Built for a line: an outermost fresh tracked value is a handle.
    line: bool,
    base: Option<Arc<LineRecord>>,
}

impl<'s> Encoder<'s> {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Create an encoder with pre-reserved capacity (use when the caller
    /// knows the approximate snapshot size, e.g. bulk array saves).
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
            ..Encoder::default()
        }
    }

    /// Create an encoder for one incremental checkpoint line: a tracked
    /// value whose version `base` holds encodes as a reference, any other
    /// outermost one as a fresh value the line's writer streams from the
    /// value itself. Only an incremental write stores what it yields.
    pub fn against(base: Option<Arc<LineRecord>>) -> Self {
        Encoder {
            line: true,
            base,
            ..Encoder::default()
        }
    }

    /// Consume the encoder, yielding the encoded bytes. Panics if the
    /// encoding holds clean references or fresh values (only one built
    /// [`against`](Encoder::against) a base line can): use
    /// [`Encoder::into_parts`].
    pub fn into_bytes(self) -> Vec<u8> {
        assert_eq!(self.away, 0, "encoding holds references or values");
        self.buf
    }

    /// Consume the encoder, yielding the buffer, the parts that lay it
    /// out (clean references and fresh values interleaved), the fresh
    /// values in order, and the base the references resolve against.
    pub fn into_parts(
        mut self,
    ) -> (Vec<u8>, Vec<Part>, Vec<Fresh>, Option<Arc<LineRecord>>) {
        self.close_part(None);
        (self.buf, self.parts, self.fresh, self.base)
    }

    /// Number of bytes the encoding stands for so far, clean references
    /// and fresh values included.
    pub fn len(&self) -> usize {
        self.buf.len() + self.away
    }

    /// Of [`Encoder::len`], the bytes covered by clean references.
    pub fn clean_len(&self) -> usize {
        self.clean_len
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the open part: if it has bytes, or is a tracked value's.
    fn close_part(&mut self, version: Option<u64>) {
        let len = self.buf.len() - self.open_at;
        if len > 0 || version.is_some() {
            self.parts.push(Part::Bytes { len, version });
            self.open_at = self.buf.len();
        }
    }

    /// Encode one tracked value: as a reference if the base holds
    /// `version`, as a fresh value on a line, as a part of its own
    /// otherwise.
    fn put_tracked(&mut self, version: u64, value: Fresh) {
        if self.in_tracked {
            return value.save(self);
        }
        self.close_part(None);
        let held = self.base.as_ref().and_then(|b| b.clean.get(&version));
        if let Some(run) = held {
            let len = run.len;
            // Soundness net for every debug build (all of `cargo test`):
            // a reference must stand for exactly the bytes the value
            // encodes to now.
            #[cfg(debug_assertions)]
            {
                let crc = run.crc;
                let mut probe = Encoder {
                    in_tracked: true,
                    ..Encoder::default()
                };
                value.save(&mut probe);
                assert!(
                    probe.buf.len() == len
                        && crate::integrity::crc32(&probe.buf) == crc,
                    "tracked value changed without a new version {version} \
                     (interior mutability behind Tracked?)"
                );
            }
            self.parts.push(Part::Clean { version, len });
            self.clean_len += len;
            self.away += len;
            return;
        }
        if self.line {
            let len = value.encoded_len();
            self.parts.push(Part::Fresh { version, len });
            self.fresh.push(value);
            self.away += len;
            return;
        }
        self.in_tracked = true;
        value.save(self);
        self.in_tracked = false;
        self.close_part(Some(version));
    }

    /// Length-prefixed nested encoding: whatever `body` appends, preceded
    /// by its length as a fixed `u64` — the wire form of
    /// [`Encoder::put_bytes`] without the intermediate buffer.
    pub fn put_len_prefixed(&mut self, body: impl FnOnce(&mut Encoder)) {
        // While the prefix is open nothing is handed on, so it can be
        // patched in the buffer.
        self.open_prefixes += 1;
        let at = self.buf.len();
        self.put_u64(0);
        let start = self.len();
        body(self);
        let n = (self.len() - start) as u64;
        self.open_prefixes -= 1;
        if !matches!(self.out, Out::Count) {
            self.buf[at..at + 8].copy_from_slice(&n.to_le_bytes());
        }
    }

    /// Append `bytes`: to the buffer, to the count, or to the window.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        match self.out {
            Out::Buffer => self.buf.extend_from_slice(bytes),
            Out::Count => self.away += bytes.len(),
            Out::Stream(_) => self.write_window(bytes),
        }
    }

    /// Append `bytes` to a streaming encoder's window, handing the sink
    /// each full window and keeping what it leaves.
    fn write_window(&mut self, mut bytes: &[u8]) {
        loop {
            let room = self.buf.capacity() - self.buf.len();
            if bytes.len() <= room {
                return self.buf.extend_from_slice(bytes);
            }
            let (now, later) = bytes.split_at(room);
            self.buf.extend_from_slice(now);
            bytes = later;
            let done = match &mut self.out {
                Out::Stream(sink) if self.open_prefixes == 0 => {
                    sink(&self.buf)
                }
                _ => 0,
            };
            self.buf.drain(..done);
            self.away += done;
            if done == 0 {
                self.buf.reserve(WINDOW);
            }
        }
    }

    /// Length-prefixed 8-byte words: reserved once in the buffer, counted
    /// without a copy, or streamed a block on the stack at a time.
    fn put_words<T: Copy>(&mut self, v: &[T], le: impl Fn(T) -> [u8; 8]) {
        self.put_usize(v.len());
        match self.out {
            Out::Buffer => {
                self.buf.reserve(v.len() * 8);
                for &x in v {
                    self.buf.extend_from_slice(&le(x));
                }
            }
            Out::Count => self.away += v.len() * 8,
            Out::Stream(_) => {
                let mut block = [0u8; 4096];
                for words in v.chunks(block.len() / 8) {
                    for (to, &x) in block.chunks_exact_mut(8).zip(words) {
                        to.copy_from_slice(&le(x));
                    }
                    self.write_window(&block[..words.len() * 8]);
                }
            }
        }
    }

    /// Append a boolean as a single 0/1 byte.
    pub fn put_bool(&mut self, v: bool) {
        self.write(&[v as u8]);
    }

    /// Append a `usize`, encoded as `u64` for blob stability.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.write(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bulk-encode an `f64` slice (length-prefixed). This is the hot path for
    /// application snapshots, whose state is dominated by numeric arrays.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_words(v, f64::to_le_bytes);
    }

    /// Bulk-encode a `u64` slice (length-prefixed).
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_words(v, u64::to_le_bytes);
    }

    /// Encode any [`SaveLoad`] value.
    pub fn put<T: SaveLoad>(&mut self, v: &T) {
        v.save(self);
    }
}

/// Where one [`Tracked`] value was decoded from: the version it was given
/// and the bytes of the decoder's buffer that are its encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedSpan {
    /// The decoded value's (fresh) version.
    pub version: u64,
    /// Offset of the encoding in the buffer.
    pub offset: usize,
    /// Length of the encoding in bytes.
    pub len: usize,
}

/// Sequential binary decoder over a byte slice.
///
/// The decoder is the [`Encoder`]'s mirror for [`Tracked`] values too: it
/// records where each outermost one was decoded from
/// ([`Decoder::tracked_spans`]), so a restart can hand the write pipeline
/// the stretches of the recovered blob that its next line may name by
/// reference.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    spans: Vec<TrackedSpan>,
    /// Inside a tracked value's own encoding (nested tracked values are
    /// part of the outer one's span, as they are of its part).
    in_tracked: bool,
}

impl<'a> Decoder<'a> {
    /// Begin decoding at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            spans: Vec::new(),
            in_tracked: false,
        }
    }

    /// The outermost [`Tracked`] values decoded so far, in buffer order.
    pub fn tracked_spans(&self) -> &[TrackedSpan] {
        &self.spans
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Require that every byte has been consumed. Every site that decodes
    /// a complete buffer ends with this, so bytes past the value — schema
    /// drift between save and load, or a tampered blob — are an error
    /// everywhere, never silently ignored.
    pub fn finish(&self, what: &str) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::new(format!(
                "{n} trailing bytes after {what}"
            ))),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "truncated blob reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decode a 0/1 byte into a boolean; other values error.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// Decode a `u64`-encoded `usize`; errors if it does not fit.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CodecError::new(format!("usize out of range: {v}")))
    }

    /// Length-prefixed raw bytes, borrowed from the underlying slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_usize()?;
        self.take(n, "byte string")
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|e| CodecError::new(format!("invalid utf-8: {e}")))
    }

    /// Length-prefixed 8-byte words, the mirror of `Encoder::put_words`.
    fn get_words<T>(
        &mut self,
        what: &str,
        from_le: impl Fn([u8; 8]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.get_usize()?;
        let len = n.checked_mul(8).ok_or_else(|| {
            CodecError::new(format!("{what} length overflow"))
        })?;
        let raw = self.take(len, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| from_le(c.try_into().unwrap()))
            .collect())
    }

    /// Bulk-decode an `f64` slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        self.get_words("f64 slice", f64::from_le_bytes)
    }

    /// Bulk-decode a `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        self.get_words("u64 slice", u64::from_le_bytes)
    }

    /// Decode any [`SaveLoad`] value.
    pub fn get<T: SaveLoad>(&mut self) -> Result<T, CodecError> {
        T::load(self)
    }
}

/// Types that can round-trip through the checkpoint codec.
///
/// Implementations must be *total*: `load(save(x)) == x` for every value,
/// and `load` must never panic on malformed input. The protocol layer, the
/// state-saving machinery, and the applications all persist their state
/// through this trait.
pub trait SaveLoad: Sized {
    /// Append this value's encoding to `enc`.
    fn save(&self, enc: &mut Encoder);
    /// Decode a value, consuming exactly the bytes written by `save`.
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Encode one value.
pub fn encode<T: SaveLoad>(v: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    v.save(&mut enc);
    enc.into_bytes()
}

/// Decode a whole record: one `T` that is every byte of `bytes`. `what`
/// names the record in the error for bytes left over.
pub fn decode_exact<T: SaveLoad>(
    bytes: &[u8],
    what: &str,
) -> Result<T, CodecError> {
    let mut dec = Decoder::new(bytes);
    let v = T::load(&mut dec)?;
    dec.finish(what)?;
    Ok(v)
}

/// A [`Tracked`] version: process-unique, never reused. `Relaxed`
/// suffices, the value publishes nothing but itself.
fn fresh_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A state field that knows when it may have changed.
///
/// The value is shared (an `Arc`): reading through [`Deref`] is free and
/// `clone` is a second handle on it. Every way of obtaining the value
/// mutably — [`DerefMut`], and construction by [`Tracked::new`] or
/// `load` — stamps it with a fresh process-unique *version*, so two
/// `Tracked` values with equal versions hold equal bytes (`clone` keeps
/// the version; `mem::swap` of two `Tracked` moves each version with its
/// value). [`DerefMut`] copies the value first while anything else holds
/// it (copy-on-write), so a checkpoint write still streaming it never
/// sees its bytes change. The checkpoint write path uses exactly that: a
/// field whose version the previous line already wrote is recorded as a
/// reference ([`Part::Clean`]) and is neither serialized, CRC'd, chunked
/// nor hashed again, and any other is handed to the writer as a
/// [`Part::Fresh`] value, which the writer encodes straight into its
/// chunks. `save` clears nothing, so encoding a state for any other
/// purpose (a digest, a probe) cannot make a later checkpoint unsound.
///
/// The wire bytes are exactly `T`'s: wrapping a field changes no stored
/// format. Wrap fields that are large and rarely written (a matrix built
/// once in `init`); a field written every iteration gains nothing.
///
/// `T` must have **no interior mutability** (`Cell`, `RefCell`, atomics,
/// locks): a change behind `&T` mints no version and a stale reference
/// would be restored under a matching CRC. Debug builds re-encode every
/// referenced value and panic on a mismatch.
#[derive(Debug)]
pub struct Tracked<T> {
    value: Arc<T>,
    version: u64,
}

impl<T> Clone for Tracked<T> {
    fn clone(&self) -> Self {
        Tracked {
            value: Arc::clone(&self.value),
            version: self.version,
        }
    }
}

impl<T> Tracked<T> {
    /// Track `value`, under a fresh version.
    pub fn new(value: T) -> Self {
        let version = fresh_version();
        Tracked {
            value: Arc::new(value),
            version,
        }
    }

    /// Encode the value with `save` in place of `T::save` — for a bulk
    /// path such as [`Encoder::put_f64_slice`]. `save` must be a pure
    /// function of the value, as `T::save` is: an encoder built for a
    /// line keeps it, with the shared value, for the writer to run.
    pub fn save_with(
        &self,
        enc: &mut Encoder,
        save: impl Fn(&T, &mut Encoder) + Send + Sync + 'static,
    ) where
        T: Send + Sync + 'static,
    {
        let value = Arc::clone(&self.value);
        enc.put_tracked(
            self.version,
            Fresh::new(move |enc| save(&value, enc)),
        );
    }

    /// Decode the value with `load` in place of `T::load` — the twin of
    /// [`Tracked::save_with`], for the same bulk paths. The decoder notes
    /// the bytes `load` consumed under the new value's version: they are
    /// what `save` would produce for it, because they were produced by
    /// `save` (`load ∘ save` is the identity and `save` is a pure function
    /// of the value).
    pub fn load_with(
        dec: &mut Decoder<'_>,
        load: impl FnOnce(&mut Decoder<'_>) -> Result<T, CodecError>,
    ) -> Result<Self, CodecError> {
        let offset = dec.pos;
        let nested = std::mem::replace(&mut dec.in_tracked, true);
        let value = load(dec);
        dec.in_tracked = nested;
        let tracked = Tracked::new(value?);
        if !nested {
            dec.spans.push(TrackedSpan {
                version: tracked.version,
                offset,
                len: dec.pos - offset,
            });
        }
        Ok(tracked)
    }
}

impl<T> Deref for Tracked<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Clone> DerefMut for Tracked<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.version = fresh_version();
        Arc::make_mut(&mut self.value)
    }
}

impl<T: PartialEq> PartialEq for Tracked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: SaveLoad + Send + Sync + 'static> SaveLoad for Tracked<T> {
    fn save(&self, enc: &mut Encoder) {
        self.save_with(enc, T::save);
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Self::load_with(dec, T::load)
    }
}

macro_rules! impl_saveload_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl SaveLoad for $t {
            fn save(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.$get()
            }
        }
    };
}

/// The fixed-width little-endian scalars, each declared once: the
/// [`Encoder`] method that appends one, the [`Decoder`] method that reads
/// it back, and its [`SaveLoad`].
macro_rules! le_scalars {
    ($($t:ident: $put:ident, $get:ident;)*) => {
        impl Encoder<'_> {
            $(
                #[doc = concat!("Append a little-endian `", stringify!($t), "`.")]
                pub fn $put(&mut self, v: $t) {
                    self.write(&v.to_le_bytes());
                }
            )*
        }

        impl Decoder<'_> {
            $(
                #[doc = concat!("Decode a little-endian `", stringify!($t), "`.")]
                pub fn $get(&mut self) -> Result<$t, CodecError> {
                    let n = std::mem::size_of::<$t>();
                    let raw = self.take(n, stringify!($t))?;
                    Ok($t::from_le_bytes(raw.try_into().unwrap()))
                }
            )*
        }

        $( impl_saveload_prim!($t, $put, $get); )*
    };
}

le_scalars! {
    u8: put_u8, get_u8;
    u16: put_u16, get_u16;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    u128: put_u128, get_u128;
    i32: put_i32, get_i32;
    i64: put_i64, get_i64;
    f32: put_f32, get_f32;
    f64: put_f64, get_f64;
}
impl_saveload_prim!(bool, put_bool, get_bool);
impl_saveload_prim!(usize, put_usize, get_usize);

impl SaveLoad for String {
    fn save(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(dec.get_str()?.to_owned())
    }
}

impl<T: SaveLoad> SaveLoad for Vec<T> {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for item in self {
            item.save(enc);
        }
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.get_usize()?;
        // Guard against hostile lengths: never reserve more bytes than
        // remain to be decoded.
        let fit = dec.remaining() / std::mem::size_of::<T>().max(1);
        let mut v = Vec::with_capacity(n.min(fit));
        for _ in 0..n {
            v.push(T::load(dec)?);
        }
        Ok(v)
    }
}

impl<T: SaveLoad> SaveLoad for Option<T> {
    fn save(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.save(enc);
            }
        }
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(dec)?)),
            b => Err(CodecError::new(format!("invalid Option tag {b}"))),
        }
    }
}

macro_rules! impl_saveload_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: SaveLoad),+> SaveLoad for ($($t,)+) {
            fn save(&self, enc: &mut Encoder) {
                $( self.$i.save(enc); )+
            }
            fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(($( $t::load(dec)?, )+))
            }
        }
    };
}

impl_saveload_tuple!(A.0, B.1);
impl_saveload_tuple!(A.0, B.1, C.2);

impl<K: SaveLoad + Ord, V: SaveLoad> SaveLoad for BTreeMap<K, V> {
    fn save(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for (k, v) in self {
            k.save(enc);
            v.save(enc);
        }
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.get_usize()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(dec)?;
            let v = V::load(dec)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

/// Implement [`SaveLoad`] for a struct by listing its fields in order.
///
/// ```
/// use ckptstore::impl_saveload_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, y: f64, tag: u32 }
/// impl_saveload_struct!(Point { x: f64, y: f64, tag: u32 });
/// ```
#[macro_export]
macro_rules! impl_saveload_struct {
    ($name:ident { $($field:ident : $ty:ty),* $(,)? }) => {
        impl $crate::codec::SaveLoad for $name {
            fn save(&self, enc: &mut $crate::codec::Encoder) {
                $( <$ty as $crate::codec::SaveLoad>::save(&self.$field, enc); )*
            }
            fn load(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name {
                    $( $field: <$ty as $crate::codec::SaveLoad>::load(dec)?, )*
                })
            }
        }
    };
}

/// Define an enum and implement [`SaveLoad`] for it from one table: each
/// variant is stated once, with its explicit one-byte wire tag and its
/// fields in wire order (each through its own [`SaveLoad`]). Also emits
/// `TAGS`, every tag in declaration order.
///
/// ```
/// use ckptstore::codec::{Decoder, Encoder};
///
/// ckptstore::impl_saveload_enum! {
///     #[derive(Debug, PartialEq)]
///     enum Shape {
///         0 => Empty,
///         /// Tags are explicit: they need not follow declaration order.
///         7 => Rect { w: u32, h: u32 },
///     }
/// }
/// let mut enc = Encoder::new();
/// enc.put(&Shape::Rect { w: 2, h: 3 });
/// assert_eq!(enc.into_bytes(), [7, 2, 0, 0, 0, 3, 0, 0, 0]);
/// assert_eq!(Decoder::new(&[0]).get::<Shape>().unwrap(), Shape::Empty);
/// assert!(Decoder::new(&[1]).get::<Shape>().is_err());
/// assert_eq!(Shape::TAGS, [0, 7]);
/// ```
#[macro_export]
macro_rules! impl_saveload_enum {
    (
        $(#[$emeta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$emeta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty ),* })?
            ),*
        }

        impl $name {
            /// Every variant's wire tag, in declaration order.
            pub const TAGS: &'static [u8] = &[$($tag),*];
        }

        impl $crate::codec::SaveLoad for $name {
            fn save(&self, enc: &mut $crate::codec::Encoder) {
                match self {
                    $( Self::$variant $({ $($field),* })? => {
                        enc.put_u8($tag);
                        $($( <$ty as $crate::codec::SaveLoad>::save($field, enc); )*)?
                    } )*
                }
            }
            fn load(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match dec.get_u8()? {
                    $( $tag => Self::$variant $({
                        $( $field: <$ty as $crate::codec::SaveLoad>::load(dec)? ),*
                    })?, )*
                    k => {
                        return Err($crate::codec::CodecError::new(format!(
                            "unknown {} tag {k}",
                            stringify!($name)
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xab);
        enc.put_u16(0xbeef);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 1);
        enc.put_i32(-42);
        enc.put_i64(i64::MIN);
        enc.put_f32(1.5);
        enc.put_f64(std::f64::consts::PI);
        enc.put_bool(true);
        enc.put_usize(12345);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xab);
        assert_eq!(dec.get_u16().unwrap(), 0xbeef);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_i32().unwrap(), -42);
        assert_eq!(dec.get_i64().unwrap(), i64::MIN);
        assert_eq!(dec.get_f32().unwrap(), 1.5);
        assert_eq!(dec.get_f64().unwrap(), std::f64::consts::PI);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_usize().unwrap(), 12345);
        dec.finish("values").unwrap();
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut enc = Encoder::new();
        enc.put_str("épochs and colors");
        enc.put_bytes(&[1, 2, 3]);
        enc.put_bytes(&[]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str().unwrap(), "épochs and colors");
        assert_eq!(dec.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(dec.get_bytes().unwrap(), &[] as &[u8]);
        dec.finish("values").unwrap();
    }

    #[test]
    fn finish_accepts_exhausted_and_counts_trailing_bytes() {
        let mut dec = Decoder::new(&[7, 8, 9]);
        dec.get_u8().unwrap();
        let err = dec.finish("one byte").unwrap_err().to_string();
        assert!(err.contains("2 trailing bytes after one byte"), "{err}");
        dec.get_u16().unwrap();
        dec.finish("all three").unwrap();
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = encode(&7u64);
        let err = Decoder::new(&bytes[..5]).get_u64().unwrap_err();
        assert!(err.detail.contains("truncated"));
    }

    #[test]
    fn invalid_bool_and_option_tags_are_errors() {
        let mut dec = Decoder::new(&[7]);
        assert!(dec.get_bool().is_err());
        let mut dec = Decoder::new(&[9]);
        assert!(Option::<u32>::load(&mut dec).is_err());
    }

    #[test]
    fn hostile_vec_length_does_not_oom() {
        // Claim a huge length with almost no payload behind it.
        let bytes = encode(&(usize::MAX / 2));
        assert!(Vec::<u64>::load(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn vec_reserves_no_more_memory_than_input() {
        // A count equal to the bytes that follow: at most one triple per
        // 24 of them can decode, so reserving a triple per byte would
        // spend 24 bytes of memory per byte of input.
        let mut enc = Encoder::new();
        enc.put_usize(64 << 10);
        let mut input = enc.into_bytes();
        input.resize(8 + (64 << 10), 0);
        let before = crate::test_alloc::allocated_bytes();
        let out = Vec::<(u64, u64, u64)>::load(&mut Decoder::new(&input));
        let spent = crate::test_alloc::allocated_bytes() - before;
        assert!(out.is_err(), "the count overruns the input");
        let bound = 8 * input.len() as u64 + 512;
        assert!(spent <= bound, "{spent} bytes for {}", input.len());
    }

    #[test]
    fn collections_round_trip() {
        let v: Vec<u32> = vec![1, 2, 3, 4];
        let o: Option<String> = Some("hello".to_owned());
        let m: BTreeMap<u32, Vec<u8>> =
            [(1, vec![9, 8]), (2, vec![])].into_iter().collect();
        let mut enc = Encoder::new();
        enc.put(&v);
        enc.put(&o);
        enc.put(&m);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get::<Vec<u32>>().unwrap(), v);
        assert_eq!(dec.get::<Option<String>>().unwrap(), o);
        assert_eq!(dec.get::<BTreeMap<u32, Vec<u8>>>().unwrap(), m);
    }

    #[test]
    fn f64_bulk_round_trip() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let mut enc = Encoder::new();
        enc.put_f64_slice(&xs);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_f64_vec().unwrap(), xs);
    }

    #[test]
    fn u64_bulk_round_trip() {
        let xs: Vec<u64> = (0..257).map(|i| i * 31).collect();
        let mut enc = Encoder::new();
        enc.put_u64_slice(&xs);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u64_vec().unwrap(), xs);
    }

    #[test]
    fn tracked_version_moves_only_with_mutable_access() {
        let mut a = Tracked::new(vec![1u32, 2]);
        let v0 = a.version;
        assert_eq!(a.len(), 2, "Deref reads");
        assert_eq!(a.version, v0, "and keeps the version");
        let b = a.clone();
        assert_eq!(b.version, v0, "a clone holds the same bytes");
        a.push(3);
        assert!(a.version > v0, "DerefMut mints a fresh version");
        assert_eq!(b.version, v0);

        // `mem::swap` moves each version with its value.
        let mut c = Tracked::new(vec![9u32]);
        let (va, vc) = (a.version, c.version);
        assert_ne!(va, vc, "new mints a fresh version");
        std::mem::swap(&mut a, &mut c);
        assert_eq!((a.version, &*a), (vc, &vec![9]));
        assert_eq!((c.version, &*c), (va, &vec![1, 2, 3]));

        // The wire bytes are T's, and `load` mints a fresh version.
        let bytes = encode(&c);
        assert_eq!(bytes, encode(&vec![1u32, 2, 3]));
        let back: Tracked<Vec<u32>> = Decoder::new(&bytes).get().unwrap();
        assert_eq!(back, c);
        assert!(back.version > va);
    }

    fn bytes(len: usize, version: Option<u64>) -> Part {
        Part::Bytes { len, version }
    }

    #[test]
    fn tracked_values_start_parts_and_nest_inline() {
        let inner = Tracked::new(7u32);
        let outer = Tracked::new(vec![inner.clone(), inner.clone()]);
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put(&outer);
        enc.put(&inner);
        enc.put_len_prefixed(|enc| enc.put_u16(5));
        assert_eq!(enc.len(), 1 + (8 + 4 + 4) + 4 + (8 + 2));
        let (buf, parts, _, base) = enc.into_parts();
        assert!(base.is_none());
        assert_eq!(buf.len(), 31);
        // The nested tracked values encode inside the outer part.
        let expect = [
            bytes(1, None),
            bytes(16, Some(outer.version)),
            bytes(4, Some(inner.version)),
            bytes(10, None),
        ];
        assert_eq!(parts, expect);
        assert_eq!(buf[21..29], 2u64.to_le_bytes(), "back-patched length");

        // The decoder spans what the encoder parted, under the versions
        // the decoded values now carry; nested values span nothing.
        let mut dec = Decoder::new(&buf);
        dec.get_u8().unwrap();
        let outer_back: Tracked<Vec<Tracked<u32>>> = dec.get().unwrap();
        let inner_back =
            Tracked::load_with(&mut dec, |dec| dec.get_u32()).unwrap();
        assert!(outer_back == outer && inner_back == inner);
        let span = |t_version, offset, len| TrackedSpan {
            version: t_version,
            offset,
            len,
        };
        let expect = [
            span(outer_back.version, 1, 16),
            span(inner_back.version, 17, 4),
        ];
        assert_eq!(dec.tracked_spans(), expect);
        assert!(outer_back.version > inner.version, "fresh versions");
        // A failed load spans nothing and leaves the decoder usable.
        let mut dec = Decoder::new(&[1, 2]);
        assert!(Tracked::<u32>::load(&mut dec).is_err());
        assert!(dec.tracked_spans().is_empty());
        assert!(Tracked::<u8>::load(&mut dec).is_ok());
        assert_eq!(dec.tracked_spans().len(), 1);
    }

    #[test]
    fn a_version_the_base_holds_encodes_as_a_reference() {
        let mut t = Tracked::new(vec![5u8; 100]);
        let held = crate::manifest::CleanRun {
            len: 108,
            crc: crate::integrity::crc32(
                &[&[100, 0, 0, 0, 0, 0, 0, 0], &t[..]].concat(),
            ),
            chunks: Vec::new(),
            run: None,
        };
        let base = Arc::new(LineRecord {
            clean: [(t.version, Arc::new(held))].into(),
            ..LineRecord::default()
        });
        let encode = |t: &Tracked<Vec<u8>>| {
            let mut enc = Encoder::against(Some(base.clone()));
            enc.put_u8(1);
            enc.put_len_prefixed(|enc| {
                enc.put(t);
                enc.put_u8(2);
            });
            (enc.len(), enc.clean_len(), enc.into_parts())
        };
        let (len, clean, (buf, parts, _, _)) = encode(&t);
        assert_eq!((len, clean, buf.len()), (118, 108, 10));
        assert_eq!(buf[1..9], 109u64.to_le_bytes(), "prefix counts it");
        let version = t.version;
        let expect = [
            bytes(9, None),
            Part::Clean { version, len: 108 },
            bytes(1, None),
        ];
        assert_eq!(parts, expect);
        // One mutable access later the same bytes are a fresh value: a
        // part the writer streams, still with no bytes in the buffer.
        t[0] = 5;
        let (len, clean, (buf, parts, fresh, _)) = encode(&t);
        assert_eq!((len, clean, buf.len(), fresh.len()), (118, 0, 10, 1));
        let version = t.version;
        assert_eq!(parts[1], Part::Fresh { version, len: 108 });
        let (tail, streamed) = fresh[0].stream(&mut |_| 0);
        assert_eq!((streamed, &tail[..8]), (108, &100u64.to_le_bytes()[..]));
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u32,
        b: String,
        c: Vec<f64>,
    }
    impl_saveload_struct!(Sample { a: u32, b: String, c: Vec<f64> });

    #[test]
    fn struct_macro_round_trip() {
        let s = Sample {
            a: 5,
            b: "x".into(),
            c: vec![1.0, -2.0],
        };
        assert_eq!(decode_exact(&encode(&s), "sample"), Ok(s));
    }
}

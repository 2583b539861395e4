//! Wire-level message representation.

use bytes::Bytes;

/// Maximum length of the inline header segment of a [`Message`].
///
/// 16 bytes covers every header the protocol layer above sends (the
/// explicit piggyback triple is 9 bytes, the packed word 4) with room to
/// spare, while keeping the segment small enough to live inline in the
/// frame — no allocation, `memcpy` of at most 16 bytes per send.
pub const MAX_HEADER_LEN: usize = 16;

/// A small inline byte string: the header segment of a two-segment frame.
///
/// The protocol layer above simmpi prepends a control word to every
/// application message. Carrying that word in a separate fixed-size inline
/// segment (instead of a freshly allocated `header ++ payload` buffer)
/// makes the per-message protocol cost O(header), not O(payload): the
/// payload [`Bytes`] travels by refcount, untouched.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeaderBytes {
    len: u8,
    buf: [u8; MAX_HEADER_LEN],
}

impl HeaderBytes {
    /// The empty header segment (plain transport-level messages).
    pub const fn empty() -> Self {
        HeaderBytes {
            len: 0,
            buf: [0; MAX_HEADER_LEN],
        }
    }

    /// Copy `src` into an inline header segment.
    ///
    /// # Panics
    /// If `src` exceeds [`MAX_HEADER_LEN`] bytes — headers are protocol
    /// control words, never application data, so an oversized one is a
    /// programming error in the layer above.
    pub fn new(src: &[u8]) -> Self {
        assert!(
            src.len() <= MAX_HEADER_LEN,
            "header segment of {} bytes exceeds the {MAX_HEADER_LEN}-byte \
             inline limit",
            src.len()
        );
        let mut buf = [0; MAX_HEADER_LEN];
        buf[..src.len()].copy_from_slice(src);
        HeaderBytes {
            len: src.len() as u8,
            buf,
        }
    }

    /// Length of the header segment in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no header segment is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The header bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for HeaderBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for HeaderBytes {
    fn default() -> Self {
        Self::empty()
    }
}

impl std::fmt::Debug for HeaderBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HeaderBytes({:?})", self.as_slice())
    }
}

/// A message in flight between two ranks.
///
/// `context` scopes the message to a communicator (and, for internal
/// collective traffic, to the collective plane of that communicator), so
/// application point-to-point traffic can never match collective internals.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's world rank.
    pub src: usize,
    /// Destination's world rank.
    pub dst: usize,
    /// Communicator context identifier.
    pub context: u32,
    /// Application-visible tag.
    pub tag: i32,
    /// Optional inline header segment. The protocol layer above carries
    /// its piggybacked control word here; plain sends leave it empty. This
    /// crate never inspects either segment.
    pub header: HeaderBytes,
    /// Opaque payload, shipped by refcount end to end.
    pub payload: Bytes,
    /// Per-(src, dst, context) sequence number assigned at send time; used
    /// by the matcher to preserve MPI's non-overtaking guarantee.
    pub seq: u64,
}

/// What a completed receive hands back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvMsg {
    /// World rank of the sender (useful after an `ANY_SOURCE` receive).
    pub src: usize,
    /// Tag of the matched message (useful after an `ANY_TAG` receive).
    pub tag: i32,
    /// The sender's inline header segment (empty for plain sends). The
    /// protocol layer decodes its control word from here without touching
    /// the payload.
    pub header: HeaderBytes,
    /// The payload.
    pub payload: Bytes,
}

impl RecvMsg {
    /// Decode the payload as a typed slice.
    pub fn to_vec<T: crate::datatype::MpiType>(
        &self,
    ) -> crate::error::MpiResult<Vec<T>> {
        T::bytes_to_vec(&self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_bytes_round_trip() {
        let h = HeaderBytes::new(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(h.len(), 9);
        assert_eq!(h.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(!h.is_empty());
        assert!(HeaderBytes::empty().is_empty());
        assert_eq!(HeaderBytes::new(&[]), HeaderBytes::empty());
    }

    #[test]
    fn header_bytes_accepts_the_maximum_length() {
        let h = HeaderBytes::new(&[0xAB; MAX_HEADER_LEN]);
        assert_eq!(h.len(), MAX_HEADER_LEN);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_header_panics() {
        HeaderBytes::new(&[0; MAX_HEADER_LEN + 1]);
    }
}

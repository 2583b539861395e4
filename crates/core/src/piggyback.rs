//! Piggybacked control words (Section 4.2).
//!
//! Every application message carries `⟨epoch, amLogging, messageID⟩` from
//! the sender. Two wire representations are implemented, matching the
//! paper's presentation:
//!
//! * [`PiggybackMode::Explicit`] — the full triple (9 bytes): a 32-bit
//!   epoch, a flags byte, and a 32-bit message id. This is the "simple
//!   implementation".
//! * [`PiggybackMode::Packed`] — the optimized single 32-bit word: bit 31
//!   is the epoch *color*, bit 30 is `amLogging`, and the low 30 bits are
//!   the message id ("it is unlikely that a single process will send more
//!   than a billion messages between checkpoints!").
//!
//! The control word travels in the frame's inline header segment, beside
//! the application payload, which neither side touches.

use ckptstore::codec::CodecError;
use simmpi::HeaderBytes;

use crate::epoch::{Color, Epoch};

/// The sender-side control information piggybacked on one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piggyback {
    /// Sender's epoch at the send call.
    pub epoch: Epoch,
    /// Sender's `amLogging` flag at the send call.
    pub logging: bool,
    /// Per-epoch unique message id at the sender.
    pub message_id: u32,
}

/// Which wire representation a run uses (all ranks must agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PiggybackMode {
    /// Full `⟨epoch, amLogging, messageID⟩` triple; 9 bytes per message.
    Explicit,
    /// Single packed `u32`; 4 bytes per message. The default.
    #[default]
    Packed,
}

impl PiggybackMode {
    /// Header length in bytes for this mode.
    pub fn header_len(self) -> usize {
        match self {
            PiggybackMode::Explicit => 9,
            PiggybackMode::Packed => 4,
        }
    }
}

/// Maximum message id representable in packed mode (30 bits).
pub const PACKED_MAX_MESSAGE_ID: u32 = (1 << 30) - 1;

const PACKED_COLOR_BIT: u32 = 1 << 31;
const PACKED_LOGGING_BIT: u32 = 1 << 30;

impl Piggyback {
    /// The sender's epoch color (all the packed form keeps of the epoch).
    pub fn color(&self) -> Color {
        Color::of(self.epoch)
    }

    /// Pack into the optimized single word. The true epoch number is
    /// reduced to its color; the receiver recovers a full classification
    /// from its own state (see [`crate::epoch::classify_by_color`]). An
    /// id over 30 bits is an error: it would spill into the color and
    /// `amLogging` bits and corrupt every classification the receiver
    /// makes — the failure must be loud, not silent.
    pub fn try_pack(&self) -> Result<u32, CodecError> {
        if self.message_id > PACKED_MAX_MESSAGE_ID {
            return Err(CodecError::new(format!(
                "message id {} exceeds 30 bits; a process sent more than \
                 a billion messages in one epoch",
                self.message_id
            )));
        }
        let mut w = self.message_id;
        if self.color() == Color::Red {
            w |= PACKED_COLOR_BIT;
        }
        if self.logging {
            w |= PACKED_LOGGING_BIT;
        }
        Ok(w)
    }

    /// Encode as an inline header segment for the zero-copy send path:
    /// the control word travels beside the payload in the frame's
    /// fixed-size header slot, so the payload itself is never touched.
    /// Fails in packed mode when the message id exceeds 30 bits.
    pub fn encode_inline(
        &self,
        mode: PiggybackMode,
    ) -> Result<HeaderBytes, CodecError> {
        let mut buf = [0u8; 9];
        match mode {
            PiggybackMode::Explicit => {
                buf[0..4].copy_from_slice(&self.epoch.to_le_bytes());
                buf[4] = self.logging as u8;
                buf[5..9].copy_from_slice(&self.message_id.to_le_bytes());
            }
            PiggybackMode::Packed => {
                buf[0..4].copy_from_slice(&self.try_pack()?.to_le_bytes());
            }
        }
        Ok(HeaderBytes::new(&buf[..mode.header_len()]))
    }
}

/// What the receiver can see in a packed header: color, logging, id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedPiggyback {
    /// Sender's epoch color (bit 31).
    pub color: Color,
    /// Sender's `amLogging` flag (bit 30).
    pub logging: bool,
    /// Per-epoch unique message id (bits 0..30).
    pub message_id: u32,
}

impl PackedPiggyback {
    /// Decode the packed word.
    pub fn unpack(w: u32) -> PackedPiggyback {
        PackedPiggyback {
            color: if w & PACKED_COLOR_BIT != 0 {
                Color::Red
            } else {
                Color::Green
            },
            logging: w & PACKED_LOGGING_BIT != 0,
            message_id: w & PACKED_MAX_MESSAGE_ID,
        }
    }
}

/// A decoded incoming control word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedHeader {
    /// Header decoded from the explicit-triple wire form.
    Explicit(Piggyback),
    /// Header decoded from the packed single-word wire form.
    Packed(PackedPiggyback),
}

impl DecodedHeader {
    /// The piggybacked message id.
    pub fn message_id(&self) -> u32 {
        match self {
            DecodedHeader::Explicit(p) => p.message_id,
            DecodedHeader::Packed(p) => p.message_id,
        }
    }

    /// The piggybacked `amLogging` flag.
    pub fn logging(&self) -> bool {
        match self {
            DecodedHeader::Explicit(p) => p.logging,
            DecodedHeader::Packed(p) => p.logging,
        }
    }

    /// The sender's epoch color.
    pub fn color(&self) -> Color {
        match self {
            DecodedHeader::Explicit(p) => p.color(),
            DecodedHeader::Packed(p) => p.color,
        }
    }
}

/// Decode a frame's inline header segment, which must hold exactly one
/// control word of the given mode.
pub fn decode_header(
    mode: PiggybackMode,
    buf: &[u8],
) -> Result<DecodedHeader, CodecError> {
    let hl = mode.header_len();
    if buf.len() != hl {
        return Err(CodecError::new(format!(
            "header segment is {} bytes but the {mode:?} control word \
             is {hl}",
            buf.len()
        )));
    }
    let header = match mode {
        PiggybackMode::Explicit => {
            let epoch = u32::from_le_bytes(buf[0..4].try_into().unwrap());
            let logging = match buf[4] {
                0 => false,
                1 => true,
                b => {
                    return Err(CodecError::new(format!(
                        "invalid amLogging byte {b}"
                    )))
                }
            };
            let message_id = u32::from_le_bytes(buf[5..9].try_into().unwrap());
            DecodedHeader::Explicit(Piggyback {
                epoch,
                logging,
                message_id,
            })
        }
        PiggybackMode::Packed => {
            let w = u32::from_le_bytes(buf[0..4].try_into().unwrap());
            DecodedHeader::Packed(PackedPiggyback::unpack(w))
        }
    };
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_round_trip() {
        for epoch in [0u32, 1, 2, 7] {
            for logging in [false, true] {
                for id in [0u32, 1, 12345, PACKED_MAX_MESSAGE_ID] {
                    let pb = Piggyback {
                        epoch,
                        logging,
                        message_id: id,
                    };
                    let un = PackedPiggyback::unpack(pb.try_pack().unwrap());
                    assert_eq!(un.color, Color::of(epoch));
                    assert_eq!(un.logging, logging);
                    assert_eq!(un.message_id, id);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 30 bits")]
    fn oversized_message_id_panics() {
        Piggyback {
            epoch: 0,
            logging: false,
            message_id: PACKED_MAX_MESSAGE_ID + 1,
        }
        .try_pack()
        .unwrap();
    }

    #[test]
    fn oversized_message_id_is_a_checked_error() {
        // Every id whose set bits would land in the color/logging bits
        // must be refused rather than silently flipping them.
        for id in [
            PACKED_MAX_MESSAGE_ID + 1,
            PACKED_LOGGING_BIT,
            PACKED_COLOR_BIT,
            PACKED_COLOR_BIT | PACKED_LOGGING_BIT,
            u32::MAX,
        ] {
            let pb = Piggyback {
                epoch: 0,
                logging: false,
                message_id: id,
            };
            assert!(pb.try_pack().is_err(), "id {id:#x} must be rejected");
            assert!(
                pb.encode_inline(PiggybackMode::Packed).is_err(),
                "packed header for id {id:#x} must be rejected"
            );
            // The explicit triple has a full 32-bit id field: no limit.
            let buf = pb.encode_inline(PiggybackMode::Explicit).unwrap();
            let h = decode_header(PiggybackMode::Explicit, &buf).unwrap();
            assert_eq!(h.message_id(), id);
        }
    }

    #[test]
    fn boundary_message_id_packs_exactly() {
        // The largest legal id occupies all 30 low bits; color and
        // logging bits must still round-trip unchanged on top of it.
        for logging in [false, true] {
            for epoch in [0u32, 1] {
                let pb = Piggyback {
                    epoch,
                    logging,
                    message_id: PACKED_MAX_MESSAGE_ID,
                };
                let w = pb.try_pack().unwrap();
                assert_eq!(w & PACKED_MAX_MESSAGE_ID, PACKED_MAX_MESSAGE_ID);
                let un = PackedPiggyback::unpack(w);
                assert_eq!(un.message_id, PACKED_MAX_MESSAGE_ID);
                assert_eq!(un.logging, logging);
                assert_eq!(un.color, Color::of(epoch));
            }
        }
    }

    #[test]
    fn color_flip_round_trip_across_adjacent_epochs() {
        // Taking a checkpoint flips the color; the packed word must carry
        // the flip faithfully for any id, so classification at the
        // receiver flips accordingly.
        for epoch in 0..8u32 {
            for id in [0u32, 1, PACKED_MAX_MESSAGE_ID] {
                let before = Piggyback {
                    epoch,
                    logging: true,
                    message_id: id,
                };
                let after = Piggyback {
                    epoch: epoch + 1,
                    logging: true,
                    message_id: id,
                };
                let w0 = PackedPiggyback::unpack(before.try_pack().unwrap());
                let w1 = PackedPiggyback::unpack(after.try_pack().unwrap());
                assert_ne!(w0.color, w1.color, "adjacent epochs flip color");
                assert_eq!(w0.color, Color::of(epoch));
                assert_eq!(w1.color, Color::of(epoch + 1));
                assert_eq!((w0.message_id, w1.message_id), (id, id));
            }
        }
    }

    #[test]
    fn explicit_header_round_trip() {
        let pb = Piggyback {
            epoch: 3,
            logging: true,
            message_id: 99,
        };
        let buf = pb.encode_inline(PiggybackMode::Explicit).unwrap();
        assert_eq!(buf.len(), 9);
        let h = decode_header(PiggybackMode::Explicit, &buf).unwrap();
        assert_eq!(h, DecodedHeader::Explicit(pb));
    }

    #[test]
    fn packed_header_round_trip() {
        let pb = Piggyback {
            epoch: 1,
            logging: false,
            message_id: 7,
        };
        let buf = pb.encode_inline(PiggybackMode::Packed).unwrap();
        assert_eq!(buf.len(), 4);
        let h = decode_header(PiggybackMode::Packed, &buf).unwrap();
        assert_eq!(h.message_id(), 7);
        assert!(!h.logging());
        assert_eq!(h.color(), Color::Red);
    }

    #[test]
    fn wrong_length_segment_is_an_error() {
        assert!(decode_header(PiggybackMode::Packed, &[]).is_err());
        assert!(decode_header(PiggybackMode::Packed, &[1, 2]).is_err());
        assert!(decode_header(PiggybackMode::Explicit, &[0; 8]).is_err());
        // A packed word followed by payload bytes is the embedded form
        // no sender produces; it must not decode as a control word.
        assert!(decode_header(PiggybackMode::Packed, &[0; 5]).is_err());
    }

    #[test]
    fn header_sizes_match_the_paper() {
        // "the piggybacked information reduces to ... a single integer".
        assert_eq!(PiggybackMode::Packed.header_len(), 4);
        assert_eq!(PiggybackMode::Explicit.header_len(), 9);
    }

    #[test]
    fn packed_mode_classification_agrees_with_explicit() {
        use crate::epoch::{classify_by_color, classify_by_epoch, MsgClass};
        for recv_epoch in 0..5u32 {
            for sender_epoch in recv_epoch.saturating_sub(1)..=(recv_epoch + 1)
            {
                let expected = classify_by_epoch(sender_epoch, recv_epoch);
                let receiver_logging = match expected {
                    MsgClass::Late => true,
                    MsgClass::Early => false,
                    MsgClass::IntraEpoch => continue, // either value works
                };
                let pb = Piggyback {
                    epoch: sender_epoch,
                    logging: false,
                    message_id: 0,
                };
                let un = PackedPiggyback::unpack(pb.try_pack().unwrap());
                assert_eq!(
                    classify_by_color(
                        un.color,
                        Color::of(recv_epoch),
                        receiver_logging
                    ),
                    expected
                );
            }
        }
    }
}

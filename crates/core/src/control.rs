//! Protocol control messages (Section 4.1).
//!
//! Control traffic travels on a dedicated communicator (a `dup` of the
//! world communicator created by the protocol layer at startup), so it can
//! never be confused with application messages — the analogue of the C³
//! layer's private message channel. All control messages use a single tag;
//! the first payload byte discriminates the kind.

use ckptstore::codec::{CodecError, Decoder, Encoder};

use crate::error::{C3Error, C3Result};

/// Tag used for control point-to-point messages on the control
/// communicator.
pub const CONTROL_TAG: i32 = 1;

/// Tag used for the recovery-time suppression-list exchange.
pub const SUPPRESS_TAG: i32 = 2;

/// A protocol control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Initiator → all: take a local checkpoint at your next opportunity
    /// (phase 1).
    PleaseCheckpoint {
        /// The global checkpoint number being created.
        ckpt: u64,
    },
    /// Any → receiver `q`: "I sent you `count` messages in the epoch that
    /// just ended" (sent right after the local checkpoint; Section 4.3).
    MySendCount {
        /// Messages the sender sent to this receiver in the epoch that
        /// just ended at the sender.
        count: u64,
    },
    /// Any → initiator: local checkpoint taken and all late messages
    /// received (phase 2→3).
    ReadyToStopLogging,
    /// Initiator → all: every process has checkpointed; stop logging
    /// (phase 3).
    StopLogging,
    /// Any → initiator: log written to stable storage (phase 4).
    StoppedLogging,
    /// Any → initiator, recovery only: this rank's replay is fully drained
    /// and all its suppressed re-sends have been issued. The initiator does
    /// not start a new global checkpoint until every rank reports this —
    /// otherwise a fresh checkpoint could renumber a not-yet-re-sent early
    /// message and defeat suppression.
    RecoveryComplete,
}

impl ControlMsg {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            ControlMsg::PleaseCheckpoint { ckpt } => {
                enc.put_u8(0);
                enc.put_u64(*ckpt);
            }
            ControlMsg::MySendCount { count } => {
                enc.put_u8(1);
                enc.put_u64(*count);
            }
            ControlMsg::ReadyToStopLogging => enc.put_u8(2),
            ControlMsg::StopLogging => enc.put_u8(3),
            ControlMsg::StoppedLogging => enc.put_u8(4),
            ControlMsg::RecoveryComplete => enc.put_u8(5),
        }
        enc.into_bytes()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> C3Result<ControlMsg> {
        let mut dec = Decoder::new(bytes);
        let parse = |dec: &mut Decoder<'_>| -> Result<ControlMsg, CodecError> {
            let msg = match dec.get_u8()? {
                0 => ControlMsg::PleaseCheckpoint {
                    ckpt: dec.get_u64()?,
                },
                1 => ControlMsg::MySendCount {
                    count: dec.get_u64()?,
                },
                2 => ControlMsg::ReadyToStopLogging,
                3 => ControlMsg::StopLogging,
                4 => ControlMsg::StoppedLogging,
                5 => ControlMsg::RecoveryComplete,
                k => {
                    return Err(CodecError::new(format!(
                        "unknown control message kind {k}"
                    )))
                }
            };
            dec.finish("control message")?;
            Ok(msg)
        };
        parse(&mut dec).map_err(C3Error::Codec)
    }
}

/// Payload of the recovery-time suppression exchange: the early-message ids
/// rank `to` recorded from this sender, shipped back to the sender so its
/// re-sends can be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressList {
    /// The message ids (per-epoch unique at the sender) to suppress.
    pub ids: Vec<u32>,
}

impl SuppressList {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_usize(self.ids.len());
        for &id in &self.ids {
            enc.put_u32(id);
        }
        enc.into_bytes()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> C3Result<SuppressList> {
        let mut dec = Decoder::new(bytes);
        let parse =
            |dec: &mut Decoder<'_>| -> Result<SuppressList, CodecError> {
                let n = dec.get_usize()?;
                let mut ids = Vec::with_capacity(n.min(dec.remaining()));
                for _ in 0..n {
                    ids.push(dec.get_u32()?);
                }
                dec.finish("suppress list")?;
                Ok(SuppressList { ids })
            };
        parse(&mut dec).map_err(C3Error::Codec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_round_trip() {
        let msgs = [
            ControlMsg::PleaseCheckpoint { ckpt: 7 },
            ControlMsg::MySendCount { count: 12345 },
            ControlMsg::ReadyToStopLogging,
            ControlMsg::StopLogging,
            ControlMsg::StoppedLogging,
            ControlMsg::RecoveryComplete,
        ];
        for m in msgs {
            let bytes = m.encode();
            assert_eq!(ControlMsg::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn bad_kind_and_trailing_bytes_are_errors() {
        assert!(ControlMsg::decode(&[99]).is_err());
        let mut bytes = ControlMsg::StopLogging.encode();
        bytes.push(0);
        assert!(ControlMsg::decode(&bytes).is_err());
        assert!(ControlMsg::decode(&[]).is_err());
    }

    #[test]
    fn suppress_list_round_trip() {
        let s = SuppressList {
            ids: vec![0, 5, 17, u32::MAX >> 2],
        };
        assert_eq!(SuppressList::decode(&s.encode()).unwrap(), s);
        let empty = SuppressList { ids: vec![] };
        assert_eq!(SuppressList::decode(&empty.encode()).unwrap(), empty);
    }
}

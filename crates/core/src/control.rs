//! Protocol control messages (Section 4.1).
//!
//! Control traffic travels on a dedicated communicator (a `dup` of the
//! world communicator created by the protocol layer at startup), so it can
//! never be confused with application messages — the analogue of the C³
//! layer's private message channel. All control messages use a single tag;
//! the first payload byte discriminates the kind.

/// Tag used for control point-to-point messages on the control
/// communicator.
pub const CONTROL_TAG: i32 = 1;

/// Tag used for the recovery-time suppression-list exchange.
pub const SUPPRESS_TAG: i32 = 2;

ckptstore::impl_saveload_enum! {
/// A protocol control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Initiator → all: take a local checkpoint at your next opportunity
    /// (phase 1).
    0 => PleaseCheckpoint {
        /// The global checkpoint number being created.
        ckpt: u64,
    },
    /// Any → receiver `q`: "I sent you `count` messages in the epoch that
    /// just ended" (sent right after the local checkpoint; Section 4.3).
    1 => MySendCount {
        /// Messages the sender sent to this receiver in the epoch that
        /// just ended at the sender.
        count: u64,
    },
    /// Any → initiator: local checkpoint taken and all late messages
    /// received (phase 2→3).
    2 => ReadyToStopLogging,
    /// Initiator → all: every process has checkpointed; stop logging
    /// (phase 3).
    3 => StopLogging,
    /// Any → initiator: log written to stable storage (phase 4).
    4 => StoppedLogging,
    /// Any → initiator, recovery only: this rank's replay is fully drained
    /// and all its suppressed re-sends have been issued. The initiator does
    /// not start a new global checkpoint until every rank reports this —
    /// otherwise a fresh checkpoint could renumber a not-yet-re-sent early
    /// message and defeat suppression.
    5 => RecoveryComplete,
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

ckptstore::impl_saveload_struct!(SuppressList { ids: Vec<u32> });

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::codec::{decode_exact, encode, CodecError, SaveLoad};

    fn decode<T: SaveLoad>(bytes: &[u8]) -> Result<T, CodecError> {
        decode_exact(bytes, "control message")
    }

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
            assert_eq!(decode(&encode(&m)), Ok(m));
        }
    }

    #[test]
    fn bad_kind_and_trailing_bytes_are_errors() {
        let err = decode::<ControlMsg>(&[99]).unwrap_err();
        assert_eq!(err.detail, "unknown ControlMsg tag 99");
        assert!(decode::<ControlMsg>(&[3, 0]).is_err());
        assert!(decode::<ControlMsg>(&[]).is_err());
    }

    #[test]
    fn suppress_list_round_trip() {
        for ids in [vec![0, 5, 17, u32::MAX >> 2], vec![]] {
            let s = SuppressList { ids };
            assert_eq!(decode(&encode(&s)), Ok(s));
        }
    }
}

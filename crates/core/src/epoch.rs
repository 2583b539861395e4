//! Epochs, colors, and message classification (Section 2, Definition 1).
//!
//! An *epoch* is the interval between two successive local checkpoints of
//! one process; epoch `n` begins when local checkpoint `n` is taken (the
//! start of the program begins epoch 0). A message is classified by the
//! sender's epoch at the send call and the receiver's epoch at delivery:
//!
//! * **late** — sent in an earlier epoch than received (`e_s < e_r`):
//!   crosses the recovery line backwards; must be logged and replayed.
//! * **intra-epoch** — same epoch on both ends.
//! * **early** — sent in a later epoch than received (`e_s > e_r`): its
//!   receipt is part of the receiver's checkpoint; the re-send must be
//!   suppressed during recovery.
//!
//! Because at most one global checkpoint is in progress at a time, epochs
//! of communicating processes differ by at most one; a single *color* bit
//! (red/green alternating per epoch) plus the receiver's `amLogging` flag
//! suffices to classify (Section 4.2's piggybacking optimization).

/// Epoch number. Equals the number of local checkpoints this process has
/// taken.
pub type Epoch = u32;

/// Alternating epoch color (the one-bit epoch of the optimized piggyback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Even epochs.
    Green,
    /// Odd epochs.
    Red,
}

impl Color {
    /// The color of a given epoch: even = green, odd = red.
    pub fn of(epoch: Epoch) -> Color {
        if epoch.is_multiple_of(2) {
            Color::Green
        } else {
            Color::Red
        }
    }

    /// Encode as the single piggyback bit.
    pub fn bit(self) -> u32 {
        match self {
            Color::Green => 0,
            Color::Red => 1,
        }
    }

    /// Decode from the piggyback bit.
    pub fn from_bit(bit: u32) -> Color {
        if bit & 1 == 0 {
            Color::Green
        } else {
            Color::Red
        }
    }
}

ckptstore::impl_saveload_enum! {
/// Message classification per Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Sent in an earlier epoch than received (logged + replayed).
    1 => Late,
    /// Sent and received in the same epoch.
    0 => IntraEpoch,
    /// Sent in a later epoch than received (recorded + suppressed).
    2 => Early,
}
}

/// Classify from full epoch numbers (the unoptimized protocol).
///
/// # Panics
/// If the epochs differ by more than one — impossible while the "one global
/// checkpoint at a time" invariant holds, so a violation is a protocol bug
/// worth failing loudly on.
pub fn classify_by_epoch(sender: Epoch, receiver: Epoch) -> MsgClass {
    assert!(
        sender.abs_diff(receiver) <= 1,
        "epochs {sender} and {receiver} differ by more than one: protocol \
         invariant broken"
    );
    use std::cmp::Ordering::*;
    match sender.cmp(&receiver) {
        Less => MsgClass::Late,
        Equal => MsgClass::IntraEpoch,
        Greater => MsgClass::Early,
    }
}

/// Classify from the optimized piggyback: the sender's color plus the
/// receiver's color and logging flag (Section 4.2).
///
/// Same color ⇒ same epoch ⇒ intra-epoch. Different color: if the receiver
/// is logging it is still completing the previous epoch's traffic, so the
/// sender must be *behind* (late); if the receiver is not logging, the
/// sender must be *ahead* (early).
pub fn classify_by_color(
    sender: Color,
    receiver: Color,
    receiver_logging: bool,
) -> MsgClass {
    if sender == receiver {
        MsgClass::IntraEpoch
    } else if receiver_logging {
        MsgClass::Late
    } else {
        MsgClass::Early
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colors_alternate() {
        assert_eq!(Color::of(0), Color::Green);
        assert_eq!(Color::of(1), Color::Red);
        assert_eq!(Color::of(2), Color::Green);
        assert_eq!(Color::from_bit(Color::Red.bit()), Color::Red);
        assert_eq!(Color::from_bit(Color::Green.bit()), Color::Green);
    }

    #[test]
    fn definition_1() {
        assert_eq!(classify_by_epoch(1, 2), MsgClass::Late);
        assert_eq!(classify_by_epoch(2, 2), MsgClass::IntraEpoch);
        assert_eq!(classify_by_epoch(2, 1), MsgClass::Early);
    }

    #[test]
    #[should_panic(expected = "differ by more than one")]
    fn wild_epoch_gap_panics() {
        classify_by_epoch(0, 2);
    }

    #[test]
    fn color_classification_matches_epoch_classification() {
        // Enumerate all valid (sender, receiver, logging) configurations
        // under the |Δepoch| ≤ 1 invariant and check equivalence with the
        // full-epoch classifier.
        for recv_epoch in 0..6u32 {
            for sender_epoch in recv_epoch.saturating_sub(1)..=(recv_epoch + 1)
            {
                let by_epoch = classify_by_epoch(sender_epoch, recv_epoch);
                // The receiver can only be logging while it still expects
                // late messages; a sender one epoch ahead (early) implies
                // the receiver has not checkpointed, hence is not logging.
                let valid_logging_states: &[bool] = match by_epoch {
                    MsgClass::Late => &[true],
                    MsgClass::Early => &[false],
                    MsgClass::IntraEpoch => &[true, false],
                };
                for &logging in valid_logging_states {
                    let by_color = classify_by_color(
                        Color::of(sender_epoch),
                        Color::of(recv_epoch),
                        logging,
                    );
                    assert_eq!(
                        by_color, by_epoch,
                        "sender {sender_epoch} receiver {recv_epoch} \
                         logging {logging}"
                    );
                }
            }
        }
    }
}

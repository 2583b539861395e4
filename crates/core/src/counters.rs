//! Per-channel message counters and the `receivedAll?` predicate
//! (Section 4.3, Figure 4).
//!
//! Because application-level delivery is not FIFO, a process cannot use a
//! marker to learn when it has drained the previous epoch's traffic.
//! Instead every process counts messages per channel:
//!
//! * `sendCount[q]` — messages sent to `q` in the current epoch; announced
//!   to `q` in a `mySendCount` control message at the next local
//!   checkpoint.
//! * `currentReceiveCount[q]` / `previousReceiveCount[q]` — two receive
//!   counters per sender, because late messages of epoch `e` interleave
//!   with intra-epoch messages of `e+1`.
//! * `totalSent[q]` — the value announced by `q`'s `mySendCount`, or ⊥.
//!
//! `receivedAll?` holds when every sender's announced total equals the late
//! messages received from it — the point at which `readyToStopLogging` may
//! be sent to the initiator.
//!
//! The communication topology is assumed fully connected (the paper's
//! "simple solution"): every process expects a `mySendCount` from every
//! other process each checkpoint.

use ckptstore::codec::{CodecError, Decoder, Encoder, SaveLoad};

/// Sentinel for ⊥ in `totalSent` (the paper initializes `totalSent[B]` to
/// ⊥ and resets it after `receivedAll?` fires).
const BOTTOM: u64 = u64::MAX;

/// The counter block of Figure 4, for a job of `n` ranks (self included —
/// a process may send messages to itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelCounters {
    send_count: Vec<u64>,
    current_recv: Vec<u64>,
    previous_recv: Vec<u64>,
    total_sent: Vec<u64>,
}

impl ChannelCounters {
    /// Fresh counters (program start / post-recovery reset).
    pub fn new(n: usize) -> Self {
        ChannelCounters {
            send_count: vec![0; n],
            current_recv: vec![0; n],
            previous_recv: vec![0; n],
            total_sent: vec![BOTTOM; n],
        }
    }

    /// Number of ranks covered.
    pub fn size(&self) -> usize {
        self.send_count.len()
    }

    /// Count an outgoing message to `dst` (suppressed re-sends count too:
    /// their receipt is part of the receiver's checkpointed state).
    pub fn on_send(&mut self, dst: usize) {
        self.send_count[dst] += 1;
    }

    /// Count an intra-epoch delivery from `src`.
    pub fn on_intra_epoch_recv(&mut self, src: usize) {
        self.current_recv[src] += 1;
    }

    /// Count a late delivery from `src`.
    pub fn on_late_recv(&mut self, src: usize) {
        self.previous_recv[src] += 1;
    }

    /// Messages sent to `dst` this epoch (the value `mySendCount`
    /// announces).
    pub fn send_count(&self, dst: usize) -> u64 {
        self.send_count[dst]
    }

    /// Record `q`'s announced total (`mySendCount` handler).
    pub fn set_total_sent(&mut self, q: usize, total: u64) {
        assert_ne!(total, BOTTOM, "reserved sentinel");
        self.total_sent[q] = total;
    }

    /// The `receivedAll?` predicate: every sender has announced its total
    /// and the late receive count matches it. When it fires, `totalSent` is
    /// reset to ⊥ for the next cycle (per Figure 4) — hence `&mut self` —
    /// and the caller must send `readyToStopLogging` exactly once.
    pub fn received_all(&mut self) -> bool {
        let done = self
            .total_sent
            .iter()
            .zip(&self.previous_recv)
            .all(|(&t, &r)| t != BOTTOM && t == r);
        if done {
            self.total_sent.fill(BOTTOM);
        }
        done
    }

    /// The local-checkpoint counter rotation of Figure 4's
    /// `potentialCheckpoint`: the current epoch's receive counts become the
    /// previous epoch's (late-message expectations), and the new epoch's
    /// counts start at the number of *early* messages already received from
    /// each sender. Send counts reset for the new epoch.
    pub fn rotate_at_checkpoint(&mut self, early_counts: &[u64]) {
        assert_eq!(early_counts.len(), self.size());
        std::mem::swap(&mut self.previous_recv, &mut self.current_recv);
        self.current_recv.copy_from_slice(early_counts);
        self.send_count.fill(0);
    }

    /// Pending late messages expected from `src` (for diagnostics), or
    /// `None` if `src` has not announced yet.
    pub fn late_deficit(&self, src: usize) -> Option<u64> {
        let t = self.total_sent[src];
        (t != BOTTOM).then(|| t.saturating_sub(self.previous_recv[src]))
    }
}

impl SaveLoad for ChannelCounters {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u64_slice(&self.send_count);
        enc.put_u64_slice(&self.current_recv);
        enc.put_u64_slice(&self.previous_recv);
        enc.put_u64_slice(&self.total_sent);
    }
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let send_count = dec.get_u64_vec()?;
        let current_recv = dec.get_u64_vec()?;
        let previous_recv = dec.get_u64_vec()?;
        let total_sent = dec.get_u64_vec()?;
        let n = send_count.len();
        if current_recv.len() != n
            || previous_recv.len() != n
            || total_sent.len() != n
        {
            return Err(CodecError::new("ragged counter block"));
        }
        Ok(ChannelCounters {
            send_count,
            current_recv,
            previous_recv,
            total_sent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckptstore::codec::{decode_exact, encode};

    #[test]
    fn received_all_requires_every_announcement() {
        let mut c = ChannelCounters::new(3);
        // Two late messages from rank 1, none from 0 and 2.
        c.on_late_recv(1);
        c.on_late_recv(1);
        assert!(!c.received_all(), "no announcements yet");
        c.set_total_sent(1, 2);
        assert!(!c.received_all(), "ranks 0 and 2 have not announced");
        c.set_total_sent(0, 0);
        c.set_total_sent(2, 0);
        assert!(c.received_all());
        // Figure 4 resets totalSent to ⊥ after firing.
        assert!(!c.received_all());
    }

    #[test]
    fn received_all_waits_for_missing_late_messages() {
        let mut c = ChannelCounters::new(2);
        c.set_total_sent(0, 0);
        c.set_total_sent(1, 3);
        c.on_late_recv(1);
        assert!(!c.received_all());
        assert_eq!(c.late_deficit(1), Some(2));
        c.on_late_recv(1);
        c.on_late_recv(1);
        assert!(c.received_all());
    }

    #[test]
    fn rotation_seeds_new_epoch_with_early_counts() {
        let mut c = ChannelCounters::new(2);
        c.on_intra_epoch_recv(0);
        c.on_intra_epoch_recv(0);
        c.on_intra_epoch_recv(1);
        c.on_send(1);
        // Rank 1 delivered one *early* message before our checkpoint.
        c.rotate_at_checkpoint(&[0, 1]);
        // Old current counts became late-expectation baselines.
        c.set_total_sent(0, 2);
        c.set_total_sent(1, 1);
        assert!(c.received_all());
        assert_eq!(c.send_count(1), 0, "send counts reset per epoch");
    }

    #[test]
    fn announcements_arriving_before_checkpoint_are_retained() {
        // A sender may checkpoint (and announce) before we do; the
        // announcement must survive our rotation.
        let mut c = ChannelCounters::new(2);
        c.set_total_sent(1, 0);
        c.on_intra_epoch_recv(1); // wait — this arrived in our old epoch
        c.rotate_at_checkpoint(&[0, 0]);
        // Sender 1 sent 0 in *its* previous epoch... our previous-recv from
        // rotation is 1, totalSent[1]=0: mismatch means NOT all received —
        // protecting against miscounting; then the true announcement lands.
        assert!(!c.received_all());
        c.set_total_sent(1, 1);
        c.set_total_sent(0, 0);
        assert!(c.received_all());
    }

    #[test]
    fn save_load_round_trip() {
        let mut c = ChannelCounters::new(4);
        c.on_send(2);
        c.on_late_recv(1);
        c.on_intra_epoch_recv(3);
        c.set_total_sent(0, 9);
        let back: ChannelCounters =
            decode_exact(&encode(&c), "counters").unwrap();
        assert_eq!(back, c);
    }
}

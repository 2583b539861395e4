//! Transport fabric: one unbounded FIFO channel per destination rank.
//!
//! The paper assumes "a reliable transport layer for delivering application
//! messages" (Section 1.1, citing LA-MPI). Crossbeam channels provide
//! exactly that within a process, by construction: no loss, no
//! duplication, per-sender FIFO. Everything weaker that the protocol must
//! cope with — out-of-order *matching* at the application level — is
//! introduced above this layer, in [`crate::matching`].

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::envelope::Message;
use crate::error::{MpiError, MpiResult};
use crate::world::JobControl;

/// The sending half of the fabric, shared by all ranks.
///
/// Cloning is cheap; each rank holds one.
#[derive(Clone)]
pub struct Fabric {
    senders: Vec<Sender<Message>>,
    control: JobControl,
}

impl Fabric {
    /// Build a fabric for `n` ranks; returns the fabric plus each rank's
    /// receiving endpoint.
    pub fn new(
        n: usize,
        control: JobControl,
    ) -> (Fabric, Vec<Receiver<Message>>) {
        let (senders, receivers) = (0..n).map(|_| unbounded()).unzip();
        (Fabric { senders, control }, receivers)
    }

    /// Number of ranks the fabric connects.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// The job-wide control block (abort flag).
    pub fn control(&self) -> &JobControl {
        &self.control
    }

    /// Deliver `msg` into the destination's mailbox. Infallible unless the
    /// destination is invalid or the job is aborting (in which case the
    /// message is dropped — every rank is about to be rolled back anyway).
    /// The destination is checked first: a nonsense destination is a
    /// program bug and is reported as such even while the job is aborting.
    pub fn send(&self, msg: Message) -> MpiResult<()> {
        let (dst, size) = (msg.dst, self.size());
        if dst >= size {
            return Err(MpiError::InvalidRank { rank: dst, size });
        }
        if self.control.is_aborted() {
            return Err(MpiError::Aborted);
        }
        self.senders[dst]
            .send(msg)
            // The receiver endpoint only drops when its rank thread has
            // exited; under the stopping-failure model messages to a dead
            // rank silently vanish.
            .or(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(src: usize, dst: usize, seq: u64) -> Message {
        Message {
            src,
            dst,
            context: 0,
            tag: 1,
            header: crate::envelope::HeaderBytes::empty(),
            payload: Bytes::from_static(b"x"),
            seq,
        }
    }

    #[test]
    fn per_sender_fifo_order_is_preserved() {
        let control = JobControl::new(2);
        let (fabric, mut rx) = Fabric::new(2, control);
        for seq in 0..100 {
            fabric.send(msg(0, 1, seq)).unwrap();
        }
        let inbox = rx.remove(1);
        for seq in 0..100 {
            assert_eq!(inbox.recv().unwrap().seq, seq);
        }
    }

    #[test]
    fn invalid_destination_is_an_error() {
        let control = JobControl::new(2);
        let (fabric, _rx) = Fabric::new(2, control);
        assert_eq!(
            fabric.send(msg(0, 5, 0)).unwrap_err(),
            MpiError::InvalidRank { rank: 5, size: 2 }
        );
    }

    #[test]
    fn send_to_dead_rank_is_silently_dropped() {
        let control = JobControl::new(2);
        let (fabric, rx) = Fabric::new(2, control);
        drop(rx); // both ranks gone
        fabric.send(msg(0, 1, 0)).unwrap();
    }

    #[test]
    fn abort_poisons_sends() {
        let control = JobControl::new(2);
        let (fabric, _rx) = Fabric::new(2, control.clone());
        control.abort();
        assert_eq!(fabric.send(msg(0, 1, 0)).unwrap_err(), MpiError::Aborted);
    }

    #[test]
    fn send_into_aborting_job_reports_invalid_dst_first() {
        // Regression: the two error paths used to be checked in the
        // opposite order, so an out-of-range destination was masked by
        // `Aborted` during rollback and a program bug went unreported.
        let control = JobControl::new(2);
        let (fabric, _rx) = Fabric::new(2, control.clone());
        control.abort();
        assert_eq!(
            fabric.send(msg(0, 5, 0)).unwrap_err(),
            MpiError::InvalidRank { rank: 5, size: 2 }
        );
        // An in-range destination still reports the abort.
        assert_eq!(fabric.send(msg(0, 1, 0)).unwrap_err(), MpiError::Aborted);
    }
}

//! Deterministic lossy-interconnect simulation with a reliable-delivery
//! sublayer.
//!
//! The paper assumes "a reliable transport layer for delivering
//! application messages" (Section 1.1, citing LA-MPI). The perfect-wire
//! fabric gets that for free from in-process channels; this module makes
//! the assumption *earn its keep* by splitting the fabric into:
//!
//! * a **lossy wire** ([`NetCond`] + the per-link state inside
//!   [`crate::transport::Fabric`]): seeded per-frame drop, duplication,
//!   bounded reorder, delay/jitter, and transient link partitions. Every
//!   fault decision is a pure hash of `(seed, salt, src, dst, wire_seq,
//!   attempt)`, so a wire schedule is reproducible from the seed alone,
//!   independent of thread interleaving;
//! * a **reliable-delivery sublayer** ([`NetEndpoint`], one per rank):
//!   per-(src, dst) wire sequence numbers, cumulative acknowledgements,
//!   retransmission with exponential backoff and a retry budget,
//!   duplicate suppression, and in-order reassembly. It restores exactly
//!   the per-sender FIFO guarantee the layers above were built on —
//!   MPI's pairwise non-overtaking — while the wire underneath does its
//!   worst.
//!
//! With [`NetCond::perfect`] (the default everywhere) the sublayer is
//! not instantiated at all and the fabric keeps its original zero-copy
//! hot path.
//!
//! All time-dependent entry points take an explicit `now: Instant` so
//! tests can drive the state machines on a virtual clock.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crate::envelope::Message;
use crate::error::{MpiError, MpiResult};
use crate::transport::Fabric;

/// Hash salts separating the independent fault decision streams.
const SALT_DROP: u64 = 0xD509;
const SALT_DUP: u64 = 0xD0B1;
const SALT_REORDER: u64 = 0x2E0D;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_JITTER: u64 = 0x717E;
const SALT_ACK_DROP: u64 = 0xACD0;

/// How long a reordered frame may be parked before the wire releases it
/// regardless of subsequent traffic (a liveness backstop; the retransmit
/// timer would recover anyway, this just keeps latency bounded).
const REORDER_PARK: Duration = Duration::from_millis(2);

/// SplitMix64 finalizer: the deterministic mixing primitive behind every
/// wire fault decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Retransmission policy of the reliable-delivery sublayer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Delay before the first retransmission, in microseconds.
    pub base_delay_us: u64,
    /// Cap on the exponentially growing retransmit delay, in microseconds.
    pub max_delay_us: u64,
    /// Maximum transmissions per frame (first send included). Exhausting
    /// the budget surfaces as [`MpiError::NetUnreachable`].
    pub budget: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            base_delay_us: 200,
            max_delay_us: 5_000,
            budget: 32,
        }
    }
}

impl RetransmitPolicy {
    /// Backoff before transmission `attempt + 1`, having already made
    /// `attempt` (≥ 1) transmissions: `base · 2^(attempt-1)`, capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let us = self
            .base_delay_us
            .saturating_mul(1u64 << exp)
            .min(self.max_delay_us);
        Duration::from_micros(us)
    }
}

/// A transient symmetric link partition: frames between ranks `a` and `b`
/// (either direction) are severed while the directed link's frame index
/// lies in `from..until`. Because retransmissions keep advancing the
/// index, a partition always heals — the sublayer's own repair traffic
/// is what ends it, like a real fabric coming back under load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One endpoint rank.
    pub a: usize,
    /// The other endpoint rank.
    pub b: usize,
    /// First severed frame index on each directed link.
    pub from: u64,
    /// First frame index past the partition.
    pub until: u64,
}

impl Partition {
    /// True if the partition severs frame `idx` on the directed link
    /// `src → dst`.
    fn severs(&self, src: usize, dst: usize, idx: u64) -> bool {
        let on_link = (self.a == src && self.b == dst)
            || (self.a == dst && self.b == src);
        on_link && idx >= self.from && idx < self.until
    }
}

/// Seeded network conditions for the lossy wire.
///
/// Probabilities are in parts-per-million so the whole struct is `Eq`
/// and hashable, and every fault decision is an exact integer function
/// of the seed. The default is a perfect wire: no faults, and the
/// reliable-delivery sublayer is bypassed entirely (zero cost).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetCond {
    /// Seed for every fault decision stream.
    pub seed: u64,
    /// Per-frame drop probability, parts per million.
    pub drop_ppm: u32,
    /// Per-frame duplication probability, parts per million.
    pub dup_ppm: u32,
    /// Per-frame probability of being held back (reordered), ppm.
    pub reorder_ppm: u32,
    /// How many later frames may overtake a held-back frame.
    pub reorder_span: u32,
    /// Per-frame probability of an added delivery delay, ppm.
    pub delay_ppm: u32,
    /// Base added delay for delayed frames, microseconds.
    pub delay_us: u64,
    /// Uniform extra jitter on top of `delay_us`, microseconds.
    pub jitter_us: u64,
    /// Transient link partitions.
    pub partitions: Vec<Partition>,
    /// Retransmission policy of the reliability sublayer.
    pub retransmit: RetransmitPolicy,
}

impl NetCond {
    /// A perfect wire: no loss, no duplication, no reorder, no delay.
    /// The fabric detects this and keeps its original direct path.
    pub fn perfect() -> Self {
        Self::default()
    }

    /// A typical hostile-but-survivable wire: 5% drop, 2% duplication,
    /// 10% bounded reorder, 15% delayed frames with jitter.
    pub fn lossy(seed: u64) -> Self {
        NetCond {
            seed,
            drop_ppm: 50_000,
            dup_ppm: 20_000,
            reorder_ppm: 100_000,
            reorder_span: 4,
            delay_ppm: 150_000,
            delay_us: 150,
            jitter_us: 250,
            ..Self::default()
        }
    }

    /// Derive a whole wire profile from a single seed — the fuzzer's
    /// network dimension. Roughly a quarter of seeds keep the perfect
    /// wire; the rest draw every knob independently within survivable
    /// bounds (at or below the [`NetCond::lossy`] scale, so the default
    /// retransmit budget always suffices), and about a quarter of the
    /// lossy profiles add one transient partition between two ranks of
    /// an `nranks`-rank job. Decisions chain through the same SplitMix64
    /// finalizer as the per-frame fault streams, so the profile is a
    /// pure function of `(seed, nranks)`.
    pub fn from_seed(seed: u64, nranks: usize) -> Self {
        assert!(nranks >= 2, "a wire needs at least two endpoints");
        const SALT_PROFILE: u64 = 0x9F0F_11E5;
        let mut h = mix(seed ^ SALT_PROFILE);
        let mut next = |span: u64| -> u64 {
            h = mix(h);
            h % span.max(1)
        };
        if next(4) == 0 {
            return NetCond::perfect();
        }
        let mut cond = NetCond {
            seed,
            drop_ppm: next(60_001) as u32,
            dup_ppm: next(25_001) as u32,
            ..NetCond::default()
        };
        if next(2) == 0 {
            cond.reorder_ppm = next(120_001) as u32;
            cond.reorder_span = 2 + next(4) as u32;
        }
        if next(2) == 0 {
            cond.delay_ppm = next(150_001) as u32;
            cond.delay_us = 50 + next(201);
            cond.jitter_us = next(301);
        }
        if next(4) == 0 {
            let a = next(nranks as u64) as usize;
            let b = (a + 1 + next(nranks as u64 - 1) as usize) % nranks;
            let from = next(64);
            cond = cond.with_partition(a, b, from, from + 1 + next(48));
        }
        cond
    }

    /// True if no wire fault can ever fire (the sublayer is skipped).
    pub fn is_perfect(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.reorder_ppm == 0
            && self.delay_ppm == 0
            && self.partitions.is_empty()
    }

    /// Set the drop probability (parts per million).
    pub fn with_drop_ppm(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm;
        self
    }

    /// Set the duplication probability (parts per million).
    pub fn with_dup_ppm(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Set the reorder probability (ppm) and overtaking span.
    pub fn with_reorder(mut self, ppm: u32, span: u32) -> Self {
        self.reorder_ppm = ppm;
        self.reorder_span = span;
        self
    }

    /// Set the delay probability (ppm), base delay and jitter (µs).
    pub fn with_delay(
        mut self,
        ppm: u32,
        delay_us: u64,
        jitter_us: u64,
    ) -> Self {
        self.delay_ppm = ppm;
        self.delay_us = delay_us;
        self.jitter_us = jitter_us;
        self
    }

    /// Add a transient symmetric partition between ranks `a` and `b`
    /// covering directed-link frame indices `from..until`.
    pub fn with_partition(
        mut self,
        a: usize,
        b: usize,
        from: u64,
        until: u64,
    ) -> Self {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Replace the retransmission policy.
    pub fn with_retransmit(mut self, policy: RetransmitPolicy) -> Self {
        self.retransmit = policy;
        self
    }

    /// Deterministic uniform draw for frame `(src, dst, wire_seq,
    /// attempt)` under `salt`.
    fn draw(
        &self,
        salt: u64,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) -> u64 {
        let mut h = mix(self.seed ^ salt);
        h = mix(h ^ src as u64);
        h = mix(h ^ dst as u64);
        h = mix(h ^ seq);
        mix(h ^ u64::from(attempt))
    }

    /// Deterministic Bernoulli roll with probability `ppm / 1e6`.
    fn roll(
        &self,
        salt: u64,
        ppm: u32,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) -> bool {
        ppm != 0
            && self.draw(salt, src, dst, seq, attempt) % 1_000_000
                < u64::from(ppm)
    }

    /// True if the directed link `src → dst` is severed at frame `idx`.
    fn severed(&self, src: usize, dst: usize, idx: u64) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, idx))
    }
}

/// A frame on the wire.
///
/// The perfect wire carries bare [`Frame::Direct`] messages exactly as
/// the original transport did; the lossy wire carries sequenced
/// [`Frame::Data`] frames plus [`Frame::Ack`] repair traffic.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A message on the perfect wire (no reliability header).
    Direct(Message),
    /// A message under the reliable-delivery sublayer.
    Data {
        /// Per-(src, dst) wire sequence number.
        wire_seq: u64,
        /// Transmission attempt, 1-based (used only to decorrelate the
        /// wire's fault decisions between retransmissions).
        attempt: u32,
        /// The application message.
        msg: Message,
    },
    /// Cumulative acknowledgement: the sending rank `peer` has delivered
    /// every frame with `wire_seq < cum` on the link `dst → peer`.
    Ack {
        /// The acknowledging rank.
        peer: usize,
        /// One past the highest contiguously delivered wire sequence.
        cum: u64,
    },
}

/// Per-sender counters of the lossy wire, attributed to the sending rank
/// of each link (see [`Fabric::wire_stats_for`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames dropped by the loss roll.
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames held back for reordering.
    pub reordered: u64,
    /// Frames held back for delay/jitter.
    pub delayed: u64,
    /// Frames severed by a transient partition.
    pub partition_dropped: u64,
}

impl WireStats {
    /// Accumulate another link's counters into this total.
    pub fn absorb(&mut self, o: &WireStats) {
        self.dropped += o.dropped;
        self.duplicated += o.duplicated;
        self.reordered += o.reordered;
        self.delayed += o.delayed;
        self.partition_dropped += o.partition_dropped;
    }
}

/// A frame parked inside the wire (reordered or delayed).
struct HeldFrame {
    frame: Frame,
    /// Release once the link's frame index passes this (reorder), or …
    release_idx: u64,
    /// … once this deadline passes (delay, and reorder's backstop).
    deadline: Instant,
}

/// Mutable state of one directed link of the lossy wire.
#[derive(Default)]
pub(crate) struct LinkWire {
    /// Frames offered to this link so far (the partition/reorder clock).
    sent: u64,
    held: Vec<HeldFrame>,
    stats: WireStats,
}

impl LinkWire {
    pub(crate) fn new() -> Self {
        Self {
            held: Vec::new(),
            ..Self::default()
        }
    }

    pub(crate) fn stats(&self) -> WireStats {
        self.stats
    }

    /// Push every due held frame into `deliver`.
    fn release_due(&mut self, now: Instant, deliver: &mut impl FnMut(Frame)) {
        let idx = self.sent;
        let mut k = 0;
        while k < self.held.len() {
            let due = self.held[k].release_idx <= idx
                || self.held[k].deadline <= now;
            if due {
                deliver(self.held[k].frame.clone());
                self.held.swap_remove(k);
            } else {
                k += 1;
            }
        }
    }

    /// Offer one frame to the lossy wire; every surviving copy is handed
    /// to `deliver` (possibly zero, one, or two times, possibly later
    /// through [`LinkWire::release_due`]).
    pub(crate) fn transmit(
        &mut self,
        cond: &NetCond,
        src: usize,
        dst: usize,
        frame: Frame,
        now: Instant,
        deliver: &mut impl FnMut(Frame),
    ) {
        let idx = self.sent;
        self.sent += 1;
        self.release_due(now, deliver);

        let (seq, attempt) = match &frame {
            Frame::Data {
                wire_seq, attempt, ..
            } => (*wire_seq, *attempt),
            // Acks are identified by their position on the link; they are
            // only ever dropped, never duplicated or held.
            Frame::Ack { cum, .. } => (*cum ^ idx.rotate_left(17), 0),
            Frame::Direct(_) => unreachable!("direct frames bypass the wire"),
        };

        if cond.severed(src, dst, idx) {
            self.stats.partition_dropped += 1;
            return;
        }
        if let Frame::Ack { .. } = frame {
            if cond.roll(SALT_ACK_DROP, cond.drop_ppm, src, dst, seq, 0) {
                self.stats.dropped += 1;
                return;
            }
            deliver(frame);
            return;
        }
        if cond.roll(SALT_DROP, cond.drop_ppm, src, dst, seq, attempt) {
            self.stats.dropped += 1;
            return;
        }
        let dup = cond.roll(SALT_DUP, cond.dup_ppm, src, dst, seq, attempt);
        if cond.roll(SALT_REORDER, cond.reorder_ppm, src, dst, seq, attempt) {
            self.stats.reordered += 1;
            self.held.push(HeldFrame {
                frame: frame.clone(),
                release_idx: idx + u64::from(cond.reorder_span.max(1)),
                deadline: now + REORDER_PARK,
            });
        } else if cond.roll(SALT_DELAY, cond.delay_ppm, src, dst, seq, attempt)
        {
            let jitter = if cond.jitter_us == 0 {
                0
            } else {
                cond.draw(SALT_JITTER, src, dst, seq, attempt)
                    % (cond.jitter_us + 1)
            };
            self.stats.delayed += 1;
            self.held.push(HeldFrame {
                frame: frame.clone(),
                release_idx: u64::MAX,
                deadline: now + Duration::from_micros(cond.delay_us + jitter),
            });
        } else {
            deliver(frame.clone());
        }
        if dup {
            self.stats.duplicated += 1;
            deliver(frame);
        }
    }

    /// Release due held frames without offering new traffic (the
    /// receiver-side poll).
    pub(crate) fn pump(
        &mut self,
        now: Instant,
        deliver: &mut impl FnMut(Frame),
    ) {
        self.release_due(now, deliver);
    }
}

/// Per-rank statistics of the reliable-delivery sublayer plus the wire
/// faults charged to this rank's outgoing links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data frames retransmitted by this rank.
    pub retransmits: u64,
    /// Duplicate data frames this rank received and discarded.
    pub dup_delivered: u64,
    /// Cumulative acks this rank emitted.
    pub acks_sent: u64,
    /// Wire faults on this rank's outgoing links.
    pub wire: WireStats,
}

struct Unacked {
    wire_seq: u64,
    msg: Message,
    attempts: u32,
    next_due: Instant,
}

#[derive(Default)]
struct TxChan {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
}

#[derive(Default)]
struct RxChan {
    /// Next wire sequence to deliver (= cumulative ack value).
    next_expected: u64,
    /// Frames received ahead of sequence.
    ooo: BTreeMap<u64, Message>,
}

/// The reliable-delivery sublayer endpoint of one rank.
///
/// Sender side: assigns per-(src, dst) wire sequence numbers, buffers
/// unacknowledged frames, retransmits with exponential backoff under a
/// retry budget. Receiver side: deduplicates, reassembles wire order,
/// and emits cumulative acknowledgements. The layer above receives
/// messages in exactly the per-sender order they were sent — the wire's
/// loss, duplication and reordering are fully masked (or surface as
/// [`MpiError::NetUnreachable`] when the budget is exhausted).
pub struct NetEndpoint {
    rank: usize,
    policy: RetransmitPolicy,
    tx: Vec<TxChan>,
    rx: Vec<RxChan>,
    retransmits: u64,
    dup_delivered: u64,
    acks_sent: u64,
    obs: Option<crate::obs::NetObs>,
}

impl NetEndpoint {
    /// Endpoint for `rank` in a job of `n` ranks.
    pub fn new(rank: usize, n: usize, policy: RetransmitPolicy) -> Self {
        NetEndpoint {
            rank,
            policy,
            tx: (0..n).map(|_| TxChan::default()).collect(),
            rx: (0..n).map(|_| RxChan::default()).collect(),
            retransmits: 0,
            dup_delivered: 0,
            acks_sent: 0,
            obs: None,
        }
    }

    /// Attach pre-registered sublayer metric handles.
    pub(crate) fn attach_obs(&mut self, obs: crate::obs::NetObs) {
        self.obs = Some(obs);
    }

    /// Sublayer statistics for this endpoint (wire stats not included;
    /// see [`Fabric::wire_stats_for`]).
    pub fn stats(&self) -> NetStats {
        NetStats {
            retransmits: self.retransmits,
            dup_delivered: self.dup_delivered,
            acks_sent: self.acks_sent,
            wire: WireStats::default(),
        }
    }

    /// True if every data frame this endpoint ever sent has been
    /// cumulatively acknowledged (or written off to a dead peer).
    pub fn all_acked(&self) -> bool {
        self.tx.iter().all(|t| t.unacked.is_empty())
    }

    /// Send `msg` through the sublayer: assign the wire sequence, buffer
    /// for retransmission, and offer the first transmission to the wire.
    pub fn send(
        &mut self,
        fabric: &Fabric,
        msg: Message,
        now: Instant,
    ) -> MpiResult<()> {
        fabric.validate_send(msg.dst)?;
        let dst = msg.dst;
        let control = fabric.control();
        if control.is_done(dst)
            || (control.is_failed(dst) && !control.holds_failed_traffic())
        {
            // Messages to a dead or departed rank silently vanish, as on
            // the perfect wire (stopping-failure model). Under a splice
            // supervisor a failed rank's mailbox outlives it, so traffic
            // is buffered for the incarnation to come instead.
            return Ok(());
        }
        let chan = &mut self.tx[dst];
        let wire_seq = chan.next_seq;
        chan.next_seq += 1;
        chan.unacked.push_back(Unacked {
            wire_seq,
            msg: msg.clone(),
            attempts: 1,
            next_due: now + self.policy.backoff(1),
        });
        fabric.wire_transmit(
            self.rank,
            dst,
            Frame::Data {
                wire_seq,
                attempt: 1,
                msg,
            },
            now,
        );
        Ok(())
    }

    /// Handle one frame from this rank's mailbox. Data frames that
    /// complete a contiguous prefix are returned **in wire order** for
    /// delivery to the matching engine; acks and duplicates return
    /// nothing.
    pub fn on_frame(
        &mut self,
        fabric: &Fabric,
        frame: Frame,
        now: Instant,
    ) -> Vec<Message> {
        match frame {
            Frame::Direct(msg) => vec![msg],
            Frame::Ack { peer, cum } => {
                let chan = &mut self.tx[peer];
                while chan.unacked.front().is_some_and(|u| u.wire_seq < cum) {
                    chan.unacked.pop_front();
                }
                Vec::new()
            }
            Frame::Data { wire_seq, msg, .. } => {
                let src = msg.src;
                let rx = &mut self.rx[src];
                let mut out = Vec::new();
                if wire_seq < rx.next_expected
                    || rx.ooo.contains_key(&wire_seq)
                {
                    // Duplicate: discard, but re-ack — the original ack
                    // may have been lost.
                    self.dup_delivered += 1;
                } else {
                    rx.ooo.insert(wire_seq, msg);
                    while let Some(m) = rx.ooo.remove(&rx.next_expected) {
                        out.push(m);
                        rx.next_expected += 1;
                    }
                }
                let cum = self.rx[src].next_expected;
                self.ack(fabric, src, cum, now);
                out
            }
        }
    }

    fn ack(&mut self, fabric: &Fabric, to: usize, cum: u64, now: Instant) {
        self.acks_sent += 1;
        fabric.wire_transmit(
            self.rank,
            to,
            Frame::Ack {
                peer: self.rank,
                cum,
            },
            now,
        );
    }

    /// Drive the sublayer's timers: release due wire frames destined to
    /// this rank, write off traffic to dead/departed peers, and
    /// retransmit overdue unacknowledged frames. Surfaces
    /// [`MpiError::NetUnreachable`] when a frame exhausts its budget
    /// against a live peer.
    pub fn poll(&mut self, fabric: &Fabric, now: Instant) -> MpiResult<()> {
        fabric.wire_pump_to(self.rank, now);
        let control = fabric.control();
        for (dst, chan) in self.tx.iter_mut().enumerate() {
            if chan.unacked.is_empty() {
                continue;
            }
            if control.is_failed(dst) {
                if control.holds_failed_traffic() {
                    // A supervisor may splice in a new incarnation that
                    // will drain this channel: freeze it — no write-off,
                    // no retransmission, no retry-budget burn — until
                    // the fail-stop flag clears.
                    continue;
                }
                // A dead rank neither receives nor acks; the frames
                // vanish, as on the perfect wire.
                chan.unacked.clear();
                continue;
            }
            if control.is_done(dst) {
                // A departed rank has already delivered everything it
                // was going to.
                chan.unacked.clear();
                continue;
            }
            for u in chan.unacked.iter_mut() {
                if u.next_due > now {
                    continue;
                }
                if u.attempts >= self.policy.budget {
                    return Err(MpiError::NetUnreachable {
                        dst,
                        attempts: u.attempts,
                    });
                }
                u.attempts += 1;
                let backoff = self.policy.backoff(u.attempts);
                u.next_due = now + backoff;
                self.retransmits += 1;
                if let Some(o) = &self.obs {
                    o.retransmits.inc();
                    o.backoff_us.record(backoff.as_micros() as u64);
                }
                fabric.wire_transmit(
                    self.rank,
                    dst,
                    Frame::Data {
                        wire_seq: u.wire_seq,
                        attempt: u.attempts,
                        msg: u.msg.clone(),
                    },
                    now,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::JobControl;
    use bytes::Bytes;

    fn msg(src: usize, dst: usize, tag: i32, uid: u64) -> Message {
        Message {
            src,
            dst,
            context: 0,
            tag,
            header: crate::envelope::HeaderBytes::empty(),
            payload: Bytes::copy_from_slice(&uid.to_le_bytes()),
            seq: uid,
        }
    }

    fn uid_of(m: &Message) -> u64 {
        u64::from_le_bytes(m.payload[..8].try_into().unwrap())
    }

    /// Shuttle frames between two endpoints over a lossy fabric on a
    /// virtual clock until the sender's buffer drains (plus a settling
    /// tail that flushes held frames and straggler duplicates); returns
    /// the messages delivered at rank 1.
    fn shuttle(
        fabric: &Fabric,
        rx: &mut [crossbeam::channel::Receiver<Frame>],
        ep0: &mut NetEndpoint,
        ep1: &mut NetEndpoint,
        start: Instant,
    ) -> Vec<Message> {
        let mut delivered = Vec::new();
        let mut t = 0u64;
        let mut settle = 0u32;
        // 20ms of virtual settling tail covers every possible holdback
        // deadline (reorder park 2ms, delay + jitter well under 1ms).
        while settle < 200 {
            if ep0.all_acked() {
                settle += 1;
            }
            t += 100;
            let now = start + Duration::from_micros(t);
            ep0.poll(fabric, now).unwrap();
            ep1.poll(fabric, now).unwrap();
            while let Ok(f) = rx[1].try_recv() {
                delivered.extend(ep1.on_frame(fabric, f, now));
            }
            while let Ok(f) = rx[0].try_recv() {
                ep0.on_frame(fabric, f, now);
            }
            assert!(t < 60_000_000, "shuttle did not converge");
        }
        delivered
    }

    #[test]
    fn lossy_wire_is_masked_exactly_once_in_order() {
        for seed in 0..16u64 {
            let cond = NetCond::lossy(seed).with_drop_ppm(100_000);
            let control = JobControl::new(2);
            let (fabric, mut rx) =
                Fabric::new_with_net(2, control, cond.clone());
            let mut ep0 = NetEndpoint::new(0, 2, cond.retransmit.clone());
            let mut ep1 = NetEndpoint::new(1, 2, cond.retransmit.clone());
            let start = Instant::now();
            for uid in 0..200u64 {
                ep0.send(&fabric, msg(0, 1, (uid % 3) as i32, uid), start)
                    .unwrap();
            }
            let got = shuttle(&fabric, &mut rx, &mut ep0, &mut ep1, start);
            let uids: Vec<u64> = got.iter().map(uid_of).collect();
            assert_eq!(
                uids,
                (0..200).collect::<Vec<u64>>(),
                "seed {seed}: delivery must be exactly-once and in order"
            );
        }
    }

    #[test]
    fn wire_faults_actually_fire_and_are_seed_deterministic() {
        let cond = NetCond::lossy(7).with_drop_ppm(100_000);
        let run = || {
            let control = JobControl::new(2);
            let (fabric, mut rx) =
                Fabric::new_with_net(2, control, cond.clone());
            let mut ep0 = NetEndpoint::new(0, 2, cond.retransmit.clone());
            let mut ep1 = NetEndpoint::new(1, 2, cond.retransmit.clone());
            let start = Instant::now();
            for uid in 0..300u64 {
                ep0.send(&fabric, msg(0, 1, 0, uid), start).unwrap();
            }
            shuttle(&fabric, &mut rx, &mut ep0, &mut ep1, start);
            (fabric.wire_stats_for(0), ep0.stats(), ep1.stats())
        };
        let (w, s0, s1) = run();
        assert!(w.dropped > 0, "drops must fire: {w:?}");
        assert!(w.duplicated > 0, "dups must fire: {w:?}");
        assert!(w.reordered > 0, "reorders must fire: {w:?}");
        assert!(w.delayed > 0, "delays must fire: {w:?}");
        assert!(s0.retransmits > 0, "retransmits must fire");
        assert!(s1.dup_delivered > 0, "receiver dedup must fire");
        // First-transmission fault decisions are a pure function of the
        // seed; only timing-driven repair traffic may differ between
        // runs, and with a virtual clock even that is identical.
        let (w2, s02, s12) = run();
        assert_eq!(w, w2);
        assert_eq!(s0, s02);
        assert_eq!(s1, s12);
    }

    #[test]
    fn from_seed_is_deterministic_and_bounded() {
        let mut perfect = 0usize;
        let mut partitioned = 0usize;
        for seed in 0..256u64 {
            let a = NetCond::from_seed(seed, 4);
            assert_eq!(a, NetCond::from_seed(seed, 4), "seed {seed}");
            assert!(a.drop_ppm <= 60_000, "seed {seed}: {a:?}");
            assert!(a.dup_ppm <= 25_000);
            assert!(a.reorder_ppm <= 120_000);
            assert!(a.delay_ppm <= 150_000);
            if a.reorder_ppm > 0 {
                assert!((2..=5).contains(&a.reorder_span));
            }
            assert!(a.partitions.len() <= 1);
            for p in &a.partitions {
                assert!(p.a < 4 && p.b < 4 && p.a != p.b);
                assert!(p.until > p.from);
            }
            // Profiles never weaken the default repair policy.
            assert_eq!(a.retransmit, RetransmitPolicy::default());
            perfect += usize::from(a.is_perfect());
            partitioned += usize::from(!a.partitions.is_empty());
        }
        assert!((32..=128).contains(&perfect), "{perfect} perfect wires");
        assert!(partitioned >= 16, "{partitioned} partitioned profiles");
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetransmitPolicy {
            base_delay_us: 100,
            max_delay_us: 1_000,
            budget: 10,
        };
        let us: Vec<u64> =
            (1..=6).map(|a| p.backoff(a).as_micros() as u64).collect();
        assert_eq!(us, vec![100, 200, 400, 800, 1_000, 1_000]);
        // Astronomical attempt counts must not overflow.
        assert_eq!(p.backoff(u32::MAX).as_micros() as u64, 1_000);
    }

    #[test]
    fn dedup_window_reacks_duplicates_without_redelivery() {
        let cond = NetCond::perfect().with_dup_ppm(1); // net enabled, benign
        let control = JobControl::new(2);
        let (fabric, rx) = Fabric::new_with_net(2, control, cond.clone());
        let mut ep1 = NetEndpoint::new(1, 2, RetransmitPolicy::default());
        let now = Instant::now();
        let data = |wire_seq, uid| Frame::Data {
            wire_seq,
            attempt: 1,
            msg: msg(0, 1, 0, uid),
        };
        assert_eq!(ep1.on_frame(&fabric, data(0, 10), now).len(), 1);
        // Exact duplicate of an already-delivered frame: discarded.
        assert!(ep1.on_frame(&fabric, data(0, 10), now).is_empty());
        // Out-of-order arrival: parked, then released in order.
        assert!(ep1.on_frame(&fabric, data(2, 12), now).is_empty());
        // Duplicate of a parked out-of-order frame: also discarded.
        assert!(ep1.on_frame(&fabric, data(2, 12), now).is_empty());
        let released = ep1.on_frame(&fabric, data(1, 11), now);
        assert_eq!(
            released.iter().map(uid_of).collect::<Vec<_>>(),
            vec![11, 12]
        );
        assert_eq!(ep1.stats().dup_delivered, 2);
        // Every data frame triggered a cumulative ack back to rank 0.
        let mut acks = Vec::new();
        while let Ok(f) = rx[0].try_recv() {
            if let Frame::Ack { peer, cum } = f {
                acks.push((peer, cum));
            }
        }
        assert_eq!(acks, vec![(1, 1), (1, 1), (1, 1), (1, 1), (1, 3)]);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_as_net_unreachable() {
        // A permanent partition: every frame 0 → 1 is severed.
        let cond = NetCond::perfect()
            .with_partition(0, 1, 0, u64::MAX)
            .with_retransmit(RetransmitPolicy {
                base_delay_us: 10,
                max_delay_us: 20,
                budget: 4,
            });
        let control = JobControl::new(2);
        let (fabric, _rx) = Fabric::new_with_net(2, control, cond.clone());
        let mut ep0 = NetEndpoint::new(0, 2, cond.retransmit.clone());
        let start = Instant::now();
        ep0.send(&fabric, msg(0, 1, 0, 1), start).unwrap();
        let mut t = 0;
        let err = loop {
            t += 50;
            match ep0.poll(&fabric, start + Duration::from_micros(t)) {
                Ok(()) => assert!(t < 1_000_000, "budget never exhausted"),
                Err(e) => break e,
            }
        };
        assert_eq!(
            err,
            MpiError::NetUnreachable {
                dst: 1,
                attempts: 4
            }
        );
        assert_eq!(fabric.wire_stats_for(0).partition_dropped, 4);
    }

    #[test]
    fn transient_partition_heals_by_frame_count() {
        let cond = NetCond::perfect().with_partition(0, 1, 0, 3);
        let control = JobControl::new(2);
        let (fabric, rx) = Fabric::new_with_net(2, control, cond.clone());
        let mut ep0 = NetEndpoint::new(0, 2, cond.retransmit.clone());
        let mut ep1 = NetEndpoint::new(1, 2, cond.retransmit.clone());
        let start = Instant::now();
        ep0.send(&fabric, msg(0, 1, 0, 42), start).unwrap();
        let mut t = 0u64;
        let mut delivered = Vec::new();
        while delivered.is_empty() {
            t += 500;
            assert!(t < 10_000_000, "partition never healed");
            let now = start + Duration::from_micros(t);
            ep0.poll(&fabric, now).unwrap();
            while let Ok(f) = rx[1].try_recv() {
                delivered.extend(ep1.on_frame(&fabric, f, now));
            }
        }
        assert_eq!(uid_of(&delivered[0]), 42);
        // Retransmissions advanced the link clock past the window.
        assert_eq!(fabric.wire_stats_for(0).partition_dropped, 3);
    }

    #[test]
    fn frames_to_failed_or_done_ranks_are_written_off() {
        let cond = NetCond::perfect().with_partition(0, 1, 0, u64::MAX);
        let control = JobControl::new(3);
        let (fabric, _rx) =
            Fabric::new_with_net(3, control.clone(), cond.clone());
        let mut ep0 = NetEndpoint::new(0, 3, cond.retransmit.clone());
        let start = Instant::now();
        ep0.send(&fabric, msg(0, 1, 0, 1), start).unwrap();
        assert!(!ep0.all_acked());
        control.fail_rank(1);
        ep0.poll(&fabric, start + Duration::from_millis(1)).unwrap();
        assert!(ep0.all_acked(), "frames to a failed rank must vanish");
        // Sends to a departed rank vanish at the source.
        control.mark_done(2);
        ep0.send(&fabric, msg(0, 2, 0, 2), start).unwrap();
        assert!(ep0.all_acked());
    }
}

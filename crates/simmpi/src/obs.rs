//! Observability handles for the message-passing layer.
//!
//! All hot-path metrics are pre-registered handle bundles: attaching a
//! registry ([`crate::Mpi::attach_obs`]) pays the registration cost
//! once, and every subsequent record is a relaxed atomic add. The
//! per-message latency histograms are additionally *sampled* (1 in
//! [`SAMPLE_MASK`]` + 1` operations) so the `Instant::now()` calls
//! they need stay far below the ≤2% overhead budget the Figure-8
//! benchmark enforces; pure counters are always-on because a single
//! atomic add is in the noise.

use c3obs::{Counter, Histogram, Registry, Stopwatch};

/// Sampling mask for latency timing: a stopwatch is started when
/// `tick & SAMPLE_MASK == 0`, i.e. 1 in 16 operations.
pub(crate) const SAMPLE_MASK: u64 = 0xF;

/// Per-rank metric handles of the point-to-point layer.
///
/// The per-message counters are *buffered*: every note is a plain (non-
/// atomic) add into a local field, and the buffered totals flush into
/// the shared atomics on each sampling tick (1 in 16 operations) and on
/// drop. All hot-path sites hold `&mut Mpi`, so this is race-free; the
/// trade-off is that a snapshot taken while a rank is mid-flight can
/// lag by up to 15 messages — totals are exact once ranks finish
/// (every `World::run` joins its rank threads, dropping the bundle).
pub(crate) struct MpiObs {
    /// `mpi_msgs_sent_total{rank}` — messages offered to the fabric.
    msgs_sent: Counter,
    /// `mpi_bytes_sent_total{rank}` — header + payload bytes sent.
    bytes_sent: Counter,
    /// `mpi_msgs_delivered_total{rank}` — messages fed to the
    /// matching engine on this rank.
    msgs_delivered: Counter,
    /// `mpi_send_ns{rank}` — sampled latency of the send fast path.
    pub send_ns: Histogram,
    /// `mpi_recv_wait_ns{rank}` — sampled matching + blocking-wait
    /// latency of receive completion.
    pub recv_wait_ns: Histogram,
    /// `mpi_probes_total{rank}` — iprobe calls.
    probes: Counter,
    tick: u64,
    pend_sent: u64,
    pend_bytes: u64,
    pend_delivered: u64,
    pend_probes: u64,
}

impl MpiObs {
    /// Register this rank's handle bundle.
    pub fn register(reg: &Registry, rank: usize) -> Self {
        let r = rank.to_string();
        let l: &[(&str, &str)] = &[("rank", &r)];
        MpiObs {
            msgs_sent: reg.counter_with("mpi_msgs_sent_total", l),
            bytes_sent: reg.counter_with("mpi_bytes_sent_total", l),
            msgs_delivered: reg.counter_with("mpi_msgs_delivered_total", l),
            send_ns: reg.histogram_with("mpi_send_ns", l),
            recv_wait_ns: reg.histogram_with("mpi_recv_wait_ns", l),
            probes: reg.counter_with("mpi_probes_total", l),
            tick: 0,
            pend_sent: 0,
            pend_bytes: 0,
            pend_delivered: 0,
            pend_probes: 0,
        }
    }

    /// Count one message offered to the fabric (`wire_bytes` = header +
    /// payload) and return the sampled send timer, if this operation
    /// drew the 1-in-16 sample.
    pub fn note_send(&mut self, wire_bytes: u64) -> Option<Stopwatch> {
        self.pend_sent += 1;
        self.pend_bytes += wire_bytes;
        self.sampled_timer()
    }

    /// Count one message handed to the matching engine.
    pub fn note_delivered(&mut self) {
        self.pend_delivered += 1;
    }

    /// Count one iprobe call.
    pub fn note_probe(&mut self) {
        self.pend_probes += 1;
    }

    /// Deterministic 1-in-16 sampling decision for latency timing; the
    /// sampling tick doubles as the buffered-counter flush point.
    pub fn sampled_timer(&mut self) -> Option<Stopwatch> {
        self.tick = self.tick.wrapping_add(1);
        if self.tick & SAMPLE_MASK == 0 {
            self.flush();
            Some(Stopwatch::start())
        } else {
            None
        }
    }

    fn flush(&mut self) {
        if self.pend_sent > 0 {
            self.msgs_sent.add(self.pend_sent);
            self.pend_sent = 0;
        }
        if self.pend_bytes > 0 {
            self.bytes_sent.add(self.pend_bytes);
            self.pend_bytes = 0;
        }
        if self.pend_delivered > 0 {
            self.msgs_delivered.add(self.pend_delivered);
            self.pend_delivered = 0;
        }
        if self.pend_probes > 0 {
            self.probes.add(self.pend_probes);
            self.pend_probes = 0;
        }
    }
}

impl Drop for MpiObs {
    fn drop(&mut self) {
        self.flush();
    }
}

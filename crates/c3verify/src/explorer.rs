//! Bounded exhaustive exploration of message-delivery interleavings,
//! with optional dynamic partial-order reduction.
//!
//! The explorer runs a small deterministic model of the C³ protocol layer
//! — built from the *real* `c3-core` components ([`ChannelCounters`],
//! [`Initiator`], [`ControlMsg`], the epoch classifier) — over every
//! schedule of a short multi-rank program, and feeds each interleaving's
//! trace through [`crate::analyzer::analyze`]. It answers the question a
//! single chaos run cannot: do the protocol invariants hold on *every*
//! delivery order, not just the ones the runtime happened to produce?
//!
//! The model per rank mirrors Figure 4's state (epoch, `amLogging`,
//! per-epoch message ids, channel counters, early-id records) and the
//! paper's control handlers, including the stop-logging-on-intra-epoch
//! rule (Section 4.1, phase 4, condition ii) and the initiator's
//! four-phase commit. Channels are FIFO per (sender, receiver), matching
//! the transport; the scheduler's choice point is *which rank executes
//! its next operation*, which subsumes delivery-order choices because a
//! receive always takes the head of its channel.
//!
//! # Partial-order reduction
//!
//! [`Reduction::Dpor`] enables persistent-set + sleep-set dynamic
//! partial-order reduction (Flanagan–Godefroid, POPL 2005). Two
//! scheduler steps are **dependent** when they cannot be commuted
//! without changing some rank's observations:
//!
//! * steps of the same rank (program order);
//! * steps touching the same application channel (a send and the
//!   receive it feeds, FIFO head vs tail);
//! * any step and a step of rank 0 — every step's control drain may
//!   emit a reactive ack (`readyToStopLogging`, `stoppedLogging`) to
//!   the initiator, and every rank-0 step may broadcast;
//! * a `Ckpt` step and anything — taking a checkpoint broadcasts
//!   `mySendCount` to every rank.
//!
//! The last two clauses are deliberate *static over-approximations* of
//! the dynamic write set: whether a drain actually emits an ack depends
//! on counter state, so using the observed writes would make dependence
//! path-sensitive and unsound. Over-approximation only adds backtrack
//! points, so it is conservative: every Mazurkiewicz trace (equivalence
//! class of schedules under commuting independent steps) still gets at
//! least one representative, and independent steps leave per-rank
//! streams — hence analyzer verdicts — untouched. The explorer's tests
//! assert this directly by comparing canonical trace-signature sets
//! between full and reduced exploration.
//!
//! [`Reduction::Full`] runs the same search with dependence ≡ true,
//! which degenerates to the exhaustive DFS: every schedule, one leaf
//! each.
//!
//! Two deliberate model reductions keep the state space tractable, both
//! sound for the safety invariants being checked:
//!
//! * control messages are drained eagerly before each operation (the
//!   runtime drains them opportunistically at every intercepted call, so
//!   eager delivery is one of its real schedules);
//! * failures are not injected — recovery-path invariants are exercised
//!   by the runtime chaos tests instead; the explorer targets the
//!   checkpoint-coordination concurrency, where interleaving diversity
//!   actually lives.
//!
//! Exploration is exhaustive up to [`ExploreConfig::max_interleavings`];
//! hitting the cap is reported explicitly via
//! [`ExploreOutcome::truncated`], never silently.

use std::collections::{BTreeSet, VecDeque};

use c3_core::control::ControlMsg;
use c3_core::counters::ChannelCounters;
use c3_core::epoch::{classify_by_epoch, MsgClass};
use c3_core::initiator::{Action, Initiator};
use c3_core::trace::{
    control_code, encode_trace, phase_code, TraceEvent, TraceRecord, TraceSink,
};

use crate::analyzer::analyze;
use crate::report::Violation;

/// One operation of a model program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Send one message to `dst` with `tag`.
    Send {
        /// Destination rank.
        dst: usize,
        /// Application tag.
        tag: i32,
    },
    /// Receive one message from `src` (blocks until its channel is
    /// non-empty).
    Recv {
        /// Source rank.
        src: usize,
    },
    /// A `potential_checkpoint` site: honor a pending `pleaseCheckpoint`,
    /// otherwise a no-op.
    Ckpt,
    /// Trigger the initiator (rank 0 only; a no-op if a round is already
    /// in progress).
    Initiate,
}

/// Search strategy for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Enumerate every schedule (dependence ≡ true).
    #[default]
    Full,
    /// Persistent-set + sleep-set dynamic partial-order reduction: one
    /// representative per Mazurkiewicz trace, same verdicts.
    Dpor,
}

/// An exploration setup: one program per rank.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// `programs[r]` is rank `r`'s operation sequence.
    pub programs: Vec<Vec<Op>>,
    /// Hard cap on enumerated interleavings (reported via
    /// [`ExploreOutcome::truncated`] when hit).
    pub max_interleavings: usize,
    /// Search strategy.
    pub reduction: Reduction,
    /// Collect a canonical signature per analyzed interleaving into
    /// [`ExploreOutcome::signatures`] (off by default: it retains every
    /// leaf trace's encoding in memory).
    pub collect_signatures: bool,
}

impl ExploreConfig {
    /// A full-enumeration setup (the historical default).
    pub fn new(programs: Vec<Vec<Op>>, max_interleavings: usize) -> Self {
        ExploreConfig {
            programs,
            max_interleavings,
            reduction: Reduction::Full,
            collect_signatures: false,
        }
    }

    /// Select the search strategy.
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Enable canonical-signature collection.
    pub fn with_signatures(mut self) -> Self {
        self.collect_signatures = true;
        self
    }
}

/// What exploration found.
#[derive(Debug, Clone, Default)]
pub struct ExploreOutcome {
    /// Complete interleavings enumerated and analyzed.
    pub interleavings: usize,
    /// True if [`ExploreConfig::max_interleavings`] cut enumeration short.
    pub truncated: bool,
    /// Interleavings that ended with a rank blocked on a receive.
    pub deadlocks: usize,
    /// Every invariant violation found, across all interleavings.
    pub violations: Vec<Violation>,
    /// The trace of the first complete interleaving (handy for tests and
    /// for seeding mutation checks).
    pub sample_trace: Vec<TraceRecord>,
    /// Scheduler states visited (choice points + leaves).
    pub states_explored: usize,
    /// States cut off without analysis because every enabled rank was in
    /// the sleep set (its subtree is a guaranteed replica of an already
    /// explored one).
    pub states_pruned: usize,
    /// Scheduler transitions executed (tree edges walked).
    pub transitions: usize,
    /// Canonical per-interleaving trace signatures (only populated when
    /// [`ExploreConfig::collect_signatures`] is set). Equal signature
    /// sets mean equal analyzer-visible coverage.
    pub signatures: BTreeSet<Vec<u8>>,
}

impl ExploreOutcome {
    /// True when every enumerated interleaving satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An in-flight application message (header only — the model never needs
/// payloads).
#[derive(Debug, Clone, Copy)]
struct AppMsg {
    epoch: u32,
    logging: bool,
    id: u32,
    tag: i32,
}

/// Figure 4's per-process state, driven by the model scheduler.
struct RankVm {
    tracer: c3_core::trace::RankTracer,
    pc: usize,
    epoch: u32,
    logging: bool,
    next_id: u32,
    counters: ChannelCounters,
    early_ids: Vec<Vec<u32>>,
    late_count: u64,
    ckpt_requested: Option<u64>,
    ready_sent: bool,
}

struct Vm {
    n: usize,
    programs: Vec<Vec<Op>>,
    ranks: Vec<RankVm>,
    /// FIFO application channels, `app[src][dst]`.
    app: Vec<Vec<VecDeque<AppMsg>>>,
    /// FIFO control channels, `ctrl[src][dst]`.
    ctrl: Vec<Vec<VecDeque<ControlMsg>>>,
    ini: Initiator,
    sink: TraceSink,
}

impl Vm {
    fn new(programs: &[Vec<Op>]) -> Vm {
        let n = programs.len();
        let sink = TraceSink::new();
        let ranks = (0..n)
            .map(|r| RankVm {
                tracer: sink.for_rank(r as u32, 1),
                pc: 0,
                epoch: 0,
                logging: false,
                next_id: 0,
                counters: ChannelCounters::new(n),
                early_ids: vec![Vec::new(); n],
                late_count: 0,
                ckpt_requested: None,
                ready_sent: false,
            })
            .collect();
        Vm {
            n,
            programs: programs.to_vec(),
            ranks,
            app: vec![vec![VecDeque::new(); n]; n],
            ctrl: vec![vec![VecDeque::new(); n]; n],
            ini: Initiator::new(n, 1, false),
            sink,
        }
    }

    /// The run's trace: the ranks' streams reach the sink as their
    /// tracers drop.
    fn into_trace(self) -> Vec<TraceRecord> {
        drop(self.ranks);
        self.sink.take()
    }

    fn send_ctrl(&mut self, from: usize, to: usize, cm: ControlMsg) {
        let (kind, arg) = control_code(&cm);
        self.ranks[from].tracer.record(TraceEvent::ControlSent {
            dst: to as u32,
            kind,
            arg,
        });
        self.ctrl[from][to].push_back(cm);
    }

    /// Execute an initiator action on rank 0 (mirrors `Process::perform`).
    fn perform(&mut self, action: Option<Action>) {
        let Some(action) = action else { return };
        match action {
            Action::BroadcastPleaseCheckpoint { ckpt } => {
                self.ranks[0].tracer.record(TraceEvent::InitiatorPhase {
                    phase: phase_code::COLLECTING_READY,
                    ckpt,
                });
                for dst in 0..self.n {
                    self.send_ctrl(
                        0,
                        dst,
                        ControlMsg::PleaseCheckpoint { ckpt },
                    );
                }
            }
            Action::BroadcastStopLogging => {
                let ckpt = self.ini.current_ckpt();
                self.ranks[0].tracer.record(TraceEvent::InitiatorPhase {
                    phase: phase_code::COLLECTING_STOPPED,
                    ckpt,
                });
                for dst in 0..self.n {
                    self.send_ctrl(0, dst, ControlMsg::StopLogging);
                }
            }
            Action::Commit { ckpt } => {
                self.ranks[0].tracer.record(TraceEvent::InitiatorPhase {
                    phase: phase_code::IDLE,
                    ckpt,
                });
                self.ranks[0].tracer.record(TraceEvent::Commit { ckpt });
            }
        }
    }

    /// Pop the next pending control message for `to`, scanning source
    /// channels in rank order (each channel stays FIFO).
    fn next_ctrl(&mut self, to: usize) -> Option<(usize, ControlMsg)> {
        (0..self.n)
            .find_map(|src| self.ctrl[src][to].pop_front().map(|cm| (src, cm)))
    }

    /// Deliver and handle every pending control message for rank `r`
    /// (mirrors `Process::pump` + `handle_control`).
    fn drain_ctrl(&mut self, r: usize) {
        while let Some((src, cm)) = self.next_ctrl(r) {
            let (kind, arg) = control_code(&cm);
            self.ranks[r].tracer.record(TraceEvent::ControlRecv {
                src: src as u32,
                kind,
                arg,
            });
            match cm {
                ControlMsg::PleaseCheckpoint { ckpt } => {
                    if u64::from(self.ranks[r].epoch) < ckpt {
                        self.ranks[r].ckpt_requested = Some(ckpt);
                    }
                }
                ControlMsg::MySendCount { count } => {
                    self.ranks[r].counters.set_total_sent(src, count);
                    if self.ranks[r].logging {
                        self.check_ready(r);
                    }
                }
                ControlMsg::StopLogging => {
                    if self.ranks[r].logging {
                        self.finalize_log(r);
                    }
                }
                ControlMsg::ReadyToStopLogging => {
                    if r == 0 {
                        let action = self.ini.on_ready_to_stop_logging(src);
                        self.perform(action);
                    }
                }
                ControlMsg::StoppedLogging => {
                    if r == 0 {
                        let action = self.ini.on_stopped_logging(src);
                        self.perform(action);
                    }
                }
                ControlMsg::RecoveryComplete => {}
            }
        }
    }

    fn check_ready(&mut self, r: usize) {
        if !self.ranks[r].ready_sent && self.ranks[r].counters.received_all() {
            self.ranks[r].ready_sent = true;
            self.send_ctrl(r, 0, ControlMsg::ReadyToStopLogging);
        }
    }

    fn finalize_log(&mut self, r: usize) {
        let rk = &mut self.ranks[r];
        rk.tracer.record(TraceEvent::LogFinalized {
            ckpt: u64::from(rk.epoch),
            late: rk.late_count,
            nondet: 0,
            collectives: 0,
        });
        rk.logging = false;
        self.send_ctrl(r, 0, ControlMsg::StoppedLogging);
    }

    fn take_checkpoint(&mut self, r: usize, ckpt: u64) {
        let send_counts: Vec<u64> = (0..self.n)
            .map(|d| self.ranks[r].counters.send_count(d))
            .collect();
        let early_counts: Vec<u64> = self.ranks[r]
            .early_ids
            .iter()
            .map(|v| v.len() as u64)
            .collect();
        self.ranks[r].tracer.record(TraceEvent::CheckpointTaken {
            ckpt,
            send_counts: send_counts.clone(),
            early_counts: early_counts.clone(),
        });
        for (dst, &count) in send_counts.iter().enumerate() {
            self.send_ctrl(r, dst, ControlMsg::MySendCount { count });
        }
        let rk = &mut self.ranks[r];
        rk.counters.rotate_at_checkpoint(&early_counts);
        rk.early_ids = vec![Vec::new(); self.n];
        rk.ckpt_requested = None;
        rk.epoch = ckpt as u32;
        rk.logging = true;
        rk.ready_sent = false;
        rk.next_id = 0;
        rk.late_count = 0;
        self.check_ready(r);
    }

    /// True if rank `r` can execute its next operation now.
    fn enabled(&self, r: usize) -> bool {
        match self.programs[r].get(self.ranks[r].pc) {
            None => false,
            Some(Op::Recv { src }) => !self.app[*src][r].is_empty(),
            Some(_) => true,
        }
    }

    fn enabled_ranks(&self) -> Vec<usize> {
        (0..self.n).filter(|&r| self.enabled(r)).collect()
    }

    fn unfinished(&self) -> bool {
        (0..self.n).any(|r| self.ranks[r].pc < self.programs[r].len())
    }

    /// Execute rank `r`'s next operation (the scheduler's step).
    fn step(&mut self, r: usize) {
        self.drain_ctrl(r);
        let op = self.programs[r][self.ranks[r].pc];
        self.ranks[r].pc += 1;
        match op {
            Op::Send { dst, tag } => {
                let rk = &mut self.ranks[r];
                let id = rk.next_id;
                rk.next_id += 1;
                rk.counters.on_send(dst);
                let (epoch, logging) = (rk.epoch, rk.logging);
                rk.tracer.record(TraceEvent::Send {
                    comm: 0,
                    dst: dst as u32,
                    tag,
                    epoch,
                    logging,
                    message_id: id,
                    suppressed: false,
                    payload_len: 8,
                });
                self.app[r][dst].push_back(AppMsg {
                    epoch,
                    logging,
                    id,
                    tag,
                });
            }
            Op::Recv { src } => {
                let m = self.app[src][r]
                    .pop_front()
                    .expect("scheduler stepped a disabled receive");
                let class = classify_by_epoch(m.epoch, self.ranks[r].epoch);
                {
                    let rk = &mut self.ranks[r];
                    rk.tracer.record(TraceEvent::RecvClassified {
                        comm: 0,
                        src: src as u32,
                        tag: m.tag,
                        message_id: m.id,
                        class,
                        sender_logging: m.logging,
                        receiver_epoch: rk.epoch,
                        receiver_logging: rk.logging,
                    });
                }
                match class {
                    MsgClass::IntraEpoch => {
                        // Section 4.1, phase 4, condition ii: an
                        // intra-epoch message from a non-logging sender
                        // means everyone has checkpointed.
                        if self.ranks[r].logging && !m.logging {
                            self.finalize_log(r);
                        }
                        self.ranks[r].counters.on_intra_epoch_recv(src);
                    }
                    MsgClass::Late => {
                        let rk = &mut self.ranks[r];
                        rk.late_count += 1;
                        rk.tracer.record(TraceEvent::LateLogged {
                            src: src as u32,
                            message_id: m.id,
                        });
                        rk.counters.on_late_recv(src);
                        self.check_ready(r);
                    }
                    MsgClass::Early => {
                        let rk = &mut self.ranks[r];
                        rk.early_ids[src].push(m.id);
                        rk.tracer.record(TraceEvent::EarlyRecorded {
                            src: src as u32,
                            message_id: m.id,
                        });
                    }
                }
            }
            Op::Ckpt => {
                if let Some(k) = self.ranks[r].ckpt_requested {
                    if u64::from(self.ranks[r].epoch) < k {
                        self.take_checkpoint(r, k);
                    }
                }
            }
            Op::Initiate => {
                if r == 0 {
                    let action = self.ini.initiate();
                    self.perform(action);
                }
            }
        }
    }

    /// Drain all control traffic to a fixpoint (the post-program
    /// settling the runtime performs while ranks idle at finalize).
    fn quiesce(&mut self) {
        loop {
            let pending = (0..self.n)
                .any(|to| (0..self.n).any(|s| !self.ctrl[s][to].is_empty()));
            if !pending {
                return;
            }
            for r in 0..self.n {
                self.drain_ctrl(r);
            }
        }
    }
}

/// The static may-touch set of one scheduler step, used by the
/// independence relation (see the module docs for the soundness
/// argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footprint {
    rank: usize,
    /// Application channel `(src, dst)` read or written, if any.
    app: Option<(usize, usize)>,
    /// May write control traffic to *every* rank (initiator broadcast
    /// or `mySendCount` announcement). Every step may write to rank 0
    /// regardless (reactive acks), which the relation encodes directly.
    ctrl_all: bool,
}

/// The footprint of rank `r` executing `op`. Static in `(r, op)` — it
/// never depends on protocol state, which is what makes the dependence
/// relation sound to reuse across reordered schedules.
fn footprint(r: usize, op: Op) -> Footprint {
    Footprint {
        rank: r,
        app: match op {
            Op::Send { dst, .. } => Some((r, dst)),
            Op::Recv { src } => Some((src, r)),
            Op::Ckpt | Op::Initiate => None,
        },
        ctrl_all: r == 0 || matches!(op, Op::Ckpt),
    }
}

/// True when the two steps may not commute.
fn conflicting(a: Footprint, b: Footprint) -> bool {
    a.rank == b.rank
        || a.rank == 0
        || b.rank == 0
        || a.ctrl_all
        || b.ctrl_all
        || (a.app.is_some() && a.app == b.app)
}

/// One executed transition on the current DFS path.
struct TrailEntry {
    rank: usize,
    fp: Footprint,
    /// `clock[q]` = 1-based trail index of the latest rank-`q` transition
    /// that happens-before this one (transitively, through dependence).
    clock: Vec<usize>,
}

/// The choice-point bookkeeping for one state on the current DFS path.
struct Frame {
    /// Ranks scheduled (or to be scheduled) from this state.
    backtrack: BTreeSet<usize>,
    /// Ranks whose subtrees are already covered by an explored sibling
    /// (with the footprint they had when they went to sleep).
    sleep: Vec<(usize, Footprint)>,
    /// Ranks enabled at this state (the conservative backtrack target).
    pre_enabled: Vec<usize>,
}

struct Dfs<'a> {
    cfg: &'a ExploreConfig,
    out: ExploreOutcome,
    trail: Vec<TrailEntry>,
    frames: Vec<Frame>,
    stop: bool,
}

impl Dfs<'_> {
    fn dependent(&self, a: Footprint, b: Footprint) -> bool {
        match self.cfg.reduction {
            Reduction::Full => true,
            Reduction::Dpor => conflicting(a, b),
        }
    }

    /// Rebuild the VM state at the current path (programs are tiny, so
    /// re-execution is cheaper than snapshotting the protocol state).
    fn replay(&self) -> Vm {
        let mut vm = Vm::new(&self.cfg.programs);
        for e in &self.trail {
            vm.step(e.rank);
        }
        vm
    }

    /// The next operation rank `p` would execute at the current state.
    fn next_op(&self, p: usize) -> Op {
        let pc = self.trail.iter().filter(|e| e.rank == p).count();
        self.cfg.programs[p][pc]
    }

    /// Flanagan–Godefroid backtrack rule: find the deepest trail entry
    /// dependent with `p`'s next transition and not already ordered
    /// before `p` by happens-before; schedule `p` (or, if `p` was not
    /// enabled there, everything) at that entry's state.
    fn add_backtracks(&mut self, p: usize, fp_p: Footprint) {
        let last_p_clock = self
            .trail
            .iter()
            .rev()
            .find(|e| e.rank == p)
            .map(|e| e.clock.clone());
        for j in (0..self.trail.len()).rev() {
            let (rank_j, fp_j) = (self.trail[j].rank, self.trail[j].fp);
            if rank_j == p || !self.dependent(fp_j, fp_p) {
                continue;
            }
            // Clocks are 1-based trail indices: entry j is index j + 1.
            let hb = last_p_clock.as_ref().is_some_and(|c| c[rank_j] > j);
            if hb {
                continue;
            }
            let frame = &mut self.frames[j];
            if frame.pre_enabled.contains(&p) {
                frame.backtrack.insert(p);
            } else {
                frame.backtrack.extend(frame.pre_enabled.iter().copied());
            }
            return;
        }
    }

    /// Vector clock of `p`'s next transition: join of every dependent
    /// predecessor's clock, then its own (about-to-be) index.
    fn clock_for(&self, p: usize, fp_p: Footprint) -> Vec<usize> {
        let n = self.cfg.programs.len();
        let mut clock = vec![0usize; n];
        for e in &self.trail {
            if self.dependent(e.fp, fp_p) {
                for (c, &ec) in clock.iter_mut().zip(&e.clock) {
                    *c = (*c).max(ec);
                }
            }
        }
        clock[p] = self.trail.len() + 1;
        clock
    }

    fn leaf(&mut self, mut vm: Vm) {
        if self.out.interleavings >= self.cfg.max_interleavings {
            self.out.truncated = true;
            self.stop = true;
            return;
        }
        if vm.unfinished() {
            self.out.deadlocks += 1;
        }
        vm.quiesce();
        self.out.interleavings += 1;
        let trace = vm.into_trace();
        self.out.violations.extend(analyze(&trace).violations);
        if self.cfg.collect_signatures {
            let mut canon = trace.clone();
            canon.sort_by(|a, b| {
                (a.rank, a.attempt, a.seq).cmp(&(b.rank, b.attempt, b.seq))
            });
            self.out.signatures.insert(encode_trace(&canon));
        }
        if self.out.sample_trace.is_empty() {
            self.out.sample_trace = trace;
        }
    }

    fn run(&mut self, sleep: Vec<(usize, Footprint)>) {
        if self.stop {
            return;
        }
        let vm = self.replay();
        self.out.states_explored += 1;
        let enabled = vm.enabled_ranks();
        if enabled.is_empty() {
            self.leaf(vm);
            return;
        }
        let Some(&first) = enabled
            .iter()
            .find(|&&r| !sleep.iter().any(|&(q, _)| q == r))
        else {
            self.out.states_pruned += 1;
            return;
        };
        drop(vm);
        let d = self.frames.len();
        self.frames.push(Frame {
            backtrack: BTreeSet::from([first]),
            sleep,
            pre_enabled: enabled,
        });
        loop {
            if self.stop {
                break;
            }
            let frame = &self.frames[d];
            let Some(p) = frame
                .backtrack
                .iter()
                .copied()
                .find(|&p| !frame.sleep.iter().any(|&(q, _)| q == p))
            else {
                break;
            };
            let fp_p = footprint(p, self.next_op(p));
            self.add_backtracks(p, fp_p);
            let clock = self.clock_for(p, fp_p);
            let child_sleep: Vec<(usize, Footprint)> = self.frames[d]
                .sleep
                .iter()
                .copied()
                .filter(|&(_, fq)| !self.dependent(fq, fp_p))
                .collect();
            self.trail.push(TrailEntry {
                rank: p,
                fp: fp_p,
                clock,
            });
            self.out.transitions += 1;
            self.run(child_sleep);
            self.trail.pop();
            self.frames[d].sleep.push((p, fp_p));
        }
        self.frames.pop();
    }
}

/// Enumerate the configured programs' interleavings (every schedule
/// under [`Reduction::Full`]; one representative per Mazurkiewicz trace
/// under [`Reduction::Dpor`]), analyzing each complete trace.
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    let mut dfs = Dfs {
        cfg,
        out: ExploreOutcome::default(),
        trail: Vec::new(),
        frames: Vec::new(),
        stop: false,
    };
    dfs.run(Vec::new());
    dfs.out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-rank checkpoint round with cross traffic: every interleaving
    /// must satisfy every invariant, and the mix must produce all three
    /// message classes across the schedule space.
    #[test]
    fn two_rank_checkpoint_round_is_invariant_clean() {
        let cfg = ExploreConfig::new(
            vec![
                vec![
                    Op::Initiate,
                    Op::Send { dst: 1, tag: 7 },
                    Op::Ckpt,
                    Op::Send { dst: 1, tag: 7 },
                    Op::Recv { src: 1 },
                    Op::Recv { src: 1 },
                ],
                vec![
                    Op::Send { dst: 0, tag: 9 },
                    Op::Ckpt,
                    Op::Send { dst: 0, tag: 9 },
                    Op::Recv { src: 0 },
                    Op::Recv { src: 0 },
                ],
            ],
            100_000,
        );
        let out = explore(&cfg);
        assert!(!out.truncated, "cap hit at {}", out.interleavings);
        assert_eq!(out.deadlocks, 0);
        assert!(out.interleavings > 50, "only {}", out.interleavings);
        assert!(
            out.violations.is_empty(),
            "violations: {:#?}",
            out.violations
        );
        assert!(out.interleavings + out.states_pruned > 0);
        assert!(out.transitions >= out.interleavings);
    }

    /// Scheduling freedom really does produce different classifications
    /// (late and intra at least; early when a receive precedes the
    /// receiver's checkpoint site).
    #[test]
    fn interleavings_cover_multiple_message_classes() {
        let cfg = ExploreConfig::new(
            vec![
                vec![
                    Op::Initiate,
                    Op::Recv { src: 1 },
                    Op::Ckpt,
                    Op::Recv { src: 1 },
                ],
                vec![
                    Op::Send { dst: 0, tag: 1 },
                    Op::Ckpt,
                    Op::Send { dst: 0, tag: 1 },
                ],
            ],
            100_000,
        );
        let out = explore(&cfg);
        assert!(out.is_clean(), "violations: {:#?}", out.violations);
        // Re-run collecting classes across all interleavings.
        let mut classes = std::collections::BTreeSet::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(path) = stack.pop() {
            let mut vm = Vm::new(&cfg.programs);
            for &r in &path {
                vm.step(r);
            }
            let enabled = vm.enabled_ranks();
            if enabled.is_empty() {
                vm.quiesce();
                for rec in vm.into_trace() {
                    if let TraceEvent::RecvClassified { class, .. } = rec.event
                    {
                        classes.insert(format!("{class:?}"));
                    }
                }
            } else {
                for &r in &enabled {
                    let mut next = path.clone();
                    next.push(r);
                    stack.push(next);
                }
            }
        }
        assert!(
            classes.len() >= 2,
            "schedules produced only {classes:?} — the explorer is not \
             exercising classification diversity"
        );
    }

    /// The cap is reported, never silent.
    #[test]
    fn truncation_is_reported() {
        let cfg = ExploreConfig::new(
            vec![
                vec![Op::Send { dst: 1, tag: 0 }; 4],
                vec![Op::Recv { src: 0 }; 4],
            ],
            3,
        );
        let out = explore(&cfg);
        assert!(out.truncated);
        assert_eq!(out.interleavings, 3);
    }

    /// A receive with no matching send deadlocks that schedule; the
    /// outcome says so.
    #[test]
    fn missing_sender_reports_deadlock() {
        let cfg =
            ExploreConfig::new(vec![vec![Op::Recv { src: 1 }], vec![]], 10);
        let out = explore(&cfg);
        assert_eq!(out.deadlocks, 1);
        assert_eq!(out.interleavings, 1);
    }

    /// A 4-rank ring of worker sends around a checkpoint round: the
    /// workers' steps are pairwise independent, so DPOR must collapse
    /// their relative orders while full enumeration pays for every one.
    fn ring_programs() -> Vec<Vec<Op>> {
        vec![
            vec![Op::Initiate, Op::Ckpt],
            vec![Op::Send { dst: 2, tag: 1 }, Op::Send { dst: 2, tag: 1 }],
            vec![Op::Send { dst: 3, tag: 2 }, Op::Send { dst: 3, tag: 2 }],
            vec![Op::Send { dst: 1, tag: 3 }, Op::Send { dst: 1, tag: 3 }],
        ]
    }

    /// DPOR at 4 ranks: at least 5x fewer interleavings than full
    /// enumeration, with *identical* analyzer-visible coverage — the
    /// canonical signature sets must be equal, not just the verdicts.
    #[test]
    fn dpor_reduces_interleavings_with_equal_coverage() {
        let full = explore(
            &ExploreConfig::new(ring_programs(), 100_000).with_signatures(),
        );
        let dpor = explore(
            &ExploreConfig::new(ring_programs(), 100_000)
                .with_reduction(Reduction::Dpor)
                .with_signatures(),
        );
        assert!(!full.truncated && !dpor.truncated);
        assert!(full.is_clean(), "violations: {:#?}", full.violations);
        assert!(dpor.is_clean(), "violations: {:#?}", dpor.violations);
        assert!(
            full.interleavings >= 5 * dpor.interleavings,
            "reduction too weak: full {} vs dpor {}",
            full.interleavings,
            dpor.interleavings
        );
        assert_eq!(
            full.signatures,
            dpor.signatures,
            "DPOR changed the analyzer-visible coverage (full {} vs dpor \
             {} signatures)",
            full.signatures.len(),
            dpor.signatures.len()
        );
    }

    /// With partial independence *and* real protocol traffic (a
    /// checkpoint round with cross-rank sends), DPOR's verdicts and
    /// signature coverage still match full enumeration exactly.
    #[test]
    fn dpor_matches_full_on_checkpoint_round() {
        let programs = vec![
            vec![Op::Initiate, Op::Ckpt, Op::Recv { src: 1 }],
            vec![Op::Send { dst: 0, tag: 1 }, Op::Ckpt, Op::Recv { src: 2 }],
            vec![Op::Send { dst: 1, tag: 2 }, Op::Ckpt],
        ];
        let full = explore(
            &ExploreConfig::new(programs.clone(), 100_000).with_signatures(),
        );
        let dpor = explore(
            &ExploreConfig::new(programs, 100_000)
                .with_reduction(Reduction::Dpor)
                .with_signatures(),
        );
        assert!(!full.truncated && !dpor.truncated);
        assert_eq!(full.is_clean(), dpor.is_clean());
        assert_eq!(full.deadlocks, dpor.deadlocks);
        assert!(dpor.interleavings <= full.interleavings);
        assert_eq!(full.signatures, dpor.signatures);
    }

    /// Equal state budget, deeper reach: a budget that truncates full
    /// enumeration lets DPOR finish the whole (deeper) schedule space.
    #[test]
    fn dpor_reaches_deeper_at_equal_budget() {
        let budget = 400;
        let full = explore(&ExploreConfig::new(ring_programs(), budget));
        let dpor = explore(
            &ExploreConfig::new(ring_programs(), budget)
                .with_reduction(Reduction::Dpor),
        );
        assert!(
            full.truncated,
            "budget {budget} was meant to truncate full enumeration \
             (got {} interleavings)",
            full.interleavings
        );
        assert!(
            !dpor.truncated,
            "DPOR must finish the space within the same budget (got {})",
            dpor.interleavings
        );
        assert!(dpor.states_pruned > 0 || dpor.interleavings < budget);
    }
}

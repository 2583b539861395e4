//! Per-rank MPI handle: point-to-point operations and request completion.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, TryRecvError};

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::envelope::{HeaderBytes, Message, RecvMsg};
use crate::error::{MpiError, MpiResult};
use crate::matching::{MatchEngine, PostOutcome, RecvId};
use crate::request::{ReqState, Request};
use crate::splice::TapeEntry;
use crate::transport::Fabric;
use crate::world::JobControl;

/// Wildcard source for receives (the `MPI_ANY_SOURCE` analogue).
pub const ANY_SOURCE: usize = usize::MAX;

/// Wildcard tag for receives (the `MPI_ANY_TAG` analogue).
pub const ANY_TAG: i32 = i32::MIN;

/// How long a blocked receive polls its mailbox before it parks (see
/// `Mpi::await_frame`).
const SPIN: Duration = Duration::from_micros(25);

/// Which message plane of a communicator an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    /// Application point-to-point traffic.
    P2p,
    /// Internal collective traffic (invisible to application receives).
    Coll,
}

/// A rank's handle to the message-passing runtime. One per rank thread;
/// every operation takes `&mut self` because the matching engine is
/// single-threaded by design.
pub struct Mpi {
    rank: usize,
    size: usize,
    world: Comm,
    fabric: Fabric,
    inbox: Receiver<Message>,
    engine: MatchEngine,
    /// Receives completed by a drain while their owner was waiting on a
    /// different request.
    completed: HashMap<RecvId, Message>,
    /// Per-destination send sequence numbers (diagnostics / ordering).
    send_seq: Vec<u64>,
    /// Total operations issued through this handle (used by failure
    /// injection layers to trigger deterministic fail-stops).
    ops: u64,
    /// Local hint for the next free communicator context id; new contexts
    /// are agreed collectively as `max(hints) + 0` across participants.
    pub(crate) next_ctx_hint: u32,
    /// Splice bookkeeping; `Some` only under a supervisor that was given
    /// a splice policy, so everywhere else the hot path pays one branch.
    pub(crate) splice: Option<Splice>,
    /// Pre-registered metric handles; `None` until a registry is
    /// attached, which keeps the un-observed hot path at one branch.
    obs: Option<crate::obs::MpiObs>,
    /// The open [`Mpi::with_sideband`] or
    /// [`Mpi::with_answered_sideband`] scope: every internal collective
    /// frame carries its running fold out and folds the sender's in.
    /// `None` (every other time) leaves collective frames unheaded.
    pub(crate) sideband: Option<crate::collective::Sideband>,
}

/// What online rank substitution keeps per handle (see [`crate::splice`]):
/// the tape a successor would replay, the counts it would squelch by, and
/// — on a respawned incarnation — the catch-up state.
pub(crate) struct Splice {
    /// Every message this incarnation consumed, in consumption order,
    /// each with its release point: what a successor replays.
    tape: VecDeque<TapeEntry>,
    /// Operation count at which each engine-resident message was fed,
    /// keyed by `(sender world rank, sender-assigned seq)`;
    /// consumption-time taping reads (and removes) the entry to compute
    /// the release point.
    feed_ops: HashMap<(usize, u64), u64>,
    /// Catch-up replay state of a respawned incarnation; `None` once the
    /// tape is exhausted (or on the original incarnation).
    replay: Option<ReplayState>,
    /// Per-destination frame counts actually transmitted by this
    /// incarnation, keyed by `(context, tag)`. Becomes the successor's
    /// suppression budget if this incarnation dies: within one
    /// `(context, tag)` class the send order is deterministic under
    /// re-execution even when classes interleave differently (control
    /// pumps may consume peers' messages at slightly different points),
    /// so class-wise counting is the finest sound unit of duplicate
    /// suppression.
    class_sent: Vec<HashMap<(u32, i32), u64>>,
    /// Remaining re-executed sends to squelch, per destination and
    /// `(context, tag)` class: the dead incarnation's `class_sent`. The
    /// survivors already hold those frames. Empty on the original
    /// incarnation.
    suppress_budget: Vec<HashMap<(u32, i32), u64>>,
    /// Re-executed sends squelched so far.
    suppressed_sends: u64,
    /// Messages the replay tape held at respawn.
    replayed_frames: u64,
    /// Which incarnation of its rank this handle is (0 = original).
    incarnation: u32,
    /// Set when the replay tape exhausts; consumed once by the layer
    /// above to note the catch-up completion.
    caught_up_pending: bool,
}

impl Splice {
    fn new(size: usize) -> Self {
        Splice {
            tape: VecDeque::new(),
            feed_ops: HashMap::new(),
            replay: None,
            class_sent: vec![HashMap::new(); size],
            suppress_budget: vec![HashMap::new(); size],
            suppressed_sends: 0,
            replayed_frames: 0,
            incarnation: 0,
            caught_up_pending: false,
        }
    }
}

/// Catch-up state of a respawned incarnation: the dead incarnation's
/// consumed-message tape plus live frames held back until the tape is
/// exhausted (they arrived after the death, so the original never saw
/// them; releasing them early would perturb replay determinism).
struct ReplayState {
    tape: VecDeque<TapeEntry>,
    held: VecDeque<Message>,
    /// The dead incarnation's fed-but-unconsumed messages: physically
    /// arrived before the death, never observed by the original, so
    /// they go live together (ahead of the held frames, preserving
    /// per-sender arrival order) once the tape is exhausted.
    undelivered: Vec<Message>,
    /// True while a released tape entry has not yet been consumed.
    /// Entries are released strictly one at a time, in tape order:
    /// consumption order is the only total order the original run
    /// defines, and op counts alone cannot sequence two polls of the
    /// same operation (the original may have consumed a message between
    /// two same-op probes that the op threshold cannot tell apart).
    outstanding: bool,
}

impl Mpi {
    /// A fresh handle; `spliceable` arms the splice bookkeeping (the
    /// runner passes true iff its supervisor has a splice policy).
    pub(crate) fn new(
        rank: usize,
        size: usize,
        fabric: Fabric,
        inbox: Receiver<Message>,
        spliceable: bool,
    ) -> Self {
        Mpi {
            rank,
            size,
            world: crate::world::world_comm(rank, size),
            fabric,
            inbox,
            engine: MatchEngine::new(),
            completed: HashMap::new(),
            send_seq: vec![0; size],
            ops: 0,
            next_ctx_hint: crate::comm::WORLD_CONTEXT + 1,
            splice: spliceable.then(|| Splice::new(size)),
            obs: None,
            sideband: None,
        }
    }

    /// Turn this fail-stopped handle into respawned incarnation
    /// `incarnation` of its rank. The successor inherits the mailbox (the
    /// fabric's channels are single-consumer, so frames queued during the
    /// death window survive only this way), squelches re-executed sends
    /// up to the dead incarnation's per-class transmitted counts, and
    /// replays its consumed-message tape op-faithfully.
    pub(crate) fn respawn(mut self, incarnation: u32) -> Mpi {
        // (The supervisor only respawns spliceable handles; any other
        // would simply have nothing to replay or squelch.)
        let dead =
            self.splice.take().unwrap_or_else(|| Splice::new(self.size));
        // Fed-but-unconsumed traffic: matched-but-unclaimed receives
        // first (RecvId order = per-class match order), then the
        // unexpected queue in arrival order. Within a (src, context,
        // tag) class every matched message arrived before every still
        // unexpected one, so this concatenation preserves the only
        // ordering the matching engine guarantees. The original never
        // observed these, so they are not on the tape and go live only
        // once catch-up ends.
        let mut matched: Vec<(RecvId, Message)> =
            self.completed.drain().collect();
        matched.sort_unstable_by_key(|(id, _)| *id);
        let mut undelivered: Vec<Message> =
            matched.into_iter().map(|(_, m)| m).collect();
        undelivered.extend(self.engine.drain_unexpected());

        let mut next =
            Mpi::new(self.rank, self.size, self.fabric, self.inbox, false);
        let mut splice = Splice::new(next.size);
        splice.incarnation = incarnation;
        splice.suppress_budget = dead.class_sent;
        splice.replayed_frames = dead.tape.len() as u64;
        if dead.tape.is_empty() {
            // Nothing was consumed before death: the incarnation is live
            // from its first operation, and the predecessor's unconsumed
            // traffic is available immediately.
            splice.caught_up_pending = true;
            next.splice = Some(splice);
            for msg in undelivered {
                next.feed(msg);
            }
        } else {
            splice.replay = Some(ReplayState {
                tape: dead.tape,
                held: VecDeque::new(),
                undelivered,
                outstanding: false,
            });
            next.splice = Some(splice);
        }
        next
    }

    /// Attach an observability registry: registers this rank's metric
    /// handle bundle. Metrics record into the registry from this call
    /// on; without it every hook is a single `Option` check.
    pub fn attach_obs(&mut self, reg: &c3obs::Registry) {
        self.obs = Some(crate::obs::MpiObs::register(reg, self.rank));
    }

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// A handle to the world communicator.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// The job control block (abort / fail-stop flags).
    pub fn control(&self) -> &JobControl {
        self.fabric.control()
    }

    /// Number of operations issued so far through this handle.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Check the stopping-failure and abort flags; every operation calls
    /// this first so a failed rank goes silent at its next MPI call.
    fn liveness(&self) -> MpiResult<()> {
        let control = self.fabric.control();
        if control.is_failed(self.rank) {
            return Err(MpiError::FailStop);
        }
        if control.is_aborted() {
            return Err(MpiError::Aborted);
        }
        Ok(())
    }

    /// Hand one message to the matching engine, noting its feed-time
    /// operation count when splice bookkeeping is armed (consumption-time
    /// taping needs it to compute the release point).
    fn feed(&mut self, msg: Message) {
        if let Some(s) = self.splice.as_mut() {
            s.feed_ops.insert((msg.src, msg.seq), self.ops);
        }
        if let Some(o) = self.obs.as_mut() {
            o.note_delivered();
        }
        if let Some((id, msg)) = self.engine.deliver(msg) {
            self.completed.insert(id, msg);
        }
    }

    /// Tape one message at the moment it is handed to the caller. The
    /// recorded release point is `max(feed_op, consume_op - 1)`: never
    /// before the original's physical arrival (so replay visibility
    /// stays within the window the dead incarnation had), and exactly
    /// at the poll that found it (the control pump probes one operation
    /// before its consuming receive). Taping at consumption rather
    /// than at feed keeps polled consumption order-faithful under
    /// replay: a message the original fed but never polled must not be
    /// consumed mid-replay at a point the original never reached.
    fn record_consumed(&mut self, msg: &Message) {
        let Some(s) = self.splice.as_mut() else {
            return;
        };
        let fed = s.feed_ops.remove(&(msg.src, msg.seq)).unwrap_or(self.ops);
        s.tape
            .push_back((fed.max(self.ops.saturating_sub(1)), msg.clone()));
        // During catch-up every consumable message came off the tape
        // (live frames are held, the undelivered messages wait for the
        // end), so this consumption clears the way for the next entry.
        if let Some(rp) = s.replay.as_mut() {
            rp.outstanding = false;
        }
    }

    /// Feed one live message — or, during a respawned incarnation's
    /// catch-up, park it behind the replay tape (it post-dates
    /// everything on it).
    fn accept(&mut self, msg: Message) {
        match self.splice.as_mut().and_then(|s| s.replay.as_mut()) {
            Some(rp) => rp.held.push_back(msg),
            None => self.feed(msg),
        }
    }

    /// Move every message waiting in the mailbox into the matching engine
    /// (or, in catch-up, behind the replay tape, whose next entry is then
    /// released if the current operation count has reached it).
    fn drain(&mut self) {
        while let Ok(msg) = self.inbox.try_recv() {
            self.accept(msg);
        }
        self.replay_step();
    }

    /// One catch-up round: release the head tape entry if its recorded
    /// op count has been reached, and go live once the tape is
    /// exhausted. No-op outside catch-up.
    fn replay_step(&mut self) {
        let Some(mut rp) = self.splice.as_mut().and_then(|s| s.replay.take())
        else {
            return;
        };
        if !rp.outstanding {
            match rp.tape.pop_front() {
                Some((at, msg)) if at <= self.ops => {
                    rp.outstanding = true;
                    self.feed(msg);
                }
                Some(entry) => rp.tape.push_front(entry),
                None => {}
            }
        }
        let caught_up = rp.tape.is_empty();
        if caught_up {
            // Release the predecessor's fed-but-unconsumed messages (they
            // physically arrived before the death), then the held live
            // traffic (it post-dates them, so per-sender FIFO is
            // preserved), and rejoin the ordinary delivery path.
            for msg in rp.undelivered.drain(..).chain(rp.held.drain(..)) {
                self.feed(msg);
            }
        }
        if let Some(s) = self.splice.as_mut() {
            if caught_up {
                s.caught_up_pending = true;
            } else {
                s.replay = Some(rp);
            }
        }
    }

    /// Wait for traffic: accept the next mailbox message, or return after
    /// about a millisecond without one (callers loop, re-reading the
    /// liveness flags). The mailbox is polled for [`SPIN`] before the
    /// thread parks on it: a peer in lock-step answers within
    /// microseconds, and a parked thread's wake-up costs several times
    /// that whenever its core has gone idle meanwhile. The poll yields
    /// rather than pauses: with more ranks than cores the core goes to a
    /// rank that has work, and under a hypervisor a pause loop is itself
    /// descheduled (measured here: 6× slower than parking at once).
    fn await_frame(&mut self) -> MpiResult<()> {
        let spin_until = Instant::now() + SPIN;
        let msg = loop {
            match self.inbox.try_recv() {
                Ok(msg) => break Some(msg),
                Err(TryRecvError::Empty) if Instant::now() < spin_until => {
                    std::thread::yield_now()
                }
                Err(TryRecvError::Empty) => {
                    break self
                        .inbox
                        .recv_timeout(Duration::from_millis(1))
                        .ok()
                }
                // Fabric holds a sender for every rank including
                // ourselves, so this cannot happen while `self` is alive;
                // treat defensively as an abort.
                Err(TryRecvError::Disconnected) => {
                    return Err(MpiError::Aborted)
                }
            }
        };
        if let Some(msg) = msg {
            self.accept(msg);
        }
        Ok(())
    }

    fn resolve_dst(comm: &Comm, dst: usize) -> MpiResult<usize> {
        comm.world_rank(dst)
    }

    fn resolve_src(comm: &Comm, src: usize) -> MpiResult<Option<usize>> {
        if src == ANY_SOURCE {
            Ok(None)
        } else {
            comm.world_rank(src).map(Some)
        }
    }

    fn resolve_tag(tag: i32) -> Option<i32> {
        if tag == ANY_TAG {
            None
        } else {
            Some(tag)
        }
    }

    fn plane_context(comm: &Comm, plane: Plane) -> u32 {
        match plane {
            Plane::P2p => comm.context(),
            Plane::Coll => comm.coll_context(),
        }
    }

    fn recv_msg(comm: &Comm, msg: Message) -> RecvMsg {
        // Translate the sender's world rank into the communicator's frame;
        // a message can only arrive here through this communicator's
        // context, so the sender is always a member.
        let src = comm
            .comm_rank_of_world(msg.src)
            .expect("sender must be a communicator member");
        RecvMsg {
            src,
            tag: msg.tag,
            header: msg.header,
            payload: msg.payload,
        }
    }

    // ------------------------------------------------------------------
    // Internal (plane-aware) operations; collectives use the Coll plane.
    // ------------------------------------------------------------------

    pub(crate) fn send_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.send_segments_on(
            comm,
            plane,
            dst,
            tag,
            HeaderBytes::empty(),
            payload,
        )
    }

    pub(crate) fn send_segments_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        dst: usize,
        tag: i32,
        header: HeaderBytes,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.liveness()?;
        self.ops += 1;
        let dst_world = Self::resolve_dst(comm, dst)?;
        let context = Self::plane_context(comm, plane);
        let seq = self.send_seq[dst_world];
        self.send_seq[dst_world] += 1;
        if let Some(s) = self.splice.as_mut() {
            let class = (context, tag);
            if let Some(budget) = s.suppress_budget[dst_world]
                .get_mut(&class)
                .filter(|b| **b > 0)
            {
                // Re-executed send of a respawned incarnation: the dead
                // incarnation already transmitted this class's next
                // frame, so the destination holds the original. Spend
                // the class budget and squelch the duplicate. Budgets
                // are per (destination, context, tag) rather than a flat
                // per-destination frame count: replay may interleave
                // control and application traffic differently than the
                // original run did, and a flat count would then spend
                // suppression slots on the wrong frames and let
                // duplicates through.
                *budget -= 1;
                s.suppressed_sends += 1;
                return Ok(());
            }
            *s.class_sent[dst_world].entry(class).or_insert(0) += 1;
        }
        let timer = self
            .obs
            .as_mut()
            .and_then(|o| o.note_send((header.len() + payload.len()) as u64));
        let msg = Message {
            src: self.rank,
            dst: dst_world,
            context,
            tag,
            header,
            payload,
            seq,
        };
        let res = self.fabric.send(msg);
        if let (Some(o), Some(t)) = (&self.obs, timer) {
            o.send_ns.record(t.elapsed_ns());
        }
        res
    }

    pub(crate) fn irecv_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        src: usize,
        tag: i32,
    ) -> MpiResult<Request> {
        self.liveness()?;
        self.ops += 1;
        let src_world = Self::resolve_src(comm, src)?;
        let tag = Self::resolve_tag(tag);
        self.drain();
        let context = Self::plane_context(comm, plane);
        match self.engine.post(src_world, context, tag) {
            PostOutcome::Matched(msg) => {
                self.record_consumed(&msg);
                Ok(Request::recv_ready(self.rank, Self::recv_msg(comm, msg)))
            }
            PostOutcome::Pending(id) => {
                Ok(Request::recv_pending(self.rank, id))
            }
        }
    }

    pub(crate) fn recv_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        src: usize,
        tag: i32,
    ) -> MpiResult<RecvMsg> {
        let mut req = self.irecv_on(comm, plane, src, tag)?;
        self.wait_recv_in(comm, &mut req)
    }

    fn wait_recv_in(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<RecvMsg> {
        match self.wait_in(comm, req)? {
            Some(msg) => Ok(msg),
            None => Err(MpiError::BadRequest(
                "wait_recv called on a send request".into(),
            )),
        }
    }

    fn wait_in(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<Option<RecvMsg>> {
        if req.owner != self.rank {
            return Err(MpiError::BadRequest(format!(
                "request owned by rank {} waited on by rank {}",
                req.owner, self.rank
            )));
        }
        // Sampled matching + blocking-wait latency; armed once so the
        // retry loop below does not re-roll the sampling decision.
        let timer = self
            .obs
            .as_mut()
            .and_then(crate::obs::MpiObs::sampled_timer);
        loop {
            match std::mem::replace(&mut req.state, ReqState::Consumed) {
                ReqState::SendDone => return Ok(None),
                ReqState::RecvReady(msg) => return Ok(Some(msg)),
                ReqState::Consumed => {
                    return Err(MpiError::BadRequest(
                        "request waited on twice".into(),
                    ))
                }
                ReqState::RecvPending(id) => {
                    if let Some(msg) = self.completed.remove(&id) {
                        self.record_consumed(&msg);
                        if let (Some(o), Some(t)) = (&self.obs, timer) {
                            o.recv_wait_ns.record(t.elapsed_ns());
                        }
                        return Ok(Some(Self::recv_msg(comm, msg)));
                    }
                    // Not complete: restore state and block for traffic.
                    req.state = ReqState::RecvPending(id);
                    self.liveness()?;
                    // A respawned incarnation's completion may come off
                    // the replay tape, which only the drain path releases.
                    self.drain();
                    if self.completed.contains_key(&id) {
                        continue;
                    }
                    self.await_frame()?;
                    self.drain();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Public point-to-point API (application plane).
    // ------------------------------------------------------------------

    /// Blocking send of a byte payload to `dst` (a communicator rank).
    ///
    /// Sends buffer in the transport and complete immediately, like a
    /// buffered-mode MPI send on a machine with ample memory.
    pub fn send(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: &[u8],
    ) -> MpiResult<()> {
        self.send_on(
            comm,
            Plane::P2p,
            dst,
            tag,
            Bytes::copy_from_slice(payload),
        )
    }

    /// Blocking send of an owned payload (zero-copy).
    pub fn send_bytes(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.send_on(comm, Plane::P2p, dst, tag, payload)
    }

    /// Blocking vectored send: a small inline header segment plus an
    /// owned payload, shipped as one two-segment frame. Neither segment
    /// is copied into a combined buffer; the receiver sees them as
    /// [`RecvMsg::header`] and [`RecvMsg::payload`]. This is the
    /// protocol layer's O(header)-cost send primitive.
    pub fn send_parts(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        header: HeaderBytes,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.send_segments_on(comm, Plane::P2p, dst, tag, header, payload)
    }

    /// Blocking typed send.
    pub fn send_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        data: &[T],
    ) -> MpiResult<()> {
        self.send_bytes(comm, dst, tag, T::slice_to_bytes(data).into())
    }

    /// Non-blocking send; complete with [`Mpi::wait`].
    pub fn isend(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: &[u8],
    ) -> MpiResult<Request> {
        self.send_on(
            comm,
            Plane::P2p,
            dst,
            tag,
            Bytes::copy_from_slice(payload),
        )?;
        Ok(Request::send_done(self.rank))
    }

    /// Non-blocking receive; complete with [`Mpi::wait`] or
    /// [`Mpi::wait_recv`]. `src` may be [`ANY_SOURCE`], `tag` may be
    /// [`ANY_TAG`].
    pub fn irecv(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Request> {
        self.irecv_on(comm, Plane::P2p, src, tag)
    }

    /// Blocking receive.
    pub fn recv(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<RecvMsg> {
        self.recv_on(comm, Plane::P2p, src, tag)
    }

    /// Blocking typed receive.
    pub fn recv_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Vec<T>> {
        self.recv(comm, src, tag)?.to_vec()
    }

    /// Complete a request. Returns `Some` message for receives, `None` for
    /// sends. The request must belong to `comm`'s rank frame (i.e. have
    /// been created through operations on `comm`).
    pub fn wait(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<Option<RecvMsg>> {
        self.wait_in(comm, req)
    }

    /// Complete a receive request, erroring on send requests.
    pub fn wait_recv(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<RecvMsg> {
        self.wait_recv_in(comm, req)
    }

    /// Non-blocking completion check. After `test` returns `true`, `wait`
    /// will not block.
    pub fn test(&mut self, req: &mut Request) -> MpiResult<bool> {
        if req.owner != self.rank {
            return Err(MpiError::BadRequest(
                "request tested by a different rank".into(),
            ));
        }
        self.liveness()?;
        self.drain();
        match &req.state {
            ReqState::SendDone | ReqState::RecvReady(_) => Ok(true),
            ReqState::Consumed => Err(MpiError::BadRequest(
                "request tested after completion".into(),
            )),
            ReqState::RecvPending(id) => Ok(self.completed.contains_key(id)),
        }
    }

    /// Complete all requests, in order. Returns one entry per request.
    pub fn waitall(
        &mut self,
        comm: &Comm,
        reqs: &mut [Request],
    ) -> MpiResult<Vec<Option<RecvMsg>>> {
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs.iter_mut() {
            out.push(self.wait_in(comm, req)?);
        }
        Ok(out)
    }

    /// Complete any one not-yet-consumed request; returns its index and
    /// result. Errors if every request is already consumed.
    pub fn waitany(
        &mut self,
        comm: &Comm,
        reqs: &mut [Request],
    ) -> MpiResult<(usize, Option<RecvMsg>)> {
        loop {
            self.liveness()?;
            self.drain();
            let mut any_live = false;
            for (i, req) in reqs.iter_mut().enumerate() {
                match &req.state {
                    ReqState::Consumed => continue,
                    ReqState::SendDone | ReqState::RecvReady(_) => {
                        let r = self.wait_in(comm, req)?;
                        return Ok((i, r));
                    }
                    ReqState::RecvPending(id) => {
                        any_live = true;
                        if self.completed.contains_key(id) {
                            let r = self.wait_in(comm, req)?;
                            return Ok((i, r));
                        }
                    }
                }
            }
            if !any_live {
                return Err(MpiError::BadRequest(
                    "waitany with no live requests".into(),
                ));
            }
            self.await_frame()?;
        }
    }

    /// Abandon a pending receive request (the `MPI_Cancel` analogue).
    pub fn cancel(&mut self, req: &mut Request) -> MpiResult<()> {
        if req.owner != self.rank {
            return Err(MpiError::BadRequest(
                "request cancelled by a different rank".into(),
            ));
        }
        if let ReqState::RecvPending(id) =
            std::mem::replace(&mut req.state, ReqState::Consumed)
        {
            if !self.engine.cancel(id) {
                // Discarded without reaching the caller: not taped (the
                // re-execution cancels identically), but drop the
                // feed-op bookkeeping.
                if let (Some(m), Some(s)) =
                    (self.completed.remove(&id), self.splice.as_mut())
                {
                    s.feed_ops.remove(&(m.src, m.seq));
                }
            }
        }
        Ok(())
    }

    /// Combined send + receive (the `MPI_Sendrecv` analogue); deadlock-free
    /// for neighbor exchanges because the receive is posted first.
    pub fn sendrecv(
        &mut self,
        comm: &Comm,
        dst: usize,
        send_tag: i32,
        payload: &[u8],
        src: usize,
        recv_tag: i32,
    ) -> MpiResult<RecvMsg> {
        let mut req = self.irecv(comm, src, recv_tag)?;
        self.send(comm, dst, send_tag, payload)?;
        self.wait_recv(comm, &mut req)
    }

    /// Non-destructive check for a matching unexpected message; returns
    /// `(comm_src, tag, total_len)` where `total_len` counts the header
    /// segment plus the payload.
    pub fn iprobe(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Option<(usize, i32, usize)>> {
        self.liveness()?;
        if let Some(o) = self.obs.as_mut() {
            o.note_probe();
        }
        self.drain();
        let src_world = Self::resolve_src(comm, src)?;
        let tag = Self::resolve_tag(tag);
        Ok(self.engine.probe(src_world, comm.context(), tag).map(|m| {
            let s = comm
                .comm_rank_of_world(m.src)
                .expect("sender must be a member");
            (s, m.tag, m.header.len() + m.payload.len())
        }))
    }

    // ------------------------------------------------------------------
    // Splice introspection (online rank substitution).
    // ------------------------------------------------------------------

    /// Which incarnation of its rank this handle is: 0 for an ordinary
    /// rank, `k` for the `k`-th respawn spliced in by a supervised run.
    pub fn incarnation(&self) -> u32 {
        self.splice.as_ref().map_or(0, |s| s.incarnation)
    }

    /// Messages the replay tape held when this incarnation was respawned
    /// (0 on ordinary incarnations).
    pub fn replayed_frames(&self) -> u64 {
        self.splice.as_ref().map_or(0, |s| s.replayed_frames)
    }

    /// Re-executed sends squelched below the death-time sequence
    /// high-water so far.
    pub fn suppressed_sends(&self) -> u64 {
        self.splice.as_ref().map_or(0, |s| s.suppressed_sends)
    }

    /// One-shot catch-up completion signal: returns true exactly once,
    /// when the replay tape has been exhausted and the incarnation has
    /// gone live on the real fabric. The protocol layer uses this to
    /// trace the splice completion.
    pub fn take_caught_up(&mut self) -> bool {
        self.splice
            .as_mut()
            .is_some_and(|s| std::mem::take(&mut s.caught_up_pending))
    }
}

//! Happens-before reconstruction and protocol-race detection.
//!
//! The analyzer in [`crate::analyzer`] checks *state* invariants: it
//! replays each rank's stream and joins streams through message
//! identities. This module checks *ordering* invariants: it rebuilds the
//! partial order the execution actually established — program order plus
//! every synchronization the protocol performed — as vector clocks over
//! the recorded [`TraceEvent`]s, and then demands that conflicting event
//! pairs are ordered by it. A conflicting pair left unordered is a
//! **protocol race**: two decisions whose outcome depends on a delivery
//! or scheduling order the protocol never constrained. The PPoPP 2003
//! protocol's safety argument is exactly a set of such ordering claims
//! (every late message of an epoch precedes its commit; every staged
//! blob precedes the drain barrier that covers it; …), so each claim
//! becomes an R-invariant here.
//!
//! The event model follows the vector-clock treatment of MPI executions
//! in the transparent-checkpointing literature (arXiv:2212.05701,
//! arXiv:2408.02218): per-rank streams are totally ordered by `seq`;
//! cross-rank edges come from
//!
//! * **application messages** — a non-suppressed [`TraceEvent::Send`]
//!   happens-before the [`TraceEvent::RecvClassified`] it pairs with
//!   (same identity join as the analyzer's I2 pass);
//! * **control messages** — [`TraceEvent::ControlSent`] happens-before
//!   the matching [`TraceEvent::ControlRecv`], matched FIFO per
//!   (sender, receiver) channel on `(kind, arg)` (the transport's
//!   reliable sublayer guarantees per-channel FIFO delivery);
//! * **suppression lists** — [`TraceEvent::SuppressSent`] happens-before
//!   the matching [`TraceEvent::SuppressRecv`];
//! * **collectives** — the k-th world-communicator
//!   [`TraceEvent::CollectiveControl`] or
//!   [`TraceEvent::CollectiveUninformed`] of every rank belongs to one
//!   global call. Every informed participant leaves with the fold of
//!   every participant's word at entry, whether it rode on the data
//!   collective, in the root's answer or on a preceding exchange, so the
//!   informed records form a synchronization clique: each one
//!   happens-after every participant's preceding event, the uninformed
//!   contributors' included. An uninformed contributor left as soon as
//!   its frame was sent: its record happens-after nothing but its own
//!   stream. (Alignment mirrors the analyzer's I7 join — from the front
//!   on fresh attempts, from the back on recovered ones.)
//!
//! Vector clocks are computed by a Kahn pass over this graph; an
//! unprocessable residue means the recorded "order" is cyclic, which no
//! execution can produce, and is reported as **R0**.
//!
//! Attempts are independent (a restart begins from stable storage, and
//! in-flight traffic does not cross the failure), so each attempt gets
//! its own graph.
//!
//! Under localized recovery a spliced rank appears several times per
//! attempt, once per incarnation, and the graph models the *physical*
//! history:
//!
//! * every incarnation's stream enters the graph, and a rank's chains
//!   are concatenated in incarnation order — a respawn starts strictly
//!   after its predecessor's death, so the concatenation is itself
//!   program order;
//! * only wire-transmitted sends source message edges: a respawned
//!   incarnation's re-executed sends were squelched by the splice layer
//!   until the dead incarnation's per-(destination, comm, tag) budgets
//!   (per-destination for control messages) were spent, so survivors
//!   paired their receives with the *superseded* incarnation's copies;
//! * receives are matched per (rank, incarnation) against fresh pools:
//!   a respawned incarnation re-consumes, via the replay tape, messages
//!   the superseded incarnation already consumed, and both consumptions
//!   causally follow the same original send;
//! * catch-up re-enactments — events in a respawned stream before its
//!   [`TraceEvent::SpliceReplayed`] marker — are exempt from the R1/R2
//!   anchors: the corresponding physical deliveries and finalizations
//!   happened in the superseded incarnation (where they are checked),
//!   while the re-execution touches neither the wire nor stable storage.
//!
//! Collective cliques are still aligned over effective streams only; a
//! spliced rank's replayed collectives re-emit the control exchange, so
//! front-alignment pairs the k-th entries across ranks as before.

use std::collections::{BTreeMap, HashMap, VecDeque};

use c3_core::trace::{phase_code, TraceEvent, TraceRecord};

use crate::report::{Report, Violation};

/// Race-invariant identifiers used in [`Violation::invariant`].
pub mod race {
    /// The recorded order is cyclic — structurally impossible.
    pub const R0: &str = "R0-causal-cycle";
    /// A late delivery of epoch e is unordered with (or after) commit e.
    pub const R1: &str = "R1-commit-vs-late";
    /// A rank's log finalization is unordered with its epoch's commit.
    pub const R2: &str = "R2-finalize-before-commit";
    /// A staged blob is unordered with the drain barrier covering it.
    pub const R3: &str = "R3-stage-before-drain";
    /// A local checkpoint is unordered with the initiator round that
    /// requested it (and no barrier alignment forced it).
    pub const R4: &str = "R4-checkpoint-vs-request";
    /// A GC sweep is unordered with a blob write it could collect.
    pub const R5: &str = "R5-gc-vs-stage";
    /// A suppressed re-send is unordered with the suppression list that
    /// authorized it.
    pub const R6: &str = "R6-suppress-vs-resend";
}

/// One event in the happens-before graph.
struct Node<'a> {
    rank: u32,
    /// Which incarnation of the rank produced the event (0 = original).
    inc: u32,
    seq: u64,
    event: &'a TraceEvent,
    /// Incoming cross-rank edges (node indices); program order is
    /// implicit between stream neighbors.
    preds: Vec<usize>,
    /// Vector clock after this event (index = rank). `None` until the
    /// Kahn pass reaches the node; stays `None` on a cycle.
    clock: Option<Vec<u64>>,
}

/// The happens-before graph of one attempt, with computed vector clocks.
pub struct HbGraph<'a> {
    attempt: u64,
    nranks: usize,
    nodes: Vec<Node<'a>>,
    /// Indices of nodes left clockless by a causal cycle.
    cyclic: Vec<usize>,
    /// Per node: true if it lies in a respawned incarnation's catch-up
    /// region (before the stream's `SpliceReplayed` marker).
    catch_up: Vec<bool>,
}

impl<'a> HbGraph<'a> {
    /// True if node `a` happens-before node `b` (strictly).
    fn before(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        match (&self.nodes[a].clock, &self.nodes[b].clock) {
            (Some(ca), Some(cb)) => {
                let r = self.nodes[a].rank as usize;
                ca[r] <= cb[r] && ca != cb
            }
            // Nodes on a cycle have no clock; order is undefined, and R0
            // already reports the cycle itself.
            _ => false,
        }
    }

    /// Number of events in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph holds no events.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The vector clock of event `idx` (post-event), if acyclic.
    pub fn clock(&self, idx: usize) -> Option<&[u64]> {
        self.nodes[idx].clock.as_deref()
    }

    /// Width of the vector clocks (world size the graph was built for).
    pub fn ranks(&self) -> usize {
        self.nranks
    }
}

/// Key identifying an application message for send/recv pairing.
type MsgKey = (u32, u32, u64, u32, u32); // (src, dst, comm, epoch, id)

/// Pending control sends per (sender, receiver) channel: FIFO queues of
/// (kind, arg, node index).
type CtrlQueues = HashMap<(u32, u32), VecDeque<(u8, u64, usize)>>;

/// Build the happens-before graph for one attempt's records (already
/// grouped rank -> incarnation and sorted by `seq`).
fn build_graph<'a>(
    attempt: u64,
    nranks: usize,
    ranks: &crate::analyzer::IncStreams<'a>,
) -> HbGraph<'a> {
    let mut nodes: Vec<Node<'a>> = Vec::new();
    // Per-rank node index chains: every incarnation's stream, in
    // incarnation order. A respawn starts strictly after its
    // predecessor's death, so the concatenation is program order.
    let mut by_rank: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (&rank, incs) in ranks {
        let ids = by_rank.entry(rank).or_default();
        for (&inc, stream) in incs {
            for rec in stream {
                ids.push(nodes.len());
                nodes.push(Node {
                    rank,
                    inc,
                    seq: rec.seq,
                    event: &rec.event,
                    preds: Vec::new(),
                    clock: None,
                });
            }
        }
    }
    let max_inc: BTreeMap<u32, u32> = ranks
        .iter()
        .map(|(&r, incs)| (r, incs.keys().next_back().copied().unwrap_or(0)))
        .collect();

    // Which sends actually reached the wire. A respawned incarnation's
    // re-executed sends are squelched by the splice layer until the dead
    // incarnation's per-(destination, comm, tag) transmitted-frame
    // budgets (per-destination for control messages) are spent — mirror
    // that accounting so survivors' receives pair with the copies they
    // physically hold.
    let mut transmitted: Vec<bool> = vec![true; nodes.len()];
    {
        let mut app_budget: HashMap<(u32, u32, u64, i32), u64> =
            HashMap::new();
        let mut ctrl_budget: HashMap<(u32, u32), u64> = HashMap::new();
        for n in nodes.iter() {
            if n.inc < max_inc[&n.rank] {
                match n.event {
                    TraceEvent::Send {
                        dst,
                        comm,
                        tag,
                        suppressed: false,
                        ..
                    } => {
                        *app_budget
                            .entry((n.rank, *dst, *comm, *tag))
                            .or_default() += 1;
                    }
                    TraceEvent::ControlSent { dst, .. } => {
                        *ctrl_budget.entry((n.rank, *dst)).or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        let mut app_spent: HashMap<(u32, u32, u64, i32), u64> = HashMap::new();
        let mut ctrl_spent: HashMap<(u32, u32), u64> = HashMap::new();
        for ids in by_rank.values() {
            for &i in ids {
                let n = &nodes[i];
                match n.event {
                    TraceEvent::Send {
                        suppressed: true, ..
                    } => transmitted[i] = false,
                    TraceEvent::Send { dst, comm, tag, .. } if n.inc > 0 => {
                        let k = (n.rank, *dst, *comm, *tag);
                        let budget = app_budget.get(&k).copied().unwrap_or(0);
                        let spent = app_spent.entry(k).or_default();
                        if *spent < budget {
                            *spent += 1;
                            transmitted[i] = false;
                        }
                    }
                    TraceEvent::ControlSent { dst, .. } if n.inc > 0 => {
                        let k = (n.rank, *dst);
                        let budget = ctrl_budget.get(&k).copied().unwrap_or(0);
                        let spent = ctrl_spent.entry(k).or_default();
                        if *spent < budget {
                            *spent += 1;
                            transmitted[i] = false;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Message and control edges, matched per (receiver, incarnation)
    // against fresh pools of transmitted sends: a respawned incarnation
    // re-consumes, via the replay tape, messages the superseded
    // incarnation already consumed, and both consumptions causally
    // follow the same original send. Application messages join on
    // identity (FIFO per key, like the analyzer's I2 pass); control
    // messages match FIFO per channel on (kind, arg) so a mutated
    // (dropped) entry desynchronizes only its own pair.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (&rank, ids) in &by_rank {
        let incs: Vec<u32> = ranks[&rank].keys().copied().collect::<Vec<_>>();
        for &inc in &incs {
            let mut sends: HashMap<MsgKey, VecDeque<usize>> = HashMap::new();
            let mut ctrl: CtrlQueues = HashMap::new();
            for (j, m) in nodes.iter().enumerate() {
                if !transmitted[j] {
                    continue;
                }
                match m.event {
                    TraceEvent::Send {
                        comm,
                        dst,
                        epoch,
                        message_id,
                        ..
                    } if *dst == rank => {
                        sends
                            .entry((m.rank, *dst, *comm, *epoch, *message_id))
                            .or_default()
                            .push_back(j);
                    }
                    TraceEvent::ControlSent { dst, kind, arg }
                        if *dst == rank =>
                    {
                        ctrl.entry((m.rank, *dst))
                            .or_default()
                            .push_back((*kind, *arg, j));
                    }
                    _ => {}
                }
            }
            for &i in ids {
                if nodes[i].inc != inc {
                    continue;
                }
                match nodes[i].event {
                    TraceEvent::RecvClassified {
                        comm,
                        src,
                        message_id,
                        class,
                        receiver_epoch,
                        ..
                    } => {
                        let sender_epoch = match class {
                            c3_core::epoch::MsgClass::Late => {
                                if *receiver_epoch == 0 {
                                    continue; // analyzer flags it
                                }
                                receiver_epoch - 1
                            }
                            c3_core::epoch::MsgClass::IntraEpoch => {
                                *receiver_epoch
                            }
                            c3_core::epoch::MsgClass::Early => {
                                receiver_epoch + 1
                            }
                        };
                        let key =
                            (*src, rank, *comm, sender_epoch, *message_id);
                        if let Some(s) =
                            sends.get_mut(&key).and_then(VecDeque::pop_front)
                        {
                            edges.push((s, i));
                        }
                    }
                    TraceEvent::ControlRecv { src, kind, arg } => {
                        if let Some(q) = ctrl.get_mut(&(*src, rank)) {
                            if let Some(pos) = q
                                .iter()
                                .position(|&(k, a, _)| k == *kind && a == *arg)
                            {
                                let (_, _, s) = q.remove(pos).unwrap();
                                edges.push((s, i));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    for (s, r) in edges {
        nodes[r].preds.push(s);
    }

    // Suppression-list edges: receiver's SuppressSent -> sender's
    // SuppressRecv, FIFO per (receiver, sender) pair matched on count.
    let mut sup: HashMap<(u32, u32), VecDeque<(u64, usize)>> = HashMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if let TraceEvent::SuppressSent { dst, count } = n.event {
            sup.entry((n.rank, *dst))
                .or_default()
                .push_back((*count, i));
        }
    }
    let mut sup_edges: Vec<(usize, usize)> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if let TraceEvent::SuppressRecv { src, count } = n.event {
            if let Some(q) = sup.get_mut(&(*src, n.rank)) {
                if let Some(pos) = q.iter().position(|&(c, _)| c == *count) {
                    let (_, s) = q.remove(pos).unwrap();
                    sup_edges.push((s, i));
                }
            }
        }
    }
    for (s, r) in sup_edges {
        nodes[r].preds.push(s);
    }

    // Collective cliques: the k-th world-communicator collective of every
    // rank is one global call. Alignment mirrors the analyzer's I7 join:
    // from the front on fresh attempts, from the back on recovered ones
    // (replayed collectives emit no control exchange). Recovered attempts
    // that also end in a failure have neither end aligned — skip.
    let recovered = nodes
        .iter()
        .any(|n| matches!(n.event, TraceEvent::RecoveryStart { .. }));
    let failed = nodes
        .iter()
        .any(|n| matches!(n.event, TraceEvent::FailStop { .. }));
    if !(recovered && failed) {
        // Clique members are the *physical* participants of each round.
        // For a spliced rank that is the superseded incarnation's records
        // (survivors exchanged those rounds with it, and its stream
        // predecessors lie before the exchange — members from the
        // respawn's re-enactments would give survivors' early rounds
        // predecessors deep in the dead incarnation's tail and close a
        // cycle), followed by the respawn's records beyond the re-enacted
        // count. The count-skip rather than the catch-up marker handles a
        // death inside a collective: the superseded incarnation never
        // recorded that round, and the respawn completes it live just
        // before the marker is emitted.
        let world: Vec<Vec<usize>> = by_rank
            .iter()
            .map(|(&r, ids)| {
                let coll = |i: &usize| {
                    matches!(
                        nodes[*i].event,
                        TraceEvent::CollectiveControl { comm: 0, .. }
                            | TraceEvent::CollectiveUninformed { comm: 0, .. }
                    )
                };
                let mut v: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|i| nodes[*i].inc < max_inc[&r])
                    .filter(coll)
                    .collect();
                let replayed = v.len();
                v.extend(
                    ids.iter()
                        .copied()
                        .filter(|i| nodes[*i].inc == max_inc[&r])
                        .filter(coll)
                        .skip(replayed),
                );
                v
            })
            .collect();
        let common = world.iter().map(Vec::len).min().unwrap_or(0);
        for k in 0..common {
            let members: Vec<usize> = world
                .iter()
                .map(|v| v[if recovered { v.len() - common + k } else { k }])
                .collect();
            // Each informed member happens-after every member's
            // *predecessor* in its own stream (the control agreement).
            // Linking predecessors, not the members themselves, keeps the
            // clique acyclic while making the members mutually
            // concurrent-joined.
            let preds: Vec<Option<usize>> = members
                .iter()
                .map(|&m| {
                    let ids = &by_rank[&nodes[m].rank];
                    let pos = ids.iter().position(|&i| i == m).unwrap();
                    (pos > 0).then(|| ids[pos - 1])
                })
                .collect();
            let informed: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&m| {
                    matches!(
                        nodes[m].event,
                        TraceEvent::CollectiveControl { .. }
                    )
                })
                .collect();
            for m in informed {
                for (&p, &other) in preds.iter().zip(&members) {
                    if other != m {
                        if let Some(p) = p {
                            nodes[m].preds.push(p);
                        }
                    }
                }
            }
        }
    }

    // Kahn pass: compute vector clocks in topological order. Program
    // order contributes one implicit edge between stream neighbors.
    let mut indeg: Vec<usize> = nodes.iter().map(|n| n.preds.len()).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &p in &n.preds {
            succs[p].push(i);
        }
    }
    for ids in by_rank.values() {
        for w in ids.windows(2) {
            indeg[w[1]] += 1;
            succs[w[0]].push(w[1]);
        }
    }
    let mut ready: VecDeque<usize> = indeg
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut done = 0usize;
    while let Some(i) = ready.pop_front() {
        done += 1;
        let mut clock = vec![0u64; nranks];
        // Join every predecessor's clock (program order + cross edges).
        let mut join = |c: &Option<Vec<u64>>| {
            if let Some(c) = c {
                for (a, b) in clock.iter_mut().zip(c) {
                    *a = (*a).max(*b);
                }
            }
        };
        for &p in &nodes[i].preds {
            join(&nodes[p].clock);
        }
        let ids = &by_rank[&nodes[i].rank];
        let pos = ids.iter().position(|&x| x == i).unwrap();
        if pos > 0 {
            join(&nodes[ids[pos - 1]].clock);
        }
        let r = nodes[i].rank as usize;
        if r < nranks {
            clock[r] += 1;
        }
        nodes[i].clock = Some(clock);
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push_back(s);
            }
        }
    }
    let cyclic: Vec<usize> = if done < nodes.len() {
        nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.clock.is_none())
            .map(|(i, _)| i)
            .collect()
    } else {
        Vec::new()
    };

    // Mark each respawned incarnation's catch-up region: everything from
    // its start until its SpliceReplayed marker (to the stream's end if
    // the marker is missing — the incarnation died or the trace is
    // truncated, so nothing after the region exists anyway).
    let mut catch_up = vec![false; nodes.len()];
    for ids in by_rank.values() {
        let mut cur_inc = 0u32;
        let mut caught = true;
        for &i in ids {
            if nodes[i].inc != cur_inc {
                cur_inc = nodes[i].inc;
                caught = cur_inc == 0;
            }
            if !caught {
                catch_up[i] = true;
            }
            if matches!(nodes[i].event, TraceEvent::SpliceReplayed { .. }) {
                caught = true;
            }
        }
    }

    HbGraph {
        attempt,
        nranks,
        nodes,
        cyclic,
        catch_up,
    }
}

/// Run the race checks R0–R6 over one attempt's graph.
fn check_races(g: &HbGraph<'_>, out: &mut Vec<Violation>) {
    let mut flag = |inv: &'static str, idx: usize, detail: String| {
        out.push(Violation {
            invariant: inv,
            attempt: g.attempt,
            rank: g.nodes[idx].rank,
            seq: g.nodes[idx].seq,
            detail,
        });
    };

    // R0: a cycle means the recorded order is not an execution at all.
    if let Some(&first) = g.cyclic.first() {
        flag(
            race::R0,
            first,
            format!(
                "{} event(s) lie on a causal cycle (program order, message \
                 and control edges contradict each other)",
                g.cyclic.len()
            ),
        );
    }

    // Index the anchor events once.
    let mut commits: Vec<(u64, usize)> = Vec::new(); // (ckpt, node)
    let mut drains: Vec<(u64, usize)> = Vec::new();
    let mut gcs: Vec<(u64, usize)> = Vec::new();
    let mut round_starts: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        match n.event {
            TraceEvent::Commit { ckpt } if n.rank == 0 => {
                commits.push((*ckpt, i));
            }
            TraceEvent::PipelineDrained { ckpt, .. } if n.rank == 0 => {
                drains.push((*ckpt, i));
            }
            TraceEvent::GcRan { kept } if n.rank == 0 => {
                gcs.push((*kept, i));
            }
            TraceEvent::InitiatorPhase { phase, ckpt }
                if n.rank == 0 && *phase == phase_code::COLLECTING_READY =>
            {
                round_starts.entry(*ckpt).or_insert(i);
            }
            _ => {}
        }
    }

    for (i, n) in g.nodes.iter().enumerate() {
        match n.event {
            // R1: every late delivery (and its log append) of epoch e is
            // ordered before commit e. A late message concurrent with its
            // commit could miss the recovery log the commit certifies.
            TraceEvent::RecvClassified {
                class: c3_core::epoch::MsgClass::Late,
                src,
                message_id,
                receiver_epoch,
                ..
            } => {
                // A catch-up re-enactment of a delivery the superseded
                // incarnation already received (and is checked on) is
                // not a wire event; the epoch's commit may legitimately
                // predate the respawn.
                if g.catch_up[i] {
                    continue;
                }
                let e = u64::from(*receiver_epoch);
                for &(ckpt, c) in &commits {
                    if ckpt == e && !g.before(i, c) {
                        flag(
                            race::R1,
                            i,
                            format!(
                                "late delivery (src {src}, id {message_id}) \
                                 of epoch {e} races the commit of \
                                 checkpoint {e}"
                            ),
                        );
                    }
                }
            }
            // R2: a rank's log finalization is ordered before the commit
            // of the same checkpoint — the commit certifies the log is on
            // stable storage, so a concurrent finalization is a
            // lost-update race on the recovery line.
            TraceEvent::LogFinalized { ckpt, .. } => {
                // Same exemption as R1: a replayed finalization's log
                // blob was deduplicated at the staging layer, so it
                // writes nothing the commit could race with.
                if g.catch_up[i] {
                    continue;
                }
                for &(c_ckpt, c) in &commits {
                    if c_ckpt == *ckpt && !g.before(i, c) {
                        flag(
                            race::R2,
                            i,
                            format!(
                                "log finalization for checkpoint {ckpt} on \
                                 rank {} races its commit",
                                n.rank
                            ),
                        );
                    }
                }
            }
            // R3: every staged blob is ordered before the drain barrier
            // that claims to cover it (two-phase commit over async I/O).
            TraceEvent::BlobStaged { ckpt, .. } => {
                for &(d_ckpt, d) in &drains {
                    if d_ckpt == *ckpt && !g.before(i, d) {
                        flag(
                            race::R3,
                            i,
                            format!(
                                "blob staged for checkpoint {ckpt} on rank \
                                 {} races the drain barrier covering it",
                                n.rank
                            ),
                        );
                    }
                }
                // R5: a blob write concurrent with a GC sweep that could
                // collect it (sweep keeps `kept`, so it may touch any
                // chunk of checkpoints <= kept).
                for &(kept, gc) in &gcs {
                    if *ckpt <= kept && !g.before(i, gc) {
                        flag(
                            race::R5,
                            i,
                            format!(
                                "blob staged for checkpoint {ckpt} on rank \
                                 {} races the GC sweep keeping {kept}",
                                n.rank
                            ),
                        );
                    }
                }
            }
            // R4: a local checkpoint is caused by the initiator round
            // that requested it (please-checkpoint edge), unless a
            // barrier alignment forced it locally.
            TraceEvent::CheckpointTaken { ckpt, .. } => {
                let Some(&start) = round_starts.get(ckpt) else {
                    continue; // no round recorded; I12 owns justification
                };
                let aligned = barrier_aligned_to(g, i, *ckpt);
                if !aligned && !g.before(start, i) {
                    flag(
                        race::R4,
                        i,
                        format!(
                            "local checkpoint {ckpt} on rank {} is \
                             unordered with the initiator round that \
                             requested it",
                            n.rank
                        ),
                    );
                }
            }
            // R6: a suppressed re-send happens after the suppression
            // list from its receiver arrived — the decision must be
            // ordered after the receipt record it depends on.
            TraceEvent::Send {
                dst,
                message_id,
                suppressed: true,
                ..
            } => {
                let authorized = g.nodes.iter().enumerate().any(|(j, m)| {
                    m.rank == n.rank
                        && matches!(
                            m.event,
                            TraceEvent::SuppressRecv { src, .. }
                                if *src == *dst
                        )
                        && g.before(j, i)
                });
                if !authorized {
                    flag(
                        race::R6,
                        i,
                        format!(
                            "suppressed re-send to {dst} (id {message_id}) \
                             races the suppression list authorizing it"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// True when node `i` (a `CheckpointTaken { ckpt }`) was forced by a
/// barrier alignment: a `BarrierAligned { to_epoch: ckpt }` earlier in
/// the same stream with no other checkpoint in between.
fn barrier_aligned_to(g: &HbGraph<'_>, i: usize, ckpt: u64) -> bool {
    let rank = g.nodes[i].rank;
    // Chain position is (incarnation, seq): seq restarts at zero in a
    // respawned incarnation's stream.
    let pos = (g.nodes[i].inc, g.nodes[i].seq);
    let mut best: Option<((u32, u64), bool)> = None; // (pos, is_alignment)
    for n in &g.nodes {
        if n.rank != rank || (n.inc, n.seq) >= pos {
            continue;
        }
        let hit = match n.event {
            TraceEvent::BarrierAligned { to_epoch, .. } => {
                (u64::from(*to_epoch) == ckpt).then_some(true)
            }
            TraceEvent::CheckpointTaken { .. } => Some(false),
            _ => None,
        };
        if let Some(is_alignment) = hit {
            if best.is_none_or(|(p, _)| (n.inc, n.seq) > p) {
                best = Some(((n.inc, n.seq), is_alignment));
            }
        }
    }
    matches!(best, Some((_, true)))
}

/// Check a recorded trace for protocol races (R0–R6).
///
/// Returns a [`Report`] whose violations carry [`race`] identifiers; a
/// clean report certifies that every conflicting event pair the protocol
/// depends on was actually ordered by the execution's happens-before
/// relation, not just observed in a benign order.
pub fn race_check(records: &[TraceRecord]) -> Report {
    let (by_attempt, ranks_seen) = crate::analyzer::group_trace(records);
    // Same T0 guard as the analyzer: vector clocks are sized by the
    // world size, so a corrupted rank field must not drive allocation.
    if ranks_seen as usize > records.len() {
        return Report {
            violations: vec![Violation {
                invariant: crate::analyzer::invariant::T0,
                attempt: 0,
                rank: 0,
                seq: 0,
                detail: format!(
                    "trace claims {ranks_seen} ranks but holds only {} \
                     record(s)",
                    records.len()
                ),
            }],
            records: records.len(),
            attempts: by_attempt.len(),
            ranks: ranks_seen,
            commits: Vec::new(),
        };
    }

    let mut violations = Vec::new();
    let mut commits = Vec::new();
    for (&attempt, ranks) in &by_attempt {
        let g = build_graph(attempt, ranks_seen as usize, ranks);
        check_races(&g, &mut violations);
        for n in &g.nodes {
            if n.rank == 0 {
                if let TraceEvent::Commit { ckpt } = n.event {
                    commits.push(*ckpt);
                }
            }
        }
    }

    violations.sort_by_key(|v| (v.attempt, v.rank, v.seq));
    violations.dedup();
    Report {
        violations,
        records: records.len(),
        attempts: by_attempt.len(),
        ranks: ranks_seen,
        commits,
    }
}

/// Build the happens-before graphs (one per attempt) and return the
/// total event and cross-edge counts — exposed for tests and the CLI's
/// diagnostics.
pub fn graph_stats(records: &[TraceRecord]) -> (usize, usize) {
    let (by_attempt, ranks_seen) = crate::analyzer::group_trace(records);
    if ranks_seen as usize > records.len() {
        return (0, 0); // corrupted rank field; see race_check's T0 guard
    }
    let mut events = 0;
    let mut edges = 0;
    for (&attempt, ranks) in &by_attempt {
        let g = build_graph(attempt, ranks_seen as usize, ranks);
        events += g.len();
        edges += g.nodes.iter().map(|n| n.preds.len()).sum::<usize>();
    }
    (events, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_core::epoch::MsgClass;
    use c3_core::trace::control_kind;

    fn rec(rank: u32, seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            rank,
            attempt: 1,
            incarnation: 0,
            seq,
            event,
        }
    }

    /// A minimal healthy round on 2 ranks: request, checkpoint, counts,
    /// stop-logging, finalize, drain, commit, GC. Every R-invariant's
    /// ordered pair is present and ordered.
    fn healthy_round() -> Vec<TraceRecord> {
        use TraceEvent::*;
        let mut t = Vec::new();
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut r0 = |e| {
            s0 += 1;
            rec(0, s0 - 1, e)
        };
        let mut r1 = |e| {
            s1 += 1;
            rec(1, s1 - 1, e)
        };
        // Rank 1 sends one epoch-0 message that will arrive late.
        t.push(r1(Send {
            comm: 0,
            dst: 0,
            tag: 1,
            epoch: 0,
            logging: false,
            message_id: 0,
            suppressed: false,
            payload_len: 8,
        }));
        // Round start on rank 0.
        t.push(r0(InitiatorPhase {
            phase: phase_code::COLLECTING_READY,
            ckpt: 1,
        }));
        for d in 0..2u32 {
            t.push(r0(ControlSent {
                dst: d,
                kind: control_kind::PLEASE_CHECKPOINT,
                arg: 1,
            }));
        }
        t.push(r0(ControlRecv {
            src: 0,
            kind: control_kind::PLEASE_CHECKPOINT,
            arg: 1,
        }));
        t.push(r0(CheckpointTaken {
            ckpt: 1,
            send_counts: vec![0, 0],
            early_counts: vec![0, 0],
        }));
        t.push(r0(BlobStaged { ckpt: 1, kind: 0 }));
        for d in 0..2u32 {
            t.push(r0(ControlSent {
                dst: d,
                kind: control_kind::MY_SEND_COUNT,
                arg: 0,
            }));
        }
        t.push(r1(ControlRecv {
            src: 0,
            kind: control_kind::PLEASE_CHECKPOINT,
            arg: 1,
        }));
        t.push(r1(CheckpointTaken {
            ckpt: 1,
            send_counts: vec![1, 0],
            early_counts: vec![0, 0],
        }));
        t.push(r1(BlobStaged { ckpt: 1, kind: 0 }));
        t.push(r1(ControlSent {
            dst: 0,
            kind: control_kind::MY_SEND_COUNT,
            arg: 1,
        }));
        t.push(r1(ControlSent {
            dst: 1,
            kind: control_kind::MY_SEND_COUNT,
            arg: 0,
        }));
        // Rank 0 receives the late message, then both balance and the
        // round completes.
        t.push(r0(RecvClassified {
            comm: 0,
            src: 1,
            tag: 1,
            message_id: 0,
            class: MsgClass::Late,
            sender_logging: false,
            receiver_epoch: 1,
            receiver_logging: true,
        }));
        t.push(r0(LateLogged {
            src: 1,
            message_id: 0,
        }));
        t.push(r0(ControlRecv {
            src: 0,
            kind: control_kind::MY_SEND_COUNT,
            arg: 0,
        }));
        t.push(r0(ControlRecv {
            src: 1,
            kind: control_kind::MY_SEND_COUNT,
            arg: 1,
        }));
        t.push(r0(ControlSent {
            dst: 0,
            kind: control_kind::READY_TO_STOP_LOGGING,
            arg: 0,
        }));
        t.push(r0(ControlRecv {
            src: 0,
            kind: control_kind::READY_TO_STOP_LOGGING,
            arg: 0,
        }));
        t.push(r1(ControlRecv {
            src: 0,
            kind: control_kind::MY_SEND_COUNT,
            arg: 0,
        }));
        t.push(r1(ControlSent {
            dst: 0,
            kind: control_kind::READY_TO_STOP_LOGGING,
            arg: 0,
        }));
        t.push(r0(ControlRecv {
            src: 1,
            kind: control_kind::READY_TO_STOP_LOGGING,
            arg: 0,
        }));
        t.push(r0(InitiatorPhase {
            phase: phase_code::COLLECTING_STOPPED,
            ckpt: 1,
        }));
        for d in 0..2u32 {
            t.push(r0(ControlSent {
                dst: d,
                kind: control_kind::STOP_LOGGING,
                arg: 0,
            }));
        }
        t.push(r0(ControlRecv {
            src: 0,
            kind: control_kind::STOP_LOGGING,
            arg: 0,
        }));
        t.push(r0(LogFinalized {
            ckpt: 1,
            late: 1,
            nondet: 0,
            collectives: 0,
        }));
        t.push(r0(BlobStaged { ckpt: 1, kind: 1 }));
        t.push(r0(ControlSent {
            dst: 0,
            kind: control_kind::STOPPED_LOGGING,
            arg: 0,
        }));
        t.push(r0(ControlRecv {
            src: 0,
            kind: control_kind::STOPPED_LOGGING,
            arg: 0,
        }));
        t.push(r1(ControlRecv {
            src: 0,
            kind: control_kind::STOP_LOGGING,
            arg: 0,
        }));
        t.push(r1(LogFinalized {
            ckpt: 1,
            late: 0,
            nondet: 0,
            collectives: 0,
        }));
        t.push(r1(BlobStaged { ckpt: 1, kind: 1 }));
        t.push(r1(ControlSent {
            dst: 0,
            kind: control_kind::STOPPED_LOGGING,
            arg: 0,
        }));
        t.push(r0(ControlRecv {
            src: 1,
            kind: control_kind::STOPPED_LOGGING,
            arg: 0,
        }));
        t.push(r0(InitiatorPhase {
            phase: phase_code::IDLE,
            ckpt: 1,
        }));
        t.push(r0(PipelineDrained { ckpt: 1, blobs: 4 }));
        t.push(r0(Commit { ckpt: 1 }));
        t.push(r0(GcRan { kept: 1 }));
        t
    }

    #[test]
    fn healthy_round_is_race_clean() {
        let report = race_check(&healthy_round());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.commits, vec![1]);
    }

    #[test]
    fn vector_clocks_order_the_round() {
        let records = healthy_round();
        let (events, edges) = graph_stats(&records);
        assert_eq!(events, records.len());
        assert!(edges > 4, "cross edges must exist, got {edges}");
    }

    /// Cut the stoppedLogging edge from rank 1: its finalization and the
    /// late accounting become concurrent with the commit.
    #[test]
    fn severed_stop_ack_is_a_race() {
        let mut records = healthy_round();
        records.retain(|r| {
            !matches!(
                r.event,
                TraceEvent::ControlRecv {
                    src: 1,
                    kind: control_kind::STOPPED_LOGGING,
                    ..
                }
            )
        });
        let report = race_check(&records);
        assert!(
            report.violations.iter().any(|v| v.invariant == race::R2),
            "severed stop ack must race the finalize:\n{}",
            report.render()
        );
        assert!(
            report.violations.iter().any(|v| v.invariant == race::R3),
            "rank 1's blobs must race the drain:\n{}",
            report.render()
        );
    }

    /// Two ranks each claim to have received the other's control
    /// message *before* sending their own: the message edges contradict
    /// program order and no execution can realize the recorded streams.
    #[test]
    fn contradictory_order_is_a_cycle() {
        use TraceEvent::*;
        let k = control_kind::MY_SEND_COUNT;
        let records = vec![
            rec(
                0,
                0,
                ControlRecv {
                    src: 1,
                    kind: k,
                    arg: 9,
                },
            ),
            rec(
                0,
                1,
                ControlSent {
                    dst: 1,
                    kind: k,
                    arg: 7,
                },
            ),
            rec(
                1,
                0,
                ControlRecv {
                    src: 0,
                    kind: k,
                    arg: 7,
                },
            ),
            rec(
                1,
                1,
                ControlSent {
                    dst: 0,
                    kind: k,
                    arg: 9,
                },
            ),
        ];
        let report = race_check(&records);
        assert!(
            report.violations.iter().any(|v| v.invariant == race::R0),
            "contradictory order must be reported as a cycle:\n{}",
            report.render()
        );
    }

    #[test]
    fn unreceipted_suppression_is_a_race() {
        use TraceEvent::*;
        // A recovered rank re-sends with suppression but never received
        // the authorizing list.
        let records = vec![
            rec(
                0,
                0,
                RecoveryStart {
                    ckpt: 1,
                    late_in_log: 0,
                    early_counts: vec![0, 0],
                },
            ),
            rec(
                0,
                1,
                Send {
                    comm: 0,
                    dst: 1,
                    tag: 0,
                    epoch: 1,
                    logging: false,
                    message_id: 0,
                    suppressed: true,
                    payload_len: 8,
                },
            ),
        ];
        let report = race_check(&records);
        assert!(
            report.violations.iter().any(|v| v.invariant == race::R6),
            "{}",
            report.render()
        );
    }
}

//! Targeted protocol scenarios from the paper: non-determinism logging
//! (Section 3.2), early-message suppression, collective calls straddling
//! the recovery line (Figure 5), barrier epoch alignment (Section 4.5),
//! request pseudo-handles across checkpoints (Section 5.2),
//! persistent-object journal replay, and the control word's three forms
//! (fused into the data collective, answered by a gather's root, or on a
//! preceding exchange).

use c3_core::trace::{TraceEvent, TraceRecord, TraceSink};
use c3_core::{
    run_job, C3App, C3Config, C3Result, CheckpointTrigger,
    InstrumentationLevel, ProcStats, Process, ReduceOp,
};
use ckptstore::impl_saveload_struct;

struct S1 {
    i: u64,
    acc: u64,
}
impl_saveload_struct!(S1 { i: u64, acc: u64 });

/// Section 3.2's nondeterminism scenario, made into an executable test:
/// rank 0 draws a random number each iteration and ships it to rank 1,
/// whose state incorporates it. A failure after rank 1's checkpoint forces
/// a recovery in which rank 0 *re-draws* — if the draws were not logged
/// and replayed, rank 0's stream (seeded per attempt) would diverge from
/// what rank 1's checkpoint absorbed, and the final cross-check would
/// fail.
///
/// Every line logs a draw, whatever the thread timing. Rank 1 answers
/// each draw with an ack and a note. Rank 0 requests a checkpoint only
/// after the ack, when rank 1 is past its previous site, so rank 1 never
/// checkpoints ahead of rank 0 (and two receives later, at its site,
/// rank 0 acts on its own request). Rank 0 receives each note only
/// after its next draw: a note rank 1 sent before its checkpoint is late
/// at rank 0, and a rank 1 that has not checkpointed yet has not
/// announced its send count, so either way rank 0's logging window is
/// still open at that draw and logs it.
struct NondetApp {
    iters: u64,
}

impl C3App for NondetApp {
    type State = S1;
    type Output = (u64, u64);

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<(u64, u64)> {
        let world = p.world();
        let word = |p: &mut Process<'_>, src, tag| -> C3Result<u64> {
            let m = p.recv(world, src, tag)?;
            Ok(u64::from_le_bytes(m.payload[..8].try_into().unwrap()))
        };
        while s.i < self.iters {
            if p.rank() == 0 {
                let draw = p.nondet_u64()?;
                s.acc = s.acc.wrapping_add(draw);
                p.send(world, 1, 3, &draw.to_le_bytes())?;
                assert_eq!(word(p, 1, 4)?, s.i, "the ack of this draw");
                if s.i % 6 == 1 {
                    p.request_checkpoint()?;
                }
                if s.i > 0 {
                    assert_eq!(word(p, 1, 5)?, s.i - 1, "the last note");
                }
            } else {
                let draw = word(p, 0, 3)?;
                s.acc = s.acc.wrapping_add(draw);
                p.send(world, 0, 4, &s.i.to_le_bytes())?;
                p.send(world, 0, 5, &s.i.to_le_bytes())?;
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        if p.rank() == 0 {
            assert_eq!(word(p, 1, 5)?, self.iters - 1, "the last note");
        }
        Ok((p.rank() as u64, s.acc))
    }
}

#[test]
fn nondeterminism_is_logged_and_replayed_consistently() {
    // Fail rank 1 well after several checkpoints. During recovery rank 0
    // re-executes sends whose values came from nondet draws; the log must
    // reproduce them so both accumulators agree at the end.
    let sink = TraceSink::new();
    let cfg = C3Config {
        trigger: CheckpointTrigger::Manual,
        ..C3Config::default()
    }
    .with_failure(1, 60)
    .with_trace(sink.clone());
    let report = run_job(2, &cfg, None, &NondetApp { iters: 25 }).unwrap();
    assert_eq!(report.restarts, 1);
    let acc0 = report.outputs.iter().find(|o| o.0 == 0).unwrap().1;
    let acc1 = report.outputs.iter().find(|o| o.0 == 1).unwrap().1;
    assert_eq!(
        acc0, acc1,
        "rank 1's state must match the draws rank 0 actually made \
         (nondet log replay)"
    );
    let records = sink.take();
    let recovered = recovered_line(&records);
    let logged = records
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::LogFinalized { ckpt, nondet, .. }
                if r.rank == 0 && r.attempt == 1 && ckpt == recovered =>
            {
                Some(nondet)
            }
            _ => None,
        })
        .expect("the recovered line's log was finalized");
    assert!(logged > 0, "line {recovered} must have logged a draw");
    assert_eq!(
        report.stats[0].nondet_replayed, logged,
        "the restart replays exactly the draws line {recovered} logged"
    );
    let verdict = c3verify::analyze(&records);
    assert!(verdict.is_clean(), "{}", verdict.render());
}

/// Early-message suppression: rank 1 lags rank 0's checkpoint (rank 0
/// checkpoints early in the interval because it initiates), so messages
/// from the post-checkpoint rank 0 regularly arrive at pre-checkpoint
/// rank 1 as *early* messages. A failure then forces recovery; rank 0
/// re-executes those sends and the protocol must drop exactly the recorded
/// ones — a duplicate delivery would double-count in rank 1's accumulator.
struct EarlyApp {
    iters: u64,
}

/// Rank 1 keeps a not-yet-sent ack in its state, so its checkpoint site
/// can sit *between* the receive and the ack — putting the ack on the far
/// side of the cut.
struct EarlyState {
    i: u64,
    acc: u64,
    /// `ack value + 1` when an ack is owed; 0 otherwise.
    pending_ack: u64,
}
impl_saveload_struct!(EarlyState {
    i: u64,
    acc: u64,
    pending_ack: u64
});

impl C3App for EarlyApp {
    type State = EarlyState;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<EarlyState> {
        Ok(EarlyState {
            i: 0,
            acc: 0,
            pending_ack: 0,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut EarlyState) -> C3Result<u64> {
        // Lockstep ping-pong where rank 1's checkpoint site sits between
        // its receive and its ack. When a checkpoint cuts there, the ack
        // crosses the cut forward (rank 1 post-checkpoint -> rank 0
        // pre-checkpoint: an EARLY message at rank 0, re-send suppressed
        // on recovery), and rank 0's next ping crosses backward (rank 0
        // pre-checkpoint -> rank 1 post-checkpoint: a LATE message at
        // rank 1, logged and replayed).
        let world = p.world();
        while s.i < self.iters {
            if p.rank() == 0 {
                p.send(world, 1, 1, &s.i.to_le_bytes())?;
                let ack = p.recv(world, 1, 2)?;
                s.acc = s.acc.wrapping_add(u64::from_le_bytes(
                    ack.payload[..8].try_into().unwrap(),
                ));
                s.i += 1;
                p.potential_checkpoint(s)?;
            } else {
                if s.pending_ack == 0 {
                    let m = p.recv(world, 0, 1)?;
                    let v =
                        u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                    s.acc = s.acc.wrapping_add(v);
                    s.i += 1;
                    s.pending_ack = v + 1;
                    p.potential_checkpoint(s)?;
                }
                let v = s.pending_ack - 1;
                p.send(world, 0, 2, &v.to_le_bytes())?;
                s.pending_ack = 0;
            }
        }
        Ok(s.acc)
    }
}

#[test]
fn early_messages_are_recorded_and_suppressed_on_recovery() {
    let iters = 30;
    let expect: u64 = (0..iters).sum();
    let cfg = C3Config::every_ops(6).with_failure(0, 40);
    let report = run_job(2, &cfg, None, &EarlyApp { iters }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(
        report.outputs[0], expect,
        "duplicate or missing ack deliveries would change rank 0's sum"
    );
    assert_eq!(
        report.outputs[1], expect,
        "duplicate or missing deliveries would change rank 1's sum"
    );
    let early: u64 = report.stats.iter().map(|s| s.early_recorded).sum();
    let suppressed: u64 =
        report.stats.iter().map(|s| s.suppressed_sends).sum();
    assert!(early > 0, "the lagging receiver must have recorded earlies");
    // The stats cover the final attempt; with checkpoints every 6 ops the
    // recovered attempt keeps producing the same skew, so both recording
    // and suppression are visible there.
    assert!(
        suppressed > 0,
        "recovery must have suppressed recorded early re-sends"
    );
}

/// Figure 5: collectives crossing the checkpoint line. Ranks alternate
/// point-to-point work with an allreduce; checkpoints are frequent enough
/// that collectives regularly execute with some participants pre- and some
/// post-checkpoint, and logging/replaying their results must keep every
/// rank's view identical.
struct CollApp {
    iters: u64,
}

impl C3App for CollApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        while s.i < self.iters {
            let sum = p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc])?;
            let gathered = p.allgather_t::<u64>(world, &[s.i, s.acc])?;
            let mix = gathered
                .iter()
                .flatten()
                .fold(sum[0], |h, &v| h.wrapping_mul(31).wrapping_add(v));
            s.acc = mix;
            s.i += 1;
            // Ranks checkpoint at staggered sites so collectives straddle
            // the line.
            if (s.i + p.rank() as u64).is_multiple_of(2) {
                p.potential_checkpoint(s)?;
            }
        }
        Ok(s.acc)
    }
}

#[test]
fn collective_results_are_logged_and_replayed_across_the_line() {
    let n = 4;
    let iters = 24;
    let reference =
        run_job(n, &C3Config::every_ops(1_000_000), None, &CollApp { iters })
            .unwrap();
    // All ranks agree in the failure-free run.
    assert!(reference.outputs.windows(2).all(|w| w[0] == w[1]));

    let cfg = C3Config::every_ops(14).with_failure(2, 40);
    let report = run_job(n, &cfg, None, &CollApp { iters }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
    let logged: u64 = report.stats.iter().map(|s| s.collectives_logged).sum();
    let replayed: u64 =
        report.stats.iter().map(|s| s.collectives_replayed).sum();
    assert!(logged > 0, "collectives while logging must be recorded");
    assert!(replayed > 0, "recovery must have replayed some results");
}

/// The sum of a counter over every rank's final-attempt stats.
fn total(report: &c3_core::JobReport<u64>, f: fn(&ProcStats) -> u64) -> u64 {
    report.stats.iter().map(f).sum()
}

/// A manually triggered configuration: rank 0 requests each checkpoint
/// at a fixed point of the application, so where every rank takes it
/// does not depend on thread timing.
fn manual() -> C3Config {
    C3Config {
        trigger: CheckpointTrigger::Manual,
        ..C3Config::default()
    }
}

/// The committed line the first restart recovered from.
fn recovered_line(records: &[TraceRecord]) -> u64 {
    records
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::RecoveryStart { ckpt, .. } => Some(ckpt),
            _ => None,
        })
        .expect("the kill came after a commit")
}

/// `(logging, min_epoch, max_epoch, stopped_at_max, logged)` of a
/// collective control record on communicator `comm`.
fn coll_fold(
    r: &TraceRecord,
    comm: u64,
) -> Option<(bool, u32, u32, bool, bool)> {
    match r.event {
        TraceEvent::CollectiveControl {
            comm: c,
            logging,
            min_epoch,
            max_epoch,
            stopped_at_max,
            logged,
            ..
        } if c == comm => {
            Some((logging, min_epoch, max_epoch, stopped_at_max, logged))
        }
        _ => None,
    }
}

/// Every rank checkpoints at one shared site. Rank 0 requests each
/// checkpoint between an allreduce, which no rank leaves before every
/// rank is past its previous site, and an allgather, which no rank
/// leaves before the request has reached it. Rank 1 sends rank 0 one
/// message per iteration, which rank 0 receives after the next
/// iteration's collectives: the one sent before a line is late at rank 0
/// and holds every logging window open across those collectives. Every
/// rank runs them logging, past its checkpoint — and so logs none of
/// them.
struct SharedSiteApp {
    iters: u64,
}

impl C3App for SharedSiteApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        let me = p.rank() as u64;
        while s.i < self.iters {
            let sum =
                p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc, me])?;
            if s.i % 4 == 1 {
                p.request_checkpoint()?;
            }
            let all = p.allgather_t::<u64>(world, &[s.i ^ s.acc])?;
            s.acc = all
                .iter()
                .flatten()
                .chain(&sum)
                .fold(s.acc, |h, &v| h.wrapping_mul(31).wrapping_add(v));
            if me == 1 {
                p.send(world, 0, 6, &s.i.to_le_bytes())?;
            } else if me == 0 && s.i > 0 {
                let m = p.recv(world, 1, 6)?;
                s.acc ^=
                    u64::from_le_bytes(m.payload[..8].try_into().unwrap());
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        if me == 0 {
            p.recv(world, 1, 6)?;
        }
        Ok(s.acc)
    }
}

#[test]
fn same_epoch_collectives_are_not_logged() {
    let app = SharedSiteApp { iters: 24 };
    let reference = run_job(3, &manual(), None, &app).unwrap();
    let sink = TraceSink::new();
    let cfg = manual().with_failure(2, 60).with_trace(sink.clone());
    let report = run_job(3, &cfg, None, &app).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
    assert_eq!(total(&report, |s| s.collectives_logged), 0);
    assert_eq!(total(&report, |s| s.collectives_replayed), 0);
    let records = sink.take();
    assert!(recovered_line(&records) > 0);
    let folds: Vec<_> =
        records.iter().filter_map(|r| coll_fold(r, 0)).collect();
    // No call straddles a line, so none is logged, though calls ran
    // with every participant logging that Section 4.5 would have logged.
    assert!(folds
        .iter()
        .all(|&(_, min, max, _, logged)| min == max && !logged));
    assert!(folds
        .iter()
        .any(|&(logging, _, _, stopped, _)| logging && !stopped));
    assert!(records.iter().all(|r| !matches!(
        r.event,
        TraceEvent::LogFinalized { collectives, .. } if collectives > 0
    )));
    let verdict = c3verify::analyze(&records);
    assert!(verdict.is_clean(), "{}", verdict.render());
    let races = c3verify::race_check(&records);
    assert!(races.is_clean(), "{}", races.render());
}

/// Four ranks split into the even pair and the odd pair. Every step runs
/// a world allreduce, one on the rank's pair and another world one.
/// Every rank but 2 checkpoints at the end of an even step, rank 2 at the
/// end of an odd one, and rank 0 requests each checkpoint between the
/// first two calls of every fourth even step (so no rank is before its
/// previous site, and every rank has the request after the last call).
/// In the odd step after a line rank 2 is behind it: both world calls
/// and the even pair's call straddle the line and are logged, while the
/// odd pair's call does not and is not. Ranks 1 and 3 log a world call,
/// skip their own pair's call, and log the next world call.
struct SplitStraddleApp {
    steps: u64,
}

impl C3App for SplitStraddleApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        let me = p.rank() as u64;
        let pair = p
            .comm_split(world, (me % 2) as i32, me as i32)?
            .expect("color is non-negative");
        let mix = |h: u64, v: &[u64]| {
            v.iter().fold(h, |h, &v| h.wrapping_mul(31).wrapping_add(v))
        };
        while s.i < self.steps {
            let w = p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc])?;
            if s.i % 8 == 2 {
                p.request_checkpoint()?;
            }
            let h =
                p.allreduce_t::<u64>(pair, ReduceOp::Max, &[s.acc ^ me])?;
            s.acc = mix(mix(s.acc, &w), &h);
            let w = p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc])?;
            s.acc = mix(s.acc, &w);
            s.i += 1;
            if s.i.is_multiple_of(2) == (me == 2) {
                p.potential_checkpoint(s)?;
            }
        }
        Ok(s.acc)
    }
}

#[test]
fn split_communicators_replay_their_own_prefix() {
    let app = SplitStraddleApp { steps: 40 };
    let reference = run_job(4, &manual(), None, &app).unwrap();
    let sink = TraceSink::new();
    let cfg = manual().with_failure(3, 90).with_trace(sink.clone());
    let report = run_job(4, &cfg, None, &app).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
    let records = sink.take();
    assert!(recovered_line(&records) > 0);
    let on = |rank: u32| {
        records
            .iter()
            .filter(move |r| r.rank == rank && r.attempt == 1)
            .filter_map(|r| coll_fold(r, 1))
    };
    // The odd pair never straddles a line but runs calls while logging;
    // the even pair straddles every line and logs its calls.
    for rank in [1, 3] {
        assert!(on(rank).all(|(_, min, max, _, logged)| min == max && !logged));
        assert!(
            on(rank).any(|(logging, _, _, stopped, _)| logging && !stopped)
        );
    }
    assert!(on(0).any(|(_, min, max, _, logged)| min < max && logged));
    // The analyzer joins only the world communicator (comm handles are
    // per rank), so join each pair here: its members agree on every
    // call's fold, and the fold is their epochs' minimum and maximum.
    let pair_calls = |rank: u32, attempt: u64| -> Vec<(u32, u32, u32, bool)> {
        records
            .iter()
            .filter(|r| r.rank == rank && r.attempt == attempt)
            .filter_map(|r| match r.event {
                TraceEvent::CollectiveControl {
                    comm: 1,
                    epoch,
                    min_epoch,
                    max_epoch,
                    stopped_at_max,
                    ..
                } => Some((epoch, min_epoch, max_epoch, stopped_at_max)),
                _ => None,
            })
            .collect()
    };
    for (a, b) in [(0, 2), (1, 3)] {
        for attempt in [1, 2] {
            let (ca, cb) = (pair_calls(a, attempt), pair_calls(b, attempt));
            let n = ca.len().min(cb.len());
            assert!(n > 0, "pair {a},{b} attempt {attempt}");
            // The first attempt ends in the kill: join it from the start.
            // The restart replays a logged prefix and then runs every
            // call to the end: join it from the end.
            let (ca, cb) = match attempt {
                1 => (&ca[..n], &cb[..n]),
                _ => (&ca[ca.len() - n..], &cb[cb.len() - n..]),
            };
            for (k, (x, y)) in ca.iter().zip(cb).enumerate() {
                let what = format!("pair {a},{b} attempt {attempt} call {k}");
                assert_eq!((x.1, x.2, x.3), (y.1, y.2, y.3), "{what}");
                assert_eq!((x.1, x.2), (x.0.min(y.0), x.0.max(y.0)), "{what}");
            }
        }
    }
    // The restart replays world calls from rank 1's log around its live
    // pair call.
    assert!(report.stats[1].collectives_replayed > 0);
    assert!(total(&report, |s| s.collectives_replayed) > 0);
    let verdict = c3verify::analyze(&records);
    assert!(verdict.is_clean(), "{}", verdict.render());
    let races = c3verify::race_check(&records);
    assert!(races.is_clean(), "{}", races.render());
}

/// Frames and bytes an `n`-rank job at `level` sends for 20 extra
/// iterations of `app`. Taking the difference between two job lengths
/// cancels what surrounds the loop at the piggybacking level only (the
/// shadow communicator's creation, `finalize`'s rounds).
fn marginal_sent<A: C3App>(
    n: usize,
    level: InstrumentationLevel,
    app: impl Fn(u64) -> A,
) -> (u64, u64) {
    let sent = |iters: u64| {
        let reg = c3obs::Registry::new();
        let cfg = C3Config {
            level,
            ..C3Config::default()
        }
        .with_obs(reg.clone());
        run_job(n, &cfg, None, &app(iters)).unwrap();
        let snap = reg.snapshot();
        (
            snap.counter_total("mpi_msgs_sent_total"),
            snap.counter_total("mpi_bytes_sent_total"),
        )
    };
    let ((short_frames, short_bytes), (long_frames, long_bytes)) =
        (sent(4), sent(24));
    (long_frames - short_frames, long_bytes - short_bytes)
}

/// The fused control word costs no frame of its own: per extra iteration
/// of allreduce + allgather, a piggybacking job sends exactly the frames
/// the uninstrumented job sends, each 8 bytes (the word) longer.
#[test]
fn fused_control_word_adds_no_frames() {
    let n = 4;
    let app = |iters| CollApp { iters };
    let (base_frames, base_bytes) =
        marginal_sent(n, InstrumentationLevel::None, app);
    let (pb_frames, pb_bytes) =
        marginal_sent(n, InstrumentationLevel::Piggyback, app);
    // 20 iterations x 2 collectives x (gather + broadcast) x (n - 1).
    assert_eq!(base_frames, 20 * 2 * 2 * (n as u64 - 1));
    assert_eq!(pb_frames, base_frames, "no extra frames, no extra rounds");
    assert_eq!(pb_bytes, base_bytes + 8 * base_frames);
}

/// Gathers and reduces at a root that moves every iteration.
struct RootedApp {
    iters: u64,
}

impl C3App for RootedApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        let n = p.size() as u64;
        let root = |i: u64| (i % n) as usize;
        while s.i < self.iters {
            let me = p.rank() as u64;
            let g = p.gather_t::<u64>(world, root(s.i), &[s.acc, me])?;
            let r =
                p.reduce_t::<u64>(world, root(s.i + 1), ReduceOp::Sum, &[me])?;
            s.acc = g
                .iter()
                .flatten()
                .flatten()
                .chain(r.iter().flatten())
                .fold(s.acc, |h, &v| h.wrapping_mul(31).wrapping_add(v));
            s.i += 1;
        }
        Ok(s.acc)
    }
}

/// The answered form costs no frame while nobody logs: per extra
/// iteration of gather + reduce, a piggybacking job sends exactly the
/// frames the uninstrumented job sends, each 9 bytes (the word and the
/// ask flag) longer. A preceding exchange would add a barrier's frames
/// to every call.
#[test]
fn answered_control_word_adds_no_frames() {
    for n in [2, 4] {
        let app = |iters| RootedApp { iters };
        let (base_frames, base_bytes) =
            marginal_sent(n, InstrumentationLevel::None, app);
        let (pb_frames, pb_bytes) =
            marginal_sent(n, InstrumentationLevel::Piggyback, app);
        // 20 iterations x 2 collectives x (n - 1) contributions.
        assert_eq!(base_frames, 20 * 2 * (n as u64 - 1), "n={n}");
        assert_eq!(pb_frames, base_frames, "n={n}: no answer, no barrier");
        assert_eq!(pb_bytes, base_bytes + 9 * base_frames, "n={n}");
    }
}

/// Two ranks and nothing but a gather to rank 0. A contributor that is
/// not logging never waits for the root, so rank 1 pauses then, and the
/// root, which waits for its frame, stays in step with it. While rank 0
/// logs it pauses before each of its protocol operations instead, so
/// whichever one ends its logging window (the initiator stops logging in
/// the pump that broadcasts `stopLogging`) finds rank 1 already inside
/// the next gather with its ask flag up: rank 1 learns that the line has
/// ended from the root's answer, not from `stopLogging`.
struct AnsweredStopApp {
    iters: u64,
}

impl C3App for AnsweredStopApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        let me = p.rank() as u64;
        let pause = |p: &Process<'_>| {
            let ms = match (p.rank(), p.is_logging()) {
                (0, true) => 5,
                (0, false) | (_, true) => return,
                (_, false) => 1,
            };
            std::thread::sleep(std::time::Duration::from_millis(ms));
        };
        while s.i < self.iters {
            pause(p);
            let g = p.gather_t::<u64>(world, 0, &[s.acc ^ me, s.i])?;
            s.acc = g
                .iter()
                .flatten()
                .flatten()
                .fold(s.acc.wrapping_add(me), |h, &v| {
                    h.wrapping_mul(31).wrapping_add(v)
                });
            s.i += 1;
            pause(p);
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

/// True for a contributor record that was logging and learned from the
/// root's answer that a max-epoch participant had stopped.
fn stopped_by_the_answer(e: &TraceEvent) -> bool {
    matches!(
        e,
        TraceEvent::CollectiveControl {
            kind: 2,
            logging: true,
            stopped_at_max: true,
            logged: false,
            ..
        }
    )
}

#[test]
fn answered_gather_ends_a_contributors_logging() {
    let app = AnsweredStopApp { iters: 60 };
    let sink = TraceSink::new();
    let cfg = C3Config::every_ops(10).with_trace(sink.clone());
    let report = run_job(2, &cfg, None, &app).unwrap();
    let records = sink.take();
    assert!(report.last_committed.is_some());
    assert!(
        records
            .iter()
            .any(|r| r.rank == 1 && stopped_by_the_answer(&r.event)),
        "rank 1 must learn of a line's end from a gather's answer"
    );
    // Outside its logging windows rank 1 leaves without the fold.
    assert!(records.iter().any(|r| matches!(
        r.event,
        TraceEvent::CollectiveUninformed { logging: false, .. }
    )));
    let verdict = c3verify::analyze(&records);
    assert!(verdict.is_clean(), "{}", verdict.render());
    let races = c3verify::race_check(&records);
    assert!(races.is_clean(), "{}", races.render());
}

#[test]
fn answered_gather_line_recovers_bit_identically() {
    let app = AnsweredStopApp { iters: 60 };
    let reference =
        run_job(2, &C3Config::every_ops(1_000_000), None, &app).unwrap();
    for rank in [0, 1] {
        let sink = TraceSink::new();
        let cfg = C3Config::every_ops(10)
            .with_failure(rank, 100)
            .with_trace(sink.clone());
        let report = run_job(2, &cfg, None, &app).unwrap();
        assert_eq!(report.restarts, 1, "rank {rank}");
        assert_eq!(report.outputs, reference.outputs, "rank {rank}");
        let records = sink.take();
        // The kill came after a line rank 1 left through the answer.
        let kill = records
            .iter()
            .find(|r| matches!(r.event, TraceEvent::FailStop { .. }))
            .expect("the kill fired");
        assert!(
            records.iter().any(|r| r.attempt == kill.attempt
                && r.rank == 1
                && stopped_by_the_answer(&r.event)),
            "rank {rank}: no answered stop before the kill"
        );
        let verdict = c3verify::analyze(&records);
        assert!(verdict.is_clean(), "rank {rank}:\n{}", verdict.render());
        let races = c3verify::race_check(&records);
        assert!(races.is_clean(), "rank {rank}:\n{}", races.render());
    }
}

/// Every collective kind, with calls straddling the checkpoint line in
/// both routes the control word takes. The barrier opens every third
/// iteration (a checkpoint forced by its alignment step resumes at the
/// loop top, in front of the same barrier); the other iterations run all
/// eight data collectives with ranks checkpointing at staggered sites, so
/// calls execute with some participants before and some after the line.
struct EveryKindApp {
    iters: u64,
}

impl C3App for EveryKindApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let me = p.rank() as u64;
        let mix = |h: u64, v: u64| h.wrapping_mul(31).wrapping_add(v);
        while s.i < self.iters {
            if s.i.is_multiple_of(3) {
                p.barrier(world, s)?;
            }
            let root = (s.i as usize) % n;
            let at_root = p.rank() == root;
            let mut h = s.acc;

            let b = p.bcast_t::<u64>(world, root, &[s.acc ^ s.i])?;
            h = mix(h, b[0]);
            let sum = p.allreduce_t::<u64>(
                world,
                ReduceOp::Sum,
                &[s.acc & 0xFFFF, me],
            )?;
            h = sum.iter().fold(h, |h, &v| mix(h, v));
            let red = p.reduce_t::<u64>(
                world,
                root,
                ReduceOp::Max,
                &[s.acc % 1000 + me],
            )?;
            assert_eq!(red.is_some(), at_root);
            h = red.iter().flatten().fold(h, |h, &v| mix(h, v));
            let gathered =
                p.gather_t::<u64>(world, root, &[s.acc.wrapping_add(me)])?;
            assert_eq!(gathered.is_some(), at_root);
            h = gathered
                .iter()
                .flatten()
                .flatten()
                .fold(h, |h, &v| mix(h, v));
            // Ragged, and empty at some rank in most iterations. The flat
            // form decodes the broadcast buffer — live, or the logged one
            // on replay — in one pass and must equal the nested form.
            let mine = vec![h & 0xFF; (s.i + me) as usize % 3];
            let all = p.allgather_t::<u64>(world, &mine)?;
            let flat = p.allgather_flat_t::<u64>(world, &mine)?;
            assert_eq!(flat, all.concat(), "iteration {}", s.i);
            h = flat.iter().fold(mix(h, s.i), |h, &v| mix(h, v));
            let chunks: Vec<Vec<u8>> = (0..n)
                .map(|d| vec![s.i as u8, me as u8, d as u8, (h & 0x7F) as u8])
                .collect();
            let swapped = p.alltoall(world, &chunks)?;
            h = swapped
                .iter()
                .flat_map(|c| c.iter())
                .fold(h, |h, &v| mix(h, u64::from(v)));
            let parts = at_root.then(|| {
                (0..n as u64)
                    .map(|d| s.acc.wrapping_add(d).to_le_bytes().to_vec())
                    .collect::<Vec<_>>()
            });
            let part = p.scatter(world, root, parts.as_deref())?;
            h = part.iter().fold(h, |h, &v| mix(h, u64::from(v)));
            let prefix =
                p.scan_t::<u64>(world, ReduceOp::Sum, &[me + s.i, h & 0xF])?;
            h = prefix.iter().fold(h, |h, &v| mix(h, v));

            s.acc = h;
            s.i += 1;
            if (s.i + me).is_multiple_of(2) {
                p.potential_checkpoint(s)?;
            }
        }
        Ok(s.acc)
    }
}

#[test]
fn every_collective_kind_straddles_the_line_and_recovers() {
    let iters = 18;
    let app = EveryKindApp { iters };
    for n in [3, 5] {
        let reference =
            run_job(n, &C3Config::every_ops(1_000_000), None, &app).unwrap();
        let plain = C3Config {
            level: InstrumentationLevel::None,
            ..C3Config::default()
        };
        let uninstrumented = run_job(n, &plain, None, &app).unwrap();
        assert_eq!(uninstrumented.outputs, reference.outputs, "n={n}");
        // (failures as (rank, at_op), restarts expected)
        let schedules: [&[(usize, u64)]; 3] =
            [&[], &[(n - 1, 70)], &[(1, 45), (0, 120)]];
        for kills in schedules {
            let sink = TraceSink::new();
            let mut cfg = C3Config::every_ops(23).with_trace(sink.clone());
            for &(rank, at_op) in kills {
                cfg = cfg.with_failure(rank, at_op);
            }
            let report = run_job(n, &cfg, None, &app).unwrap();
            let what = format!("n={n} kills={kills:?}");
            assert_eq!(report.restarts, kills.len(), "{what}");
            assert_eq!(report.outputs, reference.outputs, "{what}");
            let total = |f: fn(&c3_core::ProcStats) -> u64| {
                report.stats.iter().map(f).sum::<u64>()
            };
            assert!(total(|s| s.collectives_logged) > 0, "{what}");
            if !kills.is_empty() {
                assert!(total(|s| s.collectives_replayed) > 0, "{what}");
            }
            let records = sink.take();
            // Both routes really met the line: every data kind ran with
            // a participant still behind it, and logged a result.
            for kind in 1..=8u8 {
                let seen = |f: fn(u32, u32, bool) -> bool| {
                    records.iter().any(|r| match r.event {
                        TraceEvent::CollectiveControl {
                            kind: k,
                            epoch,
                            max_epoch,
                            logged,
                            ..
                        } => k == kind && f(epoch, max_epoch, logged),
                        _ => false,
                    })
                };
                assert!(seen(|e, max, _| e < max), "{what} kind {kind}");
                assert!(seen(|_, _, logged| logged), "{what} kind {kind}");
            }
            let verdict = c3verify::analyze(&records);
            assert!(verdict.is_clean(), "{what}:\n{}", verdict.render());
            let races = c3verify::race_check(&records);
            assert!(races.is_clean(), "{what}:\n{}", races.render());
        }
    }
}

/// Barrier epoch alignment: rank 1 never calls `potential_checkpoint`; its
/// only checkpoint opportunities are the pre-barrier alignment sites the
/// "precompiler" inserts. If alignment did not force its local checkpoint,
/// no global checkpoint could ever commit.
struct BarrierApp {
    iters: u64,
}

impl C3App for BarrierApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        while s.i < self.iters {
            s.acc = s.acc.wrapping_add(s.i * (p.rank() as u64 + 1));
            // State is made iteration-consistent *before* any checkpoint
            // site (the explicit one and the barrier's alignment site), so
            // a resumed execution never re-applies a completed iteration.
            s.i += 1;
            if p.rank() == 0 {
                // Only rank 0 has explicit checkpoint sites.
                p.potential_checkpoint(s)?;
            }
            p.barrier(world, s)?;
        }
        Ok(s.acc)
    }
}

#[test]
fn barrier_forces_lagging_ranks_to_checkpoint() {
    let cfg = C3Config::every_ops(12);
    let report = run_job(3, &cfg, None, &BarrierApp { iters: 20 }).unwrap();
    assert!(
        report.last_committed.is_some(),
        "alignment checkpoints must let the global checkpoint commit"
    );
    for st in &report.stats {
        assert!(st.checkpoints > 0, "every rank checkpointed: {st:?}");
    }
}

#[test]
fn barrier_app_recovers_from_failure() {
    let reference = run_job(
        3,
        &C3Config::every_ops(9999),
        None,
        &BarrierApp { iters: 18 },
    )
    .unwrap();
    let cfg = C3Config::every_ops(10).with_failure(1, 10);
    let report = run_job(3, &cfg, None, &BarrierApp { iters: 18 }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
}

/// Request pseudo-handles across checkpoints: an irecv/isend pair is
/// posted, a checkpoint intervenes, then the waits complete. The raw
/// pseudo-handles live in the *checkpointed application state*, so after a
/// restart the app skips re-posting and completes the restored handles —
/// exactly the Section 5.2 reinitialization: an `Isend` handle completes
/// immediately, an `Irecv` handle is satisfied from the late log or
/// re-posted.
struct PendingReqApp {
    iters: u64,
}

/// `posted`/`send_h` hold `raw handle + 1` (0 = nothing outstanding).
struct PRState {
    i: u64,
    acc: u64,
    posted: u64,
    send_h: u64,
}
impl_saveload_struct!(PRState {
    i: u64,
    acc: u64,
    posted: u64,
    send_h: u64
});

impl C3App for PendingReqApp {
    type State = PRState;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<PRState> {
        Ok(PRState {
            i: 0,
            acc: 0,
            posted: 0,
            send_h: 0,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut PRState) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        while s.i < self.iters {
            if s.posted == 0 {
                let rreq = p.irecv(world, left, 9)?;
                let sreq = p.isend(world, right, 9, &s.i.to_le_bytes())?;
                s.posted = rreq.raw() + 1;
                s.send_h = sreq.raw() + 1;
            }
            // Checkpoint site between posting and completion: the
            // requests regularly straddle the checkpoint, and after a
            // restart the `s.posted != 0` branch skips the re-post.
            p.potential_checkpoint(s)?;
            let got = p
                .wait_raw(s.posted - 1)?
                .expect("recv handle yields a message");
            assert!(
                p.wait_raw(s.send_h - 1)?.is_none(),
                "send wait returns None"
            );
            s.posted = 0;
            s.send_h = 0;
            s.acc = s.acc.wrapping_add(u64::from_le_bytes(
                got.payload[..8].try_into().unwrap(),
            ));
            s.i += 1;
        }
        Ok(s.acc)
    }
}

#[test]
fn requests_straddling_checkpoints_complete_after_recovery() {
    let n = 3;
    let iters = 24;
    let expect: u64 = (0..iters).sum();
    let reference = run_job(
        n,
        &C3Config::every_ops(9999),
        None,
        &PendingReqApp { iters },
    )
    .unwrap();
    assert!(reference.outputs.iter().all(|&o| o == expect));

    for at_op in [30, 45, 60] {
        let cfg = C3Config::every_ops(11).with_failure(2, at_op);
        let report = run_job(n, &cfg, None, &PendingReqApp { iters }).unwrap();
        assert_eq!(report.restarts, 1, "at_op={at_op}");
        assert_eq!(report.outputs, reference.outputs, "at_op={at_op}");
    }
}

/// Persistent opaque objects: communicators created by dup/split are
/// journaled and replayed on recovery; the application's pseudo-handles
/// keep working after restart without any application-side help.
struct CommApp {
    iters: u64,
}

impl C3App for CommApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        // Created on every attempt *before* state resumes: on recovery the
        // journal replay already rebuilt them; these calls then journal
        // fresh duplicates — so create them once via state flag instead.
        let half = p
            .comm_split(world, (p.rank() % 2) as i32, p.rank() as i32)?
            .expect("color is non-negative");
        let dup = p.comm_dup(world)?;
        while s.i < self.iters {
            let within =
                p.allreduce_t::<u64>(half, ReduceOp::Sum, &[s.i + 1])?;
            let global = p.allreduce_t::<u64>(dup, ReduceOp::Max, &within)?;
            s.acc = s.acc.wrapping_mul(7).wrapping_add(global[0]);
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

#[test]
fn split_and_dup_communicators_survive_recovery() {
    let n = 4;
    let iters = 20;
    let reference =
        run_job(n, &C3Config::every_ops(9999), None, &CommApp { iters })
            .unwrap();
    let cfg = C3Config::every_ops(16).with_failure(3, 40);
    let report = run_job(n, &cfg, None, &CommApp { iters }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
}

/// A checkpoint interrupted by the failure itself: the failure lands while
/// the global checkpoint is being created (between local checkpoints and
/// commit), so recovery must fall back to the previous committed
/// checkpoint and the partial one must be invisible.
#[test]
fn failure_during_checkpoint_creation_falls_back_cleanly() {
    struct SlowCkptApp;
    impl C3App for SlowCkptApp {
        type State = S1;
        type Output = u64;
        fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
            Ok(S1 { i: 0, acc: 0 })
        }
        fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
            let world = p.world();
            let n = p.size();
            let right = (p.rank() + 1) % n;
            let left = (p.rank() + n - 1) % n;
            while s.i < 30 {
                let got = p.sendrecv(
                    world,
                    right,
                    2,
                    &s.acc.to_le_bytes(),
                    left,
                    2,
                )?;
                s.acc = s.acc.wrapping_add(u64::from_le_bytes(
                    got.payload[..8].try_into().unwrap(),
                )) ^ s.i;
                s.i += 1;
                p.potential_checkpoint(s)?;
            }
            Ok(s.acc)
        }
    }
    let reference = run_job(
        3,
        &C3Config {
            trigger: CheckpointTrigger::EveryOps(9999),
            ..C3Config::default()
        },
        None,
        &SlowCkptApp,
    )
    .unwrap();
    // Checkpoints every 13 ops; a failure at op 40 has a good chance of
    // landing mid-protocol. Whatever the interleaving, the result must
    // match and the job must finish.
    for at_op in [38, 40, 42, 44] {
        let cfg = C3Config::every_ops(13).with_failure(1, at_op);
        let report = run_job(3, &cfg, None, &SlowCkptApp).unwrap();
        assert_eq!(report.outputs, reference.outputs, "at_op={at_op}");
        assert_eq!(report.restarts, 1);
    }
}

/// Point-to-point traffic on two communicators with identical rank/tag
/// spaces, straddling checkpoints and a failure: the late-message log must
/// never cross-match messages between the communicators (each logged late
/// message records its communicator pseudo-handle).
struct TwoCommApp {
    iters: u64,
}

impl C3App for TwoCommApp {
    type State = S1;
    type Output = (u64, u64);

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<(u64, u64)> {
        let world = p.world();
        let dup = p.comm_dup(world)?;
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        let mut acc2 = s.acc >> 32;
        while s.i < self.iters {
            // Same destination and SAME TAG on both communicators, with
            // distinguishable payloads.
            let a = p.sendrecv(
                world,
                right,
                5,
                &(s.i * 2).to_le_bytes(),
                left,
                5,
            )?;
            let b = p.sendrecv(
                dup,
                right,
                5,
                &(s.i * 2 + 1).to_le_bytes(),
                left,
                5,
            )?;
            let va = u64::from_le_bytes(a.payload[..8].try_into().unwrap());
            let vb = u64::from_le_bytes(b.payload[..8].try_into().unwrap());
            // World traffic is always even, dup traffic always odd — a
            // cross-communicator replay would violate this instantly.
            assert_eq!(va % 2, 0, "world comm delivered dup-comm payload");
            assert_eq!(vb % 2, 1, "dup comm delivered world-comm payload");
            s.acc = s.acc.wrapping_mul(33).wrapping_add(va);
            acc2 = acc2.wrapping_mul(29).wrapping_add(vb);
            s.i += 1;
            s.acc = (s.acc & 0xFFFF_FFFF) | (acc2 << 32);
            p.potential_checkpoint(s)?;
        }
        Ok((s.acc & 0xFFFF_FFFF, s.acc >> 32))
    }
}

#[test]
fn late_replay_never_crosses_communicators() {
    let n = 3;
    let iters = 24;
    let reference =
        run_job(n, &C3Config::every_ops(9999), None, &TwoCommApp { iters })
            .unwrap();
    for at_op in [40, 70, 100] {
        let cfg = C3Config::every_ops(13).with_failure(1, at_op);
        let report = run_job(n, &cfg, None, &TwoCommApp { iters }).unwrap();
        assert_eq!(report.restarts, 1, "at_op={at_op}");
        assert_eq!(report.outputs, reference.outputs, "at_op={at_op}");
    }
}

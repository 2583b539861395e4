//! Chaos matrix: many random failure schedules across rank counts,
//! checkpoint intervals, wire modes and recovery modes.
//! Every row runs through `ftfuzz::run_case`, so every killed job must
//! reproduce the failure-free outputs and leave an analyzer-, race- and
//! health-clean trace under `target/c3-traces/`.

use std::collections::BTreeSet;
use std::ops::Range;

use c3_apps::{DenseCg, Folding, Laplace, Neurosys};
use c3_core::epoch::MsgClass;
use c3_core::trace::TraceEvent;
use c3_core::{
    run_job, C3App, C3Config, C3Result, Chunker, PipelineConfig, Process,
    RecoveryMode, ReduceOp,
};
use ckptstore::impl_saveload_struct;
use ftfuzz::{run_case, Adversary, CaseOutcome};

/// Run each `(name, adversary)` row of `app` on `nranks` ranks under
/// `job`. Every row must come back clean, and the rows together must
/// commit a line. Returns the outcomes for the test's own asserts.
fn rows<A>(
    nranks: usize,
    app: &A,
    job: &C3Config,
    rows: &[(String, Adversary)],
) -> Vec<CaseOutcome>
where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    let outs: Vec<CaseOutcome> = rows
        .iter()
        .map(|(name, adv)| run_case(name, nranks, app, job, adv).clean(name))
        .collect();
    assert!(
        outs.iter().any(|o| o.last_committed.is_some()),
        "{}..: no row committed a checkpoint",
        rows[0].0
    );
    outs
}

/// Rollback-restarts across `outs`.
fn restarts(outs: &[CaseOutcome]) -> usize {
    outs.iter().map(|o| o.restarts).sum()
}

/// `Adversary::random(seed, nranks, count, ops)` rows named
/// `<prefix>_s<seed>`, one per seed.
fn random_rows(
    prefix: &str,
    seeds: Range<u64>,
    nranks: usize,
    count: usize,
    ops: Range<u64>,
) -> Vec<(String, Adversary)> {
    seeds
        .map(|seed| {
            let adv = Adversary::random(seed, nranks, count, ops.clone());
            (format!("{prefix}_s{seed}"), adv)
        })
        .collect()
}

/// A compact mixed-communication app: p2p ring + collectives, fully
/// deterministic so outputs must equal the failure-free reference
/// bit-for-bit.
struct MixedApp {
    iters: u64,
}

struct MixedState {
    i: u64,
    acc: u64,
}
impl_saveload_struct!(MixedState { i: u64, acc: u64 });

impl c3_core::C3App for MixedApp {
    type State = MixedState;
    type Output = u64;

    fn init(&self, p: &mut Process<'_>) -> C3Result<MixedState> {
        Ok(MixedState {
            i: 0,
            acc: 0x9E37 + p.rank() as u64,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut MixedState) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        while s.i < self.iters {
            // p2p ring step.
            let got =
                p.sendrecv(world, right, 1, &s.acc.to_le_bytes(), left, 1)?;
            s.acc ^= u64::from_le_bytes(got.payload[..8].try_into().unwrap())
                .rotate_left(7);
            // A collective every other iteration.
            if s.i.is_multiple_of(2) {
                let m =
                    p.allreduce_t::<u64>(world, ReduceOp::Max, &[s.acc])?;
                s.acc = s.acc.wrapping_add(m[0] >> 32);
            }
            // A deterministic broadcast every third iteration.
            if s.i.is_multiple_of(3) {
                let seed = if p.rank() == 0 { s.acc | 1 } else { 0 };
                let b = p.bcast_t::<u64>(world, 0, &[seed])?;
                s.acc = s.acc.wrapping_mul(b[0] | 1);
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

/// A ring halo exchange of two `f64`s with an allreduce every fifth
/// step.
struct StencilApp {
    iters: u64,
}
struct St {
    i: u64,
    x: Vec<f64>,
}
impl_saveload_struct!(St { i: u64, x: Vec<f64> });

impl C3App for StencilApp {
    type State = St;
    type Output = u64;

    fn init(&self, p: &mut Process<'_>) -> C3Result<St> {
        Ok(St {
            i: 0,
            x: (0..16).map(|k| (k + p.rank()) as f64).collect(),
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut St) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let (right, left) = ((p.rank() + 1) % n, (p.rank() + n - 1) % n);
        while s.i < self.iters {
            let edge = [s.x[0], s.x[15]].map(f64::to_le_bytes).concat();
            let got = p.sendrecv(world, right, 4, &edge, left, 4)?;
            let halo: Vec<f64> = got
                .payload
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            for k in 0..16 {
                s.x[k] = 0.5 * s.x[k] + 0.25 * halo[0] + 0.25 * halo[1];
            }
            if s.i.is_multiple_of(5) {
                let norm: f64 = s.x.iter().map(|v| v * v).sum();
                let total =
                    p.allreduce_t::<f64>(world, ReduceOp::Sum, &[norm])?;
                s.x[0] += total[0].sqrt() * 1e-6;
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        // Bit-stable digest of the state.
        Ok(s.x
            .iter()
            .fold(0u64, |h, v| h.wrapping_mul(31) ^ v.to_bits()))
    }
}

#[test]
fn chaos_campaign_small() {
    let table = random_rows("stencil_small", 0..4, 3, 1, 20..80);
    let job = C3Config::every_ops(15);
    let outs = rows(3, &StencilApp { iters: 25 }, &job, &table);
    assert!(restarts(&outs) >= 1, "no failure fired");
}

#[test]
fn chaos_with_double_failures() {
    let table = random_rows("stencil_double", 10..13, 3, 2, 20..120);
    rows(
        3,
        &StencilApp { iters: 30 },
        &C3Config::every_ops(12),
        &table,
    );
}

#[test]
fn chaos_across_rank_counts_and_intervals() {
    for nprocs in [2usize, 3, 5] {
        for interval in [10u64, 35] {
            let first = nprocs as u64 * 1000 + interval;
            let table = random_rows(
                &format!("chaos_n{nprocs}_i{interval}"),
                first..first + 3,
                nprocs,
                1,
                15..120,
            );
            let job = C3Config::every_ops(interval);
            let outs = rows(nprocs, &MixedApp { iters: 30 }, &job, &table);
            assert!(
                restarts(&outs) >= 1,
                "no failure fired at nprocs={nprocs} interval={interval}"
            );
        }
    }
}

#[test]
fn chaos_with_explicit_piggyback_mode() {
    // Same equivalence bar with the 9-byte explicit wire representation:
    // the encoding must not change what the protocol computes.
    let job = C3Config::every_ops(14)
        .with_piggyback(c3_core::PiggybackMode::Explicit);
    let table = random_rows("chaos_explicit", 200..203, 4, 2, 15..120);
    let outs = rows(4, &MixedApp { iters: 30 }, &job, &table);
    assert!(restarts(&outs) >= 1, "no failure fired");
}

#[test]
fn chaos_with_multi_failure_schedules() {
    let table = random_rows("chaos_multi", 100..104, 4, 3, 15..150);
    rows(4, &MixedApp { iters: 40 }, &C3Config::every_ops(18), &table);
}

#[test]
fn chaos_on_laplace_with_short_mtbf() {
    // A geometric failure process with mean spacing comparable to the
    // checkpoint interval — the "failures keep coming" regime.
    let table: Vec<(String, Adversary)> = (0..2)
        .map(|s| (format!("chaos_mtbf_s{s}"), Adversary::mtbf(s, 3, 60, 200)))
        .collect();
    let app = Laplace { n: 16, iters: 30 };
    rows(3, &app, &C3Config::every_ops(15), &table);
}

/// One evaluation application on `nranks` ranks, checkpointing every
/// `interval` ops, under one random kill per seed: a kill must fire.
fn app_rows<A>(
    name: &str,
    nranks: usize,
    app: &A,
    interval: u64,
    (seeds, ops): (Range<u64>, Range<u64>),
) where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    let table = random_rows(&format!("app_{name}"), seeds, nranks, 1, ops);
    let outs = rows(nranks, app, &C3Config::every_ops(interval), &table);
    assert!(restarts(&outs) >= 1, "{name}: no kill fired");
}

#[test]
fn dense_cg_survives_failures() {
    app_rows("dense_cg", 4, &DenseCg::new(48, 25), 40, (0..3, 30..150));
}

#[test]
fn laplace_survives_failures() {
    let app = Laplace { n: 32, iters: 30 };
    app_rows("laplace", 3, &app, 25, (5..8, 20..100));
}

#[test]
fn neurosys_survives_failures() {
    app_rows("neurosys", 4, &Neurosys::new(8, 20), 60, (20..23, 30..200));
}

#[test]
fn folding_survives_failures() {
    app_rows("folding", 3, &Folding::new(48, 30), 40, (30..33, 15..50));
}

/// §7's recomputation ablation regenerates the matrix block instead of
/// restoring it; the regenerated bits must match.
#[test]
fn recompute_checkpointing_recovers_from_failures() {
    let app = DenseCg::recompute(48, 25);
    let table = [60, 110]
        .map(|op| (format!("app_recompute_op{op}"), Adversary::single(1, op)));
    for out in rows(3, &app, &C3Config::every_ops(30), &table) {
        assert_eq!(out.restarts, 1, "the kill must fire once");
    }
}

/// The point-to-point event kinds and message classes a killed row's
/// trace reached.
fn wire_kinds(out: &CaseOutcome) -> Vec<String> {
    out.records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Send { suppressed, .. } => Some(
                if *suppressed {
                    "Send suppressed"
                } else {
                    "Send"
                }
                .into(),
            ),
            TraceEvent::RecvClassified { class, .. } => {
                Some(format!("RecvClassified {class:?}"))
            }
            e @ (TraceEvent::LateLogged { .. }
            | TraceEvent::EarlyRecorded { .. }
            | TraceEvent::ReplayLate { .. }
            | TraceEvent::SuppressSent { .. }
            | TraceEvent::SuppressRecv { .. }) => {
                format!("{e:?}").split(' ').next().map(str::to_owned)
            }
            _ => None,
        })
        .collect()
}

/// Two ranks whose messages cross every checkpoint line, whenever the
/// initiator starts it. Rank 0 sends `a` (tag 1), reaches its only
/// checkpoint site, then sends `b` (tag 2) and waits for an ack. Rank 1
/// receives `b` first, reaches its only site, then receives `a` and
/// acks. The fabric is per-sender FIFO, so by the time rank 1 holds `b`
/// it also holds any `pleaseCheckpoint` rank 0 sent before `b`, and
/// takes the line at that site. So `a` (sent before rank 0's site) is
/// late at rank 1 on every line, and either `b` or the ack is early. A
/// kill after a line commits therefore replays a logged late message
/// and suppresses a recorded early re-send on every run.
struct CrossingApp {
    iters: u64,
}

struct CrossingState {
    i: u64,
    acc: u64,
    /// 1 between the two halves of an iteration (past the site).
    mid: u64,
}
impl_saveload_struct!(CrossingState {
    i: u64,
    acc: u64,
    mid: u64
});

impl C3App for CrossingApp {
    type State = CrossingState;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<CrossingState> {
        Ok(CrossingState {
            i: 0,
            acc: 0,
            mid: 0,
        })
    }

    fn run(
        &self,
        p: &mut Process<'_>,
        s: &mut CrossingState,
    ) -> C3Result<u64> {
        let world = p.world();
        let word = |m: simmpi::RecvMsg| {
            u64::from_le_bytes(m.payload[..8].try_into().unwrap())
        };
        while s.i < self.iters {
            if p.rank() == 0 {
                if s.mid == 0 {
                    p.send(world, 1, 1, &(2 * s.i).to_le_bytes())?;
                    s.mid = 1;
                    p.potential_checkpoint(s)?;
                }
                p.send(world, 1, 2, &(2 * s.i + 1).to_le_bytes())?;
                let ack = word(p.recv(world, 1, 3)?);
                s.acc = s.acc.wrapping_mul(31).wrapping_add(ack);
            } else {
                if s.mid == 0 {
                    let b = word(p.recv(world, 0, 2)?);
                    s.acc = s.acc.wrapping_mul(31).wrapping_add(b);
                    s.mid = 1;
                    p.potential_checkpoint(s)?;
                }
                let a = word(p.recv(world, 0, 1)?);
                s.acc = s.acc.wrapping_mul(31).wrapping_add(a);
                p.send(world, 0, 3, &s.acc.to_le_bytes())?;
            }
            s.mid = 0;
            s.i += 1;
        }
        Ok(s.acc)
    }
}

/// The fabric is exactly-once and per-sender FIFO by construction, the
/// reliable transport the paper takes as given (§1.1). The 4-rank killed
/// Dense CG and Laplace cases here once also ran over a simulated lossy
/// wire; on the fabric alone, together with the constructed crossing
/// case, they reach every point-to-point event kind and message class
/// that wire reached (EXPERIMENTS.md M21), so dropping the wire lost no
/// protocol path. Whether a kill of the CG and Laplace cases lands after
/// a line that logged a late message depends on thread timing; the
/// crossing case reaches replay and suppression on every run.
#[test]
fn perfect_wire_reaches_every_class_the_lossy_wire_did() {
    let mut outs = rows(
        4,
        &DenseCg::new(32, 30),
        &C3Config::every_ops(10),
        &random_rows("wire_dense_cg", 11..14, 4, 1, 15..90),
    );
    outs.extend(rows(
        4,
        &Laplace { n: 16, iters: 36 },
        &C3Config::every_ops(9),
        &random_rows("wire_laplace", 21..24, 4, 1, 15..90),
    ));
    outs.extend(rows(
        2,
        &CrossingApp { iters: 30 },
        &C3Config::every_ops(6),
        &[
            ("wire_crossing_r1".into(), Adversary::single(1, 60)),
            ("wire_crossing_r0".into(), Adversary::single(0, 61)),
        ],
    ));
    assert!(outs.iter().all(|o| o.restarts >= 1), "every kill must fire");
    let seen: BTreeSet<String> = outs.iter().flat_map(wire_kinds).collect();
    let classes = [MsgClass::Late, MsgClass::IntraEpoch, MsgClass::Early];
    let want = ["Send", "Send suppressed", "LateLogged", "EarlyRecorded"]
        .into_iter()
        .chain(["ReplayLate", "SuppressSent", "SuppressRecv"])
        .map(str::to_owned)
        .chain(classes.map(|c| format!("RecvClassified {c:?}")));
    for kind in want {
        assert!(seen.contains(&kind), "{kind} never reached: {seen:?}");
    }
}

/// Two retained lines: the same kill schedules, plus kills just after a
/// commit, with `keep_last = 2` and cuts around 1 KiB. After a restart
/// the first GC keeps a line committed by an earlier attempt, so the
/// analyzer's cross-attempt GC check (I12) runs on the killed rows. The
/// trace census taken before the multi-level store's deletion found
/// that path only under tiers (EXPERIMENTS.md M23); this column keeps it
/// on one store.
#[test]
fn chaos_kills_with_two_retained_lines() {
    let io = PipelineConfig::default()
        .with_chunker(Chunker::cdc(1024))
        .with_keep_last(2);
    let mut table = random_rows("chaos_keep2", 900..903, 3, 2, 15..120);
    table.extend((910..912).map(|seed| {
        let adv = Adversary::kill_after_commit(seed, 3, 12, 2);
        (format!("chaos_after_commit_s{seed}"), adv)
    }));
    let job = C3Config::every_ops(12).with_io(io);
    let outs = rows(3, &MixedApp { iters: 30 }, &job, &table);
    assert!(restarts(&outs) >= 1, "no kill fired");
    let kept_across_attempts = |o: &CaseOutcome| {
        let committed_in = |attempt, line| {
            o.records.iter().any(|r| {
                r.attempt == attempt
                    && matches!(r.event, TraceEvent::Commit { ckpt } if ckpt == line)
            })
        };
        o.records.iter().any(|r| match r.event {
            TraceEvent::GcRan { kept } => {
                r.attempt > 1 && !committed_in(r.attempt, kept)
            }
            _ => false,
        })
    };
    assert!(
        outs.iter().any(kept_across_attempts),
        "no GC kept a line an earlier attempt committed"
    );
}

/// Localized-recovery column of the matrix: the same kill schedules and
/// the same equivalence bar, but deaths are repaired by online
/// spare-rank substitution — survivors keep running while the victim is
/// respawned and caught up from the consumed-message tape. The column
/// sweeps both repair paths: seeded non-initiator kills that splice
/// cleanly, and a double kill of one rank whose second injection lands
/// on the respawned incarnation mid-catch-up, forcing the supervisor to
/// abandon the splice and escalate to a full rollback. Every run's
/// trace must satisfy the state invariants (including the I15/I16
/// splice structure) and the happens-before race check.
#[test]
fn chaos_localized_splice_column() {
    let mut table: Vec<(String, Adversary)> = (600..603)
        .map(|seed| {
            let adv = Adversary::kill_then_splice(seed, 3, 30..90);
            (format!("splice_s{seed}"), adv)
        })
        .collect();
    // Second kill mid-splice: same rank, same op, twice — the repeat
    // fires on the catching-up incarnation.
    table.push((
        "splice_double_r2".into(),
        Adversary {
            recovery: RecoveryMode::Localized,
            ..Adversary::from_kills(vec![(2, 60, 1), (2, 60, 1)])
        },
    ));
    let outs =
        rows(3, &MixedApp { iters: 30 }, &C3Config::every_ops(14), &table);
    let splices: usize = outs.iter().map(|o| o.splices).sum();
    assert!(splices >= 3, "the single kills must be repaired online");
    assert!(
        restarts(&outs) >= 1,
        "the double kill must escalate to a rollback"
    );
}

/// Every rank folds the values rank 0 draws from the protocol's
/// non-determinism source. A draw outside the logged region is seeded by
/// the attempt, so a rollback past the logged region changes the
/// outputs, but never makes the ranks disagree.
struct NondetShared {
    iters: u64,
}
struct NS {
    i: u64,
    acc: u64,
}
impl_saveload_struct!(NS { i: u64, acc: u64 });
impl C3App for NondetShared {
    type State = NS;
    type Output = u64;
    fn init(&self, _p: &mut Process<'_>) -> C3Result<NS> {
        Ok(NS { i: 0, acc: 0 })
    }
    fn run(&self, p: &mut Process<'_>, s: &mut NS) -> C3Result<u64> {
        let world = p.world();
        while s.i < self.iters {
            // Rank 0 draws; everyone folds the same value.
            let draw = if p.rank() == 0 { p.nondet_u64()? } else { 0 };
            let b = p.bcast_t::<u64>(world, 0, &[draw])?;
            s.acc = s.acc.wrapping_mul(31).wrapping_add(b[0]);
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

/// Non-determinism under chaos: outputs legitimately differ from a
/// reference run (fresh draws happen beyond the logged region after a
/// rollback), but the protocol must keep every rank's view of the shared
/// draws *consistent within the run* — that is the guarantee the
/// non-determinism log provides (Section 3.2). The oracle is "ranks
/// agree", not the reference, so this test keeps its own loop.
#[test]
fn chaos_nondet_stays_globally_consistent() {
    // Metrics, unlike traces, are pure accumulators — one registry can
    // absorb every job and the health invariants still hold cumulatively.
    let reg = c3obs::Registry::new();
    for seed in 0..4u64 {
        // One sink per job: attempt numbering is per-job, so sharing a
        // sink across jobs would interleave unrelated streams.
        let sink = c3_core::TraceSink::new();
        let cfg = Adversary::random(seed + 500, 3, 1, 10..80)
            .apply(C3Config::every_ops(12))
            .with_trace(sink.clone())
            .with_obs(reg.clone());
        let report =
            run_job(3, &cfg, None, &NondetShared { iters: 25 }).unwrap();
        assert!(
            report.outputs.windows(2).all(|w| w[0] == w[1]),
            "ranks disagree on the shared nondet stream (seed {seed}): {:?}",
            report.outputs
        );
        let records = sink.take();
        let verdict = c3verify::analyze(&records);
        assert!(
            verdict.is_clean(),
            "protocol invariants violated under chaos (seed {seed}):\n{}",
            verdict.render()
        );
        let races = c3verify::race_check(&records);
        assert!(
            races.is_clean(),
            "happens-before races under chaos (seed {seed}):\n{}",
            races.render()
        );
    }
    let snap = reg.snapshot();
    let violations = c3_core::health_check(&snap);
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert!(
        snap.counter_total("c3_commits_total") > 0,
        "no line committed"
    );
}

/// The driver's reference oracle: the same app, killed after a line
/// committed, re-draws past the logged region on the restarted attempt,
/// so `run_case` must report an output divergence (and nothing else:
/// the trace itself is clean).
#[test]
fn the_driver_flags_outputs_that_leave_the_reference() {
    let name = "chaos_nondet_diverges";
    let app = NondetShared { iters: 25 };
    let adv = Adversary::single(0, 40);
    let out = run_case(name, 3, &app, &C3Config::every_ops(12), &adv);
    assert_eq!(out.restarts, 1, "the kill must fire");
    assert!(
        out.recovered_from.iter().all(|&line| line >= 1),
        "the kill must follow a committed line: {:?}",
        out.recovered_from
    );
    let label = out.failure.as_ref().map(|f| f.label());
    assert_eq!(label.as_deref(), Some("output-divergence"));
}

/// Three ranks checkpointing at one shared site per iteration on rank
/// 0's request, which it makes between the first two of three world
/// collectives (no rank is then before its previous site, and every rank
/// has the request before this site). Rank 1 sends rank 0 one message per
/// iteration, which rank 0 receives after the next iteration's three
/// collectives: the message sent before a line is in rank 0's log, and
/// replaying it is the last thing rank 0's recovery does. Every protocol
/// operation rank 0 makes between its `RecoveryStart` and its
/// `RecoveryComplete` leaves exactly one trace record, so the window's
/// length in operations can be read from the trace.
struct WindowApp;

impl C3App for WindowApp {
    type State = MixedState;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<MixedState> {
        Ok(MixedState { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut MixedState) -> C3Result<u64> {
        let world = p.world();
        let me = p.rank() as u64;
        let mix = |h: u64, v: &[u64]| {
            v.iter().fold(h, |h, &v| h.wrapping_mul(31).wrapping_add(v))
        };
        while s.i < 24 {
            let w =
                p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc, me])?;
            if s.i % 4 == 1 {
                p.request_checkpoint()?;
            }
            let g = p.allgather_flat_t::<u64>(world, &[s.acc ^ s.i])?;
            let m = p.allreduce_t::<u64>(world, ReduceOp::Max, &[s.acc])?;
            s.acc = mix(mix(mix(s.acc, &w), &g), &m);
            if me == 1 {
                p.send(world, 0, 8, &s.i.to_le_bytes())?;
            } else if me == 0 && s.i > 0 {
                let got = p.recv(world, 1, 8)?;
                s.acc ^=
                    u64::from_le_bytes(got.payload[..8].try_into().unwrap());
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        if me == 0 {
            p.recv(world, 1, 8)?;
        }
        Ok(s.acc)
    }
}

/// `rank`'s recovery window on `attempt`: the records between its
/// `RecoveryStart` and its `RecoveryComplete` (or its end).
fn recovery_window(
    out: &CaseOutcome,
    rank: u32,
    attempt: u64,
) -> Vec<&TraceEvent> {
    out.records
        .iter()
        .filter(|r| r.rank == rank && r.attempt == attempt)
        .map(|r| &r.event)
        .skip_while(|e| !matches!(e, TraceEvent::RecoveryStart { .. }))
        .skip(1)
        .take_while(|e| !matches!(e, TraceEvent::RecoveryComplete))
        .collect()
}

/// A second death inside the replay window of the first restart. The
/// first run kills rank 2 after a line committed; its trace gives rank
/// 0's window on attempt 2 in protocol operations. The second run adds a
/// kill of rank 0 at the window's midpoint, which must land between rank
/// 0's `RecoveryStart` and `RecoveryComplete`, and the job must still
/// finish with the failure-free outputs and a clean trace.
#[test]
fn a_second_death_inside_the_replay_window_recovers() {
    let job = C3Config {
        trigger: c3_core::CheckpointTrigger::Manual,
        ..C3Config::default()
    };
    let first = (2, 53, 1);
    let once = Adversary::from_kills(vec![first]);
    let out = run_case("chaos_window_once", 3, &WindowApp, &job, &once)
        .clean("chaos_window_once");
    assert_eq!(out.restarts, 1, "the first kill must fire");
    assert!(out.recovered_from[0] > 0, "the kill must follow a commit");
    // Recovery opens before rank 0's first operation; each operation in
    // the window leaves one record, and the one that reports the replay
    // drained is the next.
    let ops = recovery_window(&out, 0, 2)
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::CollectiveControl { .. }
                    | TraceEvent::Send { .. }
                    | TraceEvent::RecvClassified { .. }
                    | TraceEvent::ReplayLate { .. }
            )
        })
        .count() as u64;
    assert!(ops >= 3, "rank 0's window holds its replayed receive");
    let mid = (ops + 2) / 2;
    let twice = Adversary::from_kills(vec![first, (0, mid, 2)]);
    let out = run_case("chaos_window_twice", 3, &WindowApp, &job, &twice)
        .clean("chaos_window_twice");
    assert_eq!(out.restarts, 2, "both kills must fire");
    let window = recovery_window(&out, 0, 2);
    assert!(
        matches!(window.last(), Some(TraceEvent::FailStop { op }) if *op == mid),
        "the second kill must land inside rank 0's replay window: \
         {window:?}"
    );
}

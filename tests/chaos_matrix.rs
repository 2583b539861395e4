//! Chaos matrix: many random failure schedules across rank counts and
//! checkpoint intervals — the protocol's equivalence guarantee must hold
//! for every cell.

use std::collections::BTreeSet;

use c3_apps::{DenseCg, Laplace};
use c3_core::epoch::MsgClass;
use c3_core::trace::TraceEvent;
use c3_core::{run_job, C3App, C3Config, C3Result, Process, ReduceOp};
use ckptstore::impl_saveload_struct;
use ftsim::{chaos_check, FailureSchedule};

/// Assert the metrics accumulated across a chaos campaign pass every
/// cross-layer health invariant (commit/attempt accounting,
/// drain-before-commit, span/commit pairing, structural consistency),
/// and that the campaign actually committed checkpoints.
fn assert_healthy(reg: &c3obs::Registry) {
    let snap = reg.snapshot();
    let violations = c3_core::health_check(&snap);
    assert!(
        violations.is_empty(),
        "health invariants violated:\n{}",
        violations.join("\n")
    );
    assert!(
        snap.counter_total("c3_commits_total") > 0,
        "campaign committed no checkpoints"
    );
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

#[test]
fn chaos_across_rank_counts_and_intervals() {
    for &nprocs in &[2usize, 3, 5] {
        for &interval in &[10u64, 35] {
            let schedules: Vec<FailureSchedule> = (0..3)
                .map(|k| {
                    FailureSchedule::random(
                        (nprocs as u64) * 1000 + interval + k,
                        nprocs,
                        1,
                        15..120,
                    )
                })
                .collect();
            let reg = c3obs::Registry::new();
            let report = chaos_check(
                nprocs,
                &C3Config::every_ops(interval).with_obs(reg.clone()),
                &MixedApp { iters: 30 },
                &schedules,
            )
            .unwrap_or_else(|e| {
                panic!("nprocs={nprocs} interval={interval}: {e}")
            });
            assert!(
                report.total_restarts >= 1,
                "no failure fired at nprocs={nprocs} interval={interval}"
            );
            assert_healthy(&reg);
        }
    }
}

#[test]
fn chaos_with_explicit_piggyback_mode() {
    // Same equivalence bar with the 9-byte explicit wire representation:
    // the encoding must not change what the protocol computes.
    let schedules: Vec<FailureSchedule> = (200..203)
        .map(|seed| FailureSchedule::random(seed, 4, 2, 15..120))
        .collect();
    let reg = c3obs::Registry::new();
    let report = chaos_check(
        4,
        &C3Config::every_ops(14)
            .with_piggyback(c3_core::PiggybackMode::Explicit)
            .with_obs(reg.clone()),
        &MixedApp { iters: 30 },
        &schedules,
    )
    .unwrap();
    assert!(report.total_restarts >= 1, "no failure fired");
    assert_healthy(&reg);
}

#[test]
fn chaos_with_multi_failure_schedules() {
    let schedules: Vec<FailureSchedule> = (100..104)
        .map(|seed| FailureSchedule::random(seed, 4, 3, 15..150))
        .collect();
    let reg = c3obs::Registry::new();
    chaos_check(
        4,
        &C3Config::every_ops(18).with_obs(reg.clone()),
        &MixedApp { iters: 40 },
        &schedules,
    )
    .unwrap();
    assert_healthy(&reg);
}

#[test]
fn chaos_on_laplace_with_short_mtbf() {
    // A geometric failure process with mean spacing comparable to the
    // checkpoint interval — the "failures keep coming" regime.
    let schedules: Vec<FailureSchedule> = (0..2)
        .map(|seed| FailureSchedule::mtbf(seed, 3, 60, 200))
        .collect();
    let reg = c3obs::Registry::new();
    chaos_check(
        3,
        &C3Config::every_ops(15).with_obs(reg.clone()),
        &Laplace { n: 16, iters: 30 },
        &schedules,
    )
    .unwrap();
    assert_healthy(&reg);
}

/// One killed job on the fabric: the outputs equal the failure-free
/// reference, the metrics are healthy, and the trace is analyzer- and
/// race-clean and is written to `target/c3-traces/<name>.c3trace`.
/// Returns the point-to-point event kinds and message classes the trace
/// reached.
fn wire_case<A>(
    name: &str,
    nprocs: usize,
    app: &A,
    interval: u64,
    kills: FailureSchedule,
) -> Vec<String>
where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    let reference = run_job(nprocs, &C3Config::every_ops(interval), None, app)
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    let sink = c3_core::TraceSink::new();
    let reg = c3obs::Registry::new();
    let cfg = kills
        .apply(C3Config::every_ops(interval))
        .with_trace(sink.clone())
        .with_obs(reg.clone());
    let report = run_job(nprocs, &cfg, None, app)
        .unwrap_or_else(|e| panic!("{name}: killed run failed: {e}"));
    assert_eq!(
        report.outputs, reference.outputs,
        "{name}: recovery diverged from the reference"
    );
    assert!(report.restarts >= 1, "{name}: the kill must actually fire");
    assert_healthy(&reg);
    let records = sink.take();
    let verdict = c3verify::analyze(&records);
    assert!(verdict.is_clean(), "{name}:\n{}", verdict.render());
    let races = c3verify::race_check(&records);
    assert!(races.is_clean(), "{name}:\n{}", races.render());
    c3verify::write_trace(name, &records).expect("write trace artifact");
    records
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
    let mut seen = BTreeSet::new();
    for seed in [11u64, 12, 13] {
        let name = format!("wire_dense_cg_s{seed}");
        let kills = FailureSchedule::random(seed, 4, 1, 15..90);
        seen.extend(wire_case(&name, 4, &DenseCg::new(32, 30), 10, kills));
    }
    for seed in [21u64, 22, 23] {
        let name = format!("wire_laplace_s{seed}");
        let app = Laplace { n: 16, iters: 36 };
        let kills = FailureSchedule::random(seed, 4, 1, 15..90);
        seen.extend(wire_case(&name, 4, &app, 9, kills));
    }
    for (name, rank, at_op) in
        [("wire_crossing_r1", 1, 60), ("wire_crossing_r0", 0, 61)]
    {
        let kills = FailureSchedule::single(rank, at_op);
        seen.extend(wire_case(name, 2, &CrossingApp { iters: 30 }, 6, kills));
    }
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

/// Tiered-storage column of the matrix: the same kill schedules, but
/// every job checkpoints onto a multi-level store (local staging +
/// partner replicas + a Reed–Solomon global tier, auto-wired by the
/// driver from the `tiers` knob) with two retained lines. The async
/// tier mover runs concurrently with the application and with GC, and
/// kills land wherever the seeds put them — including mid-drain — so
/// the equivalence bar and every health invariant must hold with the
/// extra machinery engaged.
#[test]
fn chaos_kills_on_a_multi_level_store() {
    // Small-cut column: the kills also land while content-defined chunk
    // batches are being encoded and drained to the tiers.
    let io = c3_core::PipelineConfig::default()
        .with_chunker(c3_core::Chunker::cdc(1024))
        .with_keep_last(2)
        .with_tiers(c3_core::TierTopology::partner_and_erasure(1, 2, 1));
    let schedules: Vec<FailureSchedule> = (0..3)
        .map(|seed| FailureSchedule::random(seed + 900, 3, 2, 15..120))
        .chain((0..2).map(|seed| {
            FailureSchedule::kill_during_tier_drain(seed + 910, 3, 12, 2)
        }))
        .collect();
    let reg = c3obs::Registry::new();
    let report = chaos_check(
        3,
        &C3Config::every_ops(12).with_io(io).with_obs(reg.clone()),
        &MixedApp { iters: 30 },
        &schedules,
    )
    .unwrap();
    assert!(
        report.total_restarts >= 1,
        "no kill fired on the tiered store"
    );
    assert_healthy(&reg);
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
    use ftsim::FailureSchedule as FS;

    let nprocs = 3;
    let app = MixedApp { iters: 30 };
    let base = C3Config::every_ops(14);
    let reference = run_job(nprocs, &base, None, &app).unwrap();

    let schedules: Vec<FS> = (0..3)
        .map(|seed| FS::kill_then_splice(seed + 600, nprocs, 30..90))
        // Second kill mid-splice: same rank, same op, twice — the
        // repeat fires on the catching-up incarnation.
        .chain([FS::single(2, 60).with_injection(2, 60).with_localized()])
        .collect();

    let reg = c3obs::Registry::new();
    let (mut splices, mut restarts) = (0usize, 0usize);
    for (idx, schedule) in schedules.iter().enumerate() {
        let sink = c3_core::TraceSink::new();
        let cfg = schedule
            .apply(base.clone())
            .with_trace(sink.clone())
            .with_obs(reg.clone());
        let report = run_job(nprocs, &cfg, None, &app).unwrap();
        assert_eq!(
            report.outputs, reference.outputs,
            "schedule #{idx} ({schedule:?}) diverged from the reference"
        );
        let records = sink.take();
        let verdict = c3verify::analyze(&records);
        assert!(
            verdict.is_clean(),
            "invariants violated under schedule #{idx}:\n{}",
            verdict.render()
        );
        let races = c3verify::race_check(&records);
        assert!(
            races.is_clean(),
            "races under schedule #{idx}:\n{}",
            races.render()
        );
        splices += report.splices;
        restarts += report.restarts;
    }
    assert!(splices >= 3, "the single kills must be repaired online");
    assert!(restarts >= 1, "the double kill must escalate to a rollback");
    assert_healthy(&reg);
}

/// Non-determinism under chaos: outputs legitimately differ from a
/// reference run (fresh draws happen beyond the logged region after a
/// rollback), but the protocol must keep every rank's view of the shared
/// draws *consistent within the run* — that is the guarantee the
/// non-determinism log provides (Section 3.2).
#[test]
fn chaos_nondet_stays_globally_consistent() {
    struct NondetShared {
        iters: u64,
    }
    struct NS {
        i: u64,
        acc: u64,
    }
    impl_saveload_struct!(NS { i: u64, acc: u64 });
    impl c3_core::C3App for NondetShared {
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

    // Metrics, unlike traces, are pure accumulators — one registry can
    // absorb every job and the health invariants still hold cumulatively.
    let reg = c3obs::Registry::new();
    for seed in 0..4u64 {
        // One sink per job: attempt numbering is per-job, so sharing a
        // sink across jobs would interleave unrelated streams.
        let sink = c3_core::TraceSink::new();
        let schedule = FailureSchedule::random(seed + 500, 3, 1, 10..80);
        let cfg = schedule
            .apply(C3Config::every_ops(12))
            .with_trace(sink.clone())
            .with_obs(reg.clone());
        let report =
            run_job(3, &cfg, None, &NondetShared { iters: 25 }).unwrap();
        assert!(
            report.outputs.windows(2).all(|w| w[0] == w[1]),
            "ranks disagree on the shared nondet stream (seed {seed}):              {:?}",
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
    assert_healthy(&reg);
}

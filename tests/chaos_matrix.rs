//! Chaos matrix: many random failure schedules across rank counts and
//! checkpoint intervals — the protocol's equivalence guarantee must hold
//! for every cell.

use c3_apps::Laplace;
use c3_core::{C3Config, C3Result, Process, ReduceOp};
use ckptstore::impl_saveload_struct;
use ftsim::{chaos_check, FailureSchedule};

/// Assert the metrics accumulated across a chaos campaign pass every
/// cross-layer health invariant (commit/attempt accounting,
/// drain-before-commit, span/commit pairing, structural consistency,
/// and — on a perfect wire — zero retransmissions), and that the
/// campaign actually committed checkpoints.
fn assert_healthy(reg: &c3obs::Registry, perfect_wire: bool) {
    let snap = reg.snapshot();
    let violations = c3_core::health_check(&snap, perfect_wire);
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
            assert_healthy(&reg, true);
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
    assert_healthy(&reg, true);
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
    assert_healthy(&reg, true);
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
    assert_healthy(&reg, true);
}

/// Network column of the matrix: the same kill schedules, but the
/// attempt runs over a seeded lossy wire. Rollback, recovery, and replay
/// must still reproduce the perfect-wire failure-free reference exactly
/// — the reliable-delivery sublayer may not leak a single wire fault
/// into the protocol.
#[test]
fn chaos_kills_ride_a_lossy_wire() {
    let schedules: Vec<FailureSchedule> = (0..3)
        .map(|seed| {
            FailureSchedule::random(seed + 40, 3, 1, 15..110)
                .with_net(simmpi::NetCond::lossy(seed + 40))
        })
        .collect();
    let reg = c3obs::Registry::new();
    let report = chaos_check(
        3,
        &C3Config::every_ops(14).with_obs(reg.clone()),
        &MixedApp { iters: 30 },
        &schedules,
    )
    .unwrap();
    assert!(report.total_restarts >= 1, "no kill fired over the wire");
    // Lossy wire: retransmissions are legitimate, so skip the
    // perfect-wire invariant but keep the rest.
    assert_healthy(&reg, false);
}

/// Kill-during-retransmission column: the drop rate is cranked high
/// enough that repair traffic is always in flight, so the kill lands
/// while the victim (or its peers) hold unacknowledged frames. Dead-rank
/// write-off must keep the survivors from diagnosing a spurious
/// `NetUnreachable`; the failure detector alone ends the attempt.
#[test]
fn chaos_kill_lands_during_retransmission() {
    let wire = simmpi::NetCond::lossy(77)
        .with_drop_ppm(150_000)
        .with_retransmit(simmpi::RetransmitPolicy {
            base_delay_us: 100,
            max_delay_us: 1_000,
            budget: 64,
        });
    let schedules: Vec<FailureSchedule> = (0..3)
        .map(|seed| {
            FailureSchedule::random(seed + 70, 3, 1, 20..100)
                .with_net(wire.clone())
        })
        .collect();
    let reg = c3obs::Registry::new();
    let report = chaos_check(
        3,
        &C3Config::every_ops(12).with_obs(reg.clone()),
        &MixedApp { iters: 30 },
        &schedules,
    )
    .unwrap();
    assert!(report.total_restarts >= 1, "no kill fired mid-repair");
    assert_healthy(&reg, false);
    assert!(
        reg.snapshot().counter_total("net_retransmits_total") > 0,
        "the cranked drop rate must force repair traffic"
    );
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
    assert_healthy(&reg, true);
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
    use c3_core::run_job;
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
    assert_healthy(&reg, true);
}

/// Non-determinism under chaos: outputs legitimately differ from a
/// reference run (fresh draws happen beyond the logged region after a
/// rollback), but the protocol must keep every rank's view of the shared
/// draws *consistent within the run* — that is the guarantee the
/// non-determinism log provides (Section 3.2).
#[test]
fn chaos_nondet_stays_globally_consistent() {
    use c3_core::run_job;

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
    assert_healthy(&reg, true);
}

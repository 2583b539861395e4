//! Network-chaos matrix: full fault-tolerant jobs — checkpoints, kills,
//! rollbacks, recovery — running over the netsim lossy wire. The paper
//! assumes a reliable interconnect (Section 1.1); these tests make the
//! reliable-delivery sublayer earn that assumption while the C³ protocol
//! runs above it, and require the recorded traces to stay clean under
//! every invariant the analyzer knows (I1–I13).
//!
//! Traces are also written to `target/c3-traces/` so the CI `net-chaos`
//! job can re-check them with the `c3verify` CLI.

use c3_apps::{DenseCg, Laplace};
use c3_core::trace::{encode_trace, TraceRecord};
use c3_core::{run_job, C3App, C3Config, TraceSink};
use c3verify::analyze;
use ftsim::FailureSchedule;
use simmpi::{NetCond, RetransmitPolicy};

/// One matrix cell: a perfect-wire failure-free reference, then the same
/// app over a seeded lossy wire with a rank kill, trace-checked.
fn net_chaos_case<A>(name: &str, app: &A, interval: u64, seed: u64)
where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    let reference = run_job(4, &C3Config::every_ops(interval), None, app)
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    assert_eq!(
        reference.restarts, 0,
        "{name}: reference must be failure-free"
    );

    let sink = TraceSink::new();
    let reg = c3obs::Registry::new();
    let schedule = FailureSchedule::random(seed, 4, 1, 15..90)
        .with_net(NetCond::lossy(seed));
    let cfg = schedule
        .apply(C3Config::every_ops(interval))
        .with_trace(sink.clone())
        .with_obs(reg.clone());
    let report = run_job(4, &cfg, None, app).unwrap_or_else(|e| {
        panic!("{name}: lossy-wire run failed to recover: {e}")
    });

    assert_eq!(
        report.outputs, reference.outputs,
        "{name}: recovery over the lossy wire diverged from the reference"
    );
    assert!(report.restarts >= 1, "{name}: the kill must actually fire");
    let masked: u64 = report
        .stats
        .iter()
        .map(|s| s.net_wire_dropped + s.net_wire_duplicated + s.net_wire_held)
        .sum();
    assert!(masked > 0, "{name}: the lossy wire produced no faults");

    // The metrics-side health invariants must agree with the trace-side
    // analyzer: commit accounting, drain-before-commit, span pairing.
    // `perfect_wire = false`: retransmissions are the sublayer doing its
    // job here, not a fault.
    let snap = reg.snapshot();
    let violations = c3_core::health_check(&snap, false);
    assert!(
        violations.is_empty(),
        "{name}: metrics health invariants violated:\n{}",
        violations.join("\n")
    );
    assert!(
        snap.counter_total("c3_failstops_total") >= 1,
        "{name}: the kill must be visible in the metrics"
    );

    let records = sink.take();
    let verdict = analyze(&records);
    assert!(
        verdict.is_clean(),
        "{name}: protocol invariants violated over the lossy wire:\n{}",
        verdict.render()
    );
    let races = c3verify::race_check(&records);
    assert!(
        races.is_clean(),
        "{name}: happens-before races over the lossy wire:\n{}",
        races.render()
    );
    c3verify::write_trace(name, &records).expect("write trace artifact");
}

#[test]
fn dense_cg_recovers_over_lossy_wire_across_seeds() {
    for seed in [11u64, 12, 13] {
        net_chaos_case(
            &format!("net_dense_cg_s{seed}"),
            &DenseCg::new(32, 30),
            10,
            seed,
        );
    }
}

#[test]
fn laplace_recovers_over_lossy_wire_across_seeds() {
    for seed in [21u64, 22, 23] {
        net_chaos_case(
            &format!("net_laplace_s{seed}"),
            &Laplace { n: 16, iters: 36 },
            9,
            seed,
        );
    }
}

/// Canonical order for cross-run trace comparison: ranks interleave their
/// appends into the shared sink nondeterministically, but each rank's own
/// stream is totally ordered by `(attempt, seq)`.
fn canonicalize(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    records.sort_by_key(|r| (r.rank, r.attempt, r.seq));
    records
}

/// The reproducibility contract: with one (NetCond seed, FailureSchedule)
/// pair, two jobs produce identical outputs, identical repair counters,
/// and byte-identical trace artifacts.
///
/// The wire here duplicates, reorders, and delays — every fault whose
/// decision depends only on the seeded hash of the frame's link
/// coordinates — but does not drop (`drop_ppm` 0) and never retransmits
/// on a timer (an hour-scale base delay), because retransmission timing
/// is wall-clock-driven and a retransmitted frame rolls fresh wire
/// faults. Everything that remains is a pure function of the seed.
#[test]
fn equal_seed_equal_schedule_runs_are_byte_identical() {
    let cond = NetCond::perfect()
        .with_dup_ppm(60_000)
        .with_reorder(150_000, 3)
        .with_delay(150_000, 200, 300)
        .with_retransmit(RetransmitPolicy {
            base_delay_us: 3_600_000_000,
            max_delay_us: 3_600_000_000,
            budget: 32,
        });

    struct RingApp;
    struct RS {
        i: u64,
        acc: u64,
    }
    ckptstore::impl_saveload_struct!(RS { i: u64, acc: u64 });
    impl C3App for RingApp {
        type State = RS;
        type Output = u64;
        fn init(&self, p: &mut c3_core::Process<'_>) -> c3_core::C3Result<RS> {
            Ok(RS {
                i: 0,
                acc: p.rank() as u64 + 1,
            })
        }
        fn run(
            &self,
            p: &mut c3_core::Process<'_>,
            s: &mut RS,
        ) -> c3_core::C3Result<u64> {
            let world = p.world();
            let n = p.size();
            let right = (p.rank() + 1) % n;
            let left = (p.rank() + n - 1) % n;
            while s.i < 12 {
                let got = p.sendrecv(
                    world,
                    right,
                    3,
                    &s.acc.to_le_bytes(),
                    left,
                    3,
                )?;
                s.acc = s.acc.wrapping_mul(31).wrapping_add(
                    u64::from_le_bytes(got.payload[..8].try_into().unwrap()),
                );
                s.i += 1;
            }
            Ok(s.acc)
        }
    }

    let run = || {
        let sink = TraceSink::new();
        // Manual trigger: no checkpoints, so no any-source control
        // gathers — each rank's decision sequence is fully determined.
        let cfg = FailureSchedule::none()
            .with_net(cond.clone())
            .apply(C3Config::default())
            .with_trace(sink.clone());
        let report = run_job(4, &cfg, None, &RingApp).unwrap();
        let net: Vec<(u64, u64, u64)> = report
            .stats
            .iter()
            .map(|s| {
                (s.net_retransmits, s.net_wire_duplicated, s.net_wire_held)
            })
            .collect();
        (
            report.outputs,
            net,
            encode_trace(&canonicalize(sink.take())),
        )
    };

    let (out_a, net_a, trace_a) = run();
    let (out_b, net_b, trace_b) = run();
    assert_eq!(out_a, out_b, "outputs diverged between identical runs");
    assert_eq!(net_a, net_b, "wire-fault counters diverged");
    assert_eq!(
        net_a.iter().map(|t| t.0).sum::<u64>(),
        0,
        "determinism harness must not retransmit on a timer"
    );
    assert!(
        net_a.iter().any(|t| t.1 + t.2 > 0),
        "the wire must actually misbehave for the test to mean anything"
    );
    assert_eq!(trace_a, trace_b, "trace artifacts are not byte-identical");
}

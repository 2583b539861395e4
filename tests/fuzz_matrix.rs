//! ftfuzz integration matrix: corpus replay, campaign determinism, and
//! the planted-bug drill.
//!
//! * Every seed in `tests/fuzz_corpus/seeds.txt` replays as a
//!   regression test — once a seed caught something, it keeps guarding
//!   against the regression forever. The driver writes each trace to
//!   `target/c3-traces/fuzz_s<seed>.c3trace` for the CI verification job.
//! * The same seed run twice must produce the same outputs and the same
//!   verdict; on the wall-clock-free [`ftfuzz::Scenario::determinized`]
//!   projection the canonical traces must be byte-identical (the
//!   equal-seed guarantee, over every seed the campaign generator
//!   derives).
//! * An intentionally planted protocol bug (commit hoisted before the
//!   pipeline drain) must be detected and shrunk to a small reproducer
//!   — the fuzzer's own end-to-end test.

use std::path::PathBuf;

use c3_core::trace::encode_trace;
use ftfuzz::{
    canonicalize, reproducer, run_campaign, shrink, FuzzFailure, Plant,
    Scenario,
};

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fuzz_corpus/seeds.txt")
}

#[test]
fn corpus_seeds_replay_clean() {
    let seeds = ftfuzz::load_seeds(&corpus_path()).expect("parse corpus");
    assert!(!seeds.is_empty(), "the corpus must not be empty");
    for seed in seeds {
        let scenario = Scenario::from_seed(seed);
        let out = run_campaign(&scenario, None);
        assert!(
            out.failure.is_none(),
            "corpus seed {seed} regressed:\n{}",
            out.failure.unwrap()
        );
        assert!(
            out.last_committed.is_some(),
            "corpus seed {seed}: no line ever committed"
        );
    }
}

#[test]
fn equal_seeds_reach_equal_outputs_and_verdicts() {
    // The full campaign (kills, storage faults) is subject
    // to wall-clock scheduling, so its traces may differ between runs —
    // but where it lands must not: same outputs, same verdict.
    for seed in [1u64, 5, 19] {
        let scenario = Scenario::from_seed(seed);
        let a = run_campaign(&scenario, None);
        let b = run_campaign(&scenario, None);
        assert_eq!(a.outputs, b.outputs, "seed {seed}: outputs diverged");
        assert_eq!(
            a.failure.is_none(),
            b.failure.is_none(),
            "seed {seed}: verdicts diverged: {:?} vs {:?}",
            a.failure,
            b.failure
        );
        // Note `last_committed` is NOT compared: how many lines commit
        // before the horizon depends on wall-clock thread timing.
        // The determinized projection below is where traces must match.
    }
}

#[test]
fn determinized_projection_has_byte_identical_traces() {
    // Strip every wall-clock dimension (kills, faults, interval
    // checkpointing) and the recorded trace becomes a pure function of
    // the seed.
    for seed in [1u64, 6, 44] {
        let scenario = Scenario::from_seed(seed).determinized();
        let a = run_campaign(&scenario, None);
        let b = run_campaign(&scenario, None);
        assert!(a.failure.is_none(), "{}", a.failure.unwrap());
        assert!(b.failure.is_none(), "{}", b.failure.unwrap());
        assert_eq!(
            encode_trace(&canonicalize(a.records)),
            encode_trace(&canonicalize(b.records)),
            "seed {seed}: determinized traces must be byte-identical"
        );
    }
}

#[test]
fn planted_commit_hoist_is_found_and_shrunk_small() {
    let scenario = Scenario::from_seed(59); // the heaviest corpus seed
    let plant = Some(Plant::HoistCommitBeforeDrain);

    let out = run_campaign(&scenario, plant);
    assert!(out.plant_applied, "a committing campaign has a plant site");
    match &out.failure {
        Some(FuzzFailure::Invariants(r)) => assert!(
            r.violations.iter().any(|v| v.invariant.starts_with("I13")),
            "plant must trip I13:\n{}",
            r.render()
        ),
        other => panic!("expected an I13 verdict, got {other:?}"),
    }

    let shrunk = shrink(&scenario, plant, 100).expect("failure reproduces");
    assert!(
        shrunk.scenario.nranks <= 4,
        "shrunk to {} ranks",
        shrunk.scenario.nranks
    );
    assert!(
        shrunk.scenario.fault_count() <= 2,
        "shrunk to {} faults",
        shrunk.scenario.fault_count()
    );
    assert_eq!(
        shrunk.failure.label(),
        "invariant-I13-drain-before-commit",
        "shrinking must preserve the failure"
    );

    let snippet = reproducer(&shrunk.scenario, plant, &shrunk.failure);
    assert!(snippet.contains("#[test]"));
    assert!(snippet.contains("ftfuzz::run_campaign"));
    assert!(snippet.contains("Plant::HoistCommitBeforeDrain"));
}

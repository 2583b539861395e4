//! Protocol-invariant verification matrix: run the paper's benchmark
//! applications at 4 ranks with checkpointing and fault injection while
//! recording a protocol trace, then require `c3verify` to find zero
//! invariant violations.
//!
//! This complements `chaos_matrix.rs`: the chaos tests sweep *schedules*
//! (the job still computes the right answer across failures), while this
//! matrix checks the *protocol itself* on the paper's applications —
//! every classification, send-count announcement, initiator phase,
//! suppression and collective control exchange obeys the invariants of
//! Bronevetsky et al. (PPoPP 2003). Every row runs through
//! `ftfuzz::run_case`, which also compares outputs with the failure-free
//! run and checks races and metrics health.

use c3_apps::{DenseCg, Laplace};
use c3_core::{C3App, C3Config, PiggybackMode};
use ftfuzz::{run_case, Adversary};

/// A row: name, checkpoint interval, piggyback mode, adversary, and
/// whether a kill must fire.
type Row = (&'static str, u64, PiggybackMode, Adversary, bool);

/// Run each row of `app` at 4 ranks: clean, with at least one committed
/// checkpoint, and restarted where the row expects it.
fn rows<A>(app: &A, rows: &[Row])
where
    A: C3App,
    A::Output: PartialEq + std::fmt::Debug,
{
    for (name, interval, mode, adv, expect_restart) in rows {
        let job = C3Config::every_ops(*interval).with_piggyback(*mode);
        let out = run_case(name, 4, app, &job, adv).clean(name);
        assert!(
            out.last_committed.is_some(),
            "{name}: expected at least one committed checkpoint"
        );
        if *expect_restart {
            assert!(out.restarts >= 1, "{name}: failure must actually fire");
        }
    }
}

const PACKED: PiggybackMode = PiggybackMode::Packed;
const EXPLICIT: PiggybackMode = PiggybackMode::Explicit;

#[test]
fn dense_cg_is_invariant_clean_without_failures() {
    let none = Adversary::none();
    rows(
        &DenseCg::new(32, 24),
        &[("verify_cg_clean", 10, PACKED, none, false)],
    );
}

#[test]
fn dense_cg_is_invariant_clean_under_fault_injection() {
    let single = Adversary::single(2, 60);
    rows(
        &DenseCg::new(32, 24),
        &[("verify_cg_single", 10, PACKED, single, true)],
    );
    let random = Adversary::random(11, 4, 2, 40..160);
    rows(
        &DenseCg::new(32, 30),
        &[("verify_cg_random", 12, PACKED, random, false)],
    );
}

#[test]
fn explicit_mode_is_invariant_clean_under_fault_injection() {
    // The 9-byte explicit header must drive the exact same protocol as
    // the packed word, including across a real failure/restart.
    let single = Adversary::single(2, 60);
    rows(
        &DenseCg::new(32, 24),
        &[("verify_cg_explicit_single", 10, EXPLICIT, single, true)],
    );
    let none = Adversary::none();
    rows(
        &Laplace { n: 16, iters: 32 },
        &[("verify_laplace_explicit_clean", 9, EXPLICIT, none, false)],
    );
}

#[test]
fn laplace_is_invariant_clean_without_failures() {
    let none = Adversary::none();
    rows(
        &Laplace { n: 16, iters: 32 },
        &[("verify_laplace_clean", 9, PACKED, none, false)],
    );
}

#[test]
fn laplace_is_invariant_clean_under_fault_injection() {
    let single = Adversary::single(1, 50);
    rows(
        &Laplace { n: 16, iters: 32 },
        &[("verify_laplace_single", 9, PACKED, single, true)],
    );
    let mtbf = Adversary::mtbf(7, 4, 90, 400);
    rows(
        &Laplace { n: 16, iters: 40 },
        &[("verify_laplace_mtbf", 11, PACKED, mtbf, false)],
    );
}

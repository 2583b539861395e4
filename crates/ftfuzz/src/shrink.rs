//! Delta-debugging shrinking over scenario dimensions, and the
//! reproducer renderer.
//!
//! Given a failing campaign, [`shrink`] repeatedly proposes simpler
//! scenarios — drop a kill, quiet the storage, remove a rank, halve
//! the horizon, simplify the write mode — and
//! re-runs the campaign for each proposal, keeping it only when the
//! *same* failure (by [`FuzzFailure::label`]) still occurs. The loop
//! runs to a fixed point (one full pass with no accepted proposal) or
//! until the run budget is exhausted. [`reproducer`] then renders the
//! shrunk scenario as a self-contained `#[test]`-shaped snippet.

use c3_core::{RecoveryMode, WriteMode};
use ckptstore::FaultPlan;

use crate::campaign::{run_campaign, FuzzFailure, Plant};
use crate::scenario::Scenario;

/// What shrinking produced.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimal scenario that still fails.
    pub scenario: Scenario,
    /// The failure it still produces.
    pub failure: FuzzFailure,
    /// Campaign re-runs spent.
    pub runs: usize,
    /// Proposals accepted (0 = the original was already minimal).
    pub accepted: usize,
}

/// Every one-step simplification of `sc`, most aggressive first (delta
/// debugging works best greedily: try removing whole dimensions before
/// trimming them).
fn proposals(sc: &Scenario) -> Vec<Scenario> {
    let (adv, rollback) = (&sc.adversary, RecoveryMode::FullRestart);
    let mut out = Vec::new();
    let mut push = |change: &dyn Fn(&mut Scenario)| {
        let mut cand = sc.clone();
        change(&mut cand);
        if cand != *sc {
            out.push(cand);
        }
    };

    // Whole-dimension removals: no kills (and so no splices), healthy
    // storage.
    if !adv.kills.is_empty() {
        push(&|c| {
            c.adversary.kills.clear();
            c.adversary.recovery = rollback;
        });
    }
    if adv.faults != FaultPlan::none() {
        push(&|c| c.adversary.faults = FaultPlan::none());
    }

    // Drop each ungated kill, then every kill gated to a restart at
    // once; then plain rollback instead of online splice.
    for (i, _) in adv.kills.iter().enumerate().filter(|(_, k)| k.2 == 1) {
        push(&|c| {
            c.adversary.kills.remove(i);
        });
    }
    if adv.kills.iter().any(|k| k.2 > 1) {
        push(&|c| c.adversary.kills.retain(|k| k.2 == 1));
    }
    if adv.recovery != rollback {
        push(&|c| c.adversary.recovery = rollback);
    }

    // Fewer ranks: drop the highest rank and retarget any kill of it.
    if sc.nranks > 2 {
        push(&|c| {
            c.nranks -= 1;
            for kill in &mut c.adversary.kills {
                kill.0 = kill.0.min(c.nranks - 1);
            }
        });
    }

    // Shorter horizon: halve the iterations, keeping enough room for at
    // least one checkpoint line to commit.
    let iters = sc.app.iters();
    if iters / 2 >= sc.interval.unwrap_or(4).max(8) {
        push(&|c| c.app = c.app.with_iters(iters / 2));
    }

    // Simpler I/O.
    if adv.write_mode != WriteMode::Sync {
        push(&|c| c.adversary.write_mode = WriteMode::Sync);
    }
    out
}

/// Shrink a failing scenario. `plant` must match what produced the
/// original failure. Returns `None` when the scenario does not actually
/// fail (nothing to shrink). A proposal only survives when the re-run
/// fails with the same label — and, under a plant, when the plant still
/// found a site (otherwise "failure gone" and "plant skipped" would be
/// indistinguishable and shrinking would drift into trivially-passing
/// scenarios).
pub fn shrink(
    scenario: &Scenario,
    plant: Option<Plant>,
    max_runs: usize,
) -> Option<ShrinkOutcome> {
    let first = run_campaign(scenario, plant);
    let mut failure = first.failure?;
    let label = failure.label();
    let mut best = scenario.clone();
    let mut runs = 1usize;
    let mut accepted = 0usize;

    'outer: loop {
        for cand in proposals(&best) {
            if runs >= max_runs {
                break 'outer;
            }
            let out = run_campaign(&cand, plant);
            runs += 1;
            let plant_ok = plant.is_none() || out.plant_applied;
            match out.failure {
                Some(f) if plant_ok && f.label() == label => {
                    best = cand;
                    failure = f;
                    accepted += 1;
                    continue 'outer; // restart from the simpler base
                }
                _ => {}
            }
        }
        break; // fixed point: no proposal survived
    }
    Some(ShrinkOutcome {
        scenario: best,
        failure,
        runs,
        accepted,
    })
}

/// Render a failing scenario as a self-contained `#[test]`-shaped
/// snippet: paste it into any crate that depends on `ftfuzz` and it
/// reproduces the failure without the fuzzer loop.
pub fn reproducer(
    sc: &Scenario,
    plant: Option<Plant>,
    failure: &FuzzFailure,
) -> String {
    let plant_code =
        plant.map_or("None".into(), |p| format!("Some(ftfuzz::Plant::{p:?})"));
    let headline = failure.to_string();
    let headline = headline.lines().next().unwrap_or("failure");
    format!(
        "// ftfuzz minimal reproducer — shrunk from seed {seed:#018x}.\n\
         // Failure: {headline}\n\
         #[test]\n\
         fn ftfuzz_repro_seed_{seed:x}() {{\n\
         \x20   let scenario = ftfuzz::Scenario {{\n\
         \x20       seed: {seed:#x},\n\
         \x20       nranks: {nranks},\n\
         \x20       app: ftfuzz::AppChoice::{app:?},\n\
         \x20       interval: {interval:?},\n\
         \x20       chunker: c3_core::Chunker::cdc({avg}),\n\
         \x20       adversary: ftfuzz::Adversary {{\n\
         \x20           kills: vec!{kills:?},\n\
         \x20           faults: ckptstore::{faults:?},\n\
         \x20           write_mode: c3_core::WriteMode::{write_mode:?},\n\
         \x20           recovery: c3_core::RecoveryMode::{recovery:?},\n\
         \x20       }},\n\
         \x20   }};\n\
         \x20   let outcome = ftfuzz::run_campaign(&scenario, {plant_code});\n\
         \x20   assert!(\n\
         \x20       outcome.failure.is_none(),\n\
         \x20       \"{{}}\",\n\
         \x20       outcome.failure.unwrap()\n\
         \x20   );\n\
         }}\n",
        seed = sc.seed,
        nranks = sc.nranks,
        app = sc.app,
        interval = sc.interval,
        avg = sc.chunker.avg(),
        kills = sc.adversary.kills,
        faults = sc.adversary.faults,
        write_mode = sc.adversary.write_mode,
        recovery = sc.adversary.recovery,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AppChoice;
    use crate::schedule::Adversary;

    fn lively() -> Scenario {
        Scenario {
            seed: 0x51,
            nranks: 4,
            app: AppChoice::Laplace { n: 16, iters: 32 },
            interval: Some(8),
            chunker: c3_core::Chunker::cdc(1024),
            adversary: Adversary {
                faults: FaultPlan::none().fail_n(1),
                ..Adversary::single(1, 40)
            },
        }
    }

    #[test]
    fn shrink_returns_none_for_a_passing_scenario() {
        let sc = Scenario {
            adversary: Adversary::none(),
            ..lively()
        };
        assert!(shrink(&sc, None, 50).is_none());
    }

    #[test]
    fn proposals_only_simplify() {
        let sc = lively();
        let props = proposals(&sc);
        assert!(props.len() >= 6, "rich scenario, many moves");
        for p in &props {
            assert_ne!(p, &sc, "a proposal must change something");
            assert!(p.nranks >= 2);
            for &(rank, _, _) in &p.adversary.kills {
                assert!(rank < p.nranks, "kills stay in range");
            }
        }
        // A fully minimal scenario proposes almost nothing.
        let minimal = Scenario {
            nranks: 2,
            app: AppChoice::Laplace { n: 8, iters: 8 },
            adversary: Adversary {
                write_mode: WriteMode::Sync,
                ..Adversary::none()
            },
            ..lively()
        };
        assert!(proposals(&minimal).is_empty());
    }

    #[test]
    fn reproducer_snippet_is_self_contained() {
        let sc = lively();
        let code = reproducer(
            &sc,
            Some(Plant::HoistCommitBeforeDrain),
            &FuzzFailure::JobError("boom".into()),
        );
        assert!(code.contains("#[test]"));
        assert!(code.contains("fn ftfuzz_repro_seed_51()"));
        assert!(code.contains("ftfuzz::Scenario {"));
        assert!(code.contains("nranks: 4"));
        assert!(code.contains("Plant::HoistCommitBeforeDrain"));
        assert!(code.contains("kills: vec![(1, 40, 1)]"));
        assert!(code.contains("fail_first_puts: 1"));
        assert!(code.contains("c3_core::Chunker::cdc(1024)"));
        assert!(code.contains("RecoveryMode::FullRestart"));
        assert!(code.contains("outcome.failure.is_none()"));
    }

    /// The slow-storage rows of the async-write matrix: a reproducer that
    /// dropped the put delay would run a different case.
    #[test]
    fn reproducer_renders_every_storage_fault() {
        let sc = Scenario {
            adversary: Adversary {
                faults: FaultPlan::none().slow_ms(1),
                write_mode: WriteMode::Async {
                    writers: 2,
                    queue_depth: 4,
                },
                ..Adversary::kill_during_async_write(1, 4, 10, 2)
            },
            ..lively()
        };
        let code = reproducer(&sc, None, &FuzzFailure::JobError("x".into()));
        assert!(code.contains("slow_put_ms: 1"), "{code}");
        assert!(code.contains("writers: 2, queue_depth: 4"), "{code}");
    }
}

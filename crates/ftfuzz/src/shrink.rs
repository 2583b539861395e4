//! Delta-debugging shrinking over scenario dimensions, and the
//! reproducer renderer.
//!
//! Given a failing campaign, [`shrink`] repeatedly proposes simpler
//! scenarios — drop a kill, quiet the storage, drop a tier, remove a
//! rank, halve the horizon, simplify the I/O mode — and
//! re-runs the campaign for each proposal, keeping it only when the
//! *same* failure (by [`FuzzFailure::label`]) still occurs. The loop
//! runs to a fixed point (one full pass with no accepted proposal) or
//! until the run budget is exhausted. [`reproducer`] then renders the
//! shrunk scenario as a self-contained `#[test]`-shaped snippet.

use ftsim::FailureSchedule;

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
    let mut out = Vec::new();
    let mut push = |cand: Scenario| {
        if cand != *sc {
            out.push(cand);
        }
    };

    // Whole-dimension removals.
    if !sc.schedule.is_empty() {
        push(Scenario {
            schedule: FailureSchedule::none(),
            ..sc.clone()
        });
    }
    if sc.faults != ckptstore::FaultPlan::none() {
        push(Scenario {
            faults: ckptstore::FaultPlan::none(),
            ..sc.clone()
        });
    }
    if sc.tiers.is_some() {
        push(Scenario {
            tiers: None,
            keep_last: 1,
            ..sc.clone()
        });
    }

    // Individual kills.
    for i in 0..sc.schedule.injections.len() {
        let mut schedule = sc.schedule.clone();
        schedule.injections.remove(i);
        push(Scenario {
            schedule,
            ..sc.clone()
        });
    }
    if !sc.schedule.recovery_kills.is_empty() {
        let mut schedule = sc.schedule.clone();
        schedule.recovery_kills.clear();
        push(Scenario {
            schedule,
            ..sc.clone()
        });
    }
    // Plain rollback instead of online splice.
    if sc.schedule.localized {
        let mut schedule = sc.schedule.clone();
        schedule.localized = false;
        push(Scenario {
            schedule,
            ..sc.clone()
        });
    }

    // Fewer ranks: drop the highest rank and retarget anything that
    // referenced it.
    if sc.nranks > 2 {
        let nranks = sc.nranks - 1;
        let mut schedule = sc.schedule.clone();
        for (rank, _) in schedule
            .injections
            .iter_mut()
            .chain(schedule.recovery_kills.iter_mut())
        {
            *rank = (*rank).min(nranks - 1);
        }
        push(Scenario {
            nranks,
            schedule,
            ..sc.clone()
        });
    }

    // Shorter horizon: halve the iterations, keeping enough room for at
    // least one checkpoint line to commit.
    let iters = sc.app.iters();
    let floor = sc.interval.unwrap_or(4).max(8);
    if iters / 2 >= floor {
        push(Scenario {
            app: sc.app.with_iters(iters / 2),
            ..sc.clone()
        });
    }

    // Simpler I/O.
    if !sc.sync_io {
        push(Scenario {
            sync_io: true,
            ..sc.clone()
        });
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

fn fmt_faults(plan: &ckptstore::FaultPlan) -> String {
    if *plan == ckptstore::FaultPlan::none() {
        return "ckptstore::FaultPlan::none()".into();
    }
    format!(
        "ckptstore::FaultPlan {{\n            fail_first_puts: {},\n        \
         \x20   fail_each_key_once: {},\n            fail_put_probability: \
         {:?},\n            seed: {:#x},\n            latency_base_ms: \
         {},\n            latency_jitter_ms: {},\n            \
         ..ckptstore::FaultPlan::none()\n        }}",
        plan.fail_first_puts,
        plan.fail_each_key_once,
        plan.fail_put_probability,
        plan.seed,
        plan.latency_base_ms,
        plan.latency_jitter_ms,
    )
}

fn fmt_schedule(s: &FailureSchedule) -> String {
    if s.is_empty() {
        return "ftsim::FailureSchedule::none()".into();
    }
    let pairs = |v: &[(usize, u64)]| {
        v.iter()
            .map(|&(r, op)| format!("({r}, {op})"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "ftsim::FailureSchedule {{\n            injections: vec![{}],\n     \
         \x20      recovery_kills: vec![{}],\n            localized: {},\n   \
         \x20    }}",
        pairs(&s.injections),
        pairs(&s.recovery_kills),
        s.localized,
    )
}

fn fmt_tiers(t: &Option<c3_core::TierTopology>) -> String {
    match t {
        None => "None".into(),
        Some(t) => match (t.partner_replicas, t.erasure) {
            (r, None) => format!("Some(c3_core::TierTopology::partner({r}))"),
            (0, Some((d, p))) => {
                format!("Some(c3_core::TierTopology::erasure({d}, {p}))")
            }
            (r, Some((d, p))) => format!(
                "Some(c3_core::TierTopology::partner_and_erasure({r}, {d}, \
                 {p}))"
            ),
        },
    }
}

/// Render a failing scenario as a self-contained `#[test]`-shaped
/// snippet: paste it into any crate that depends on `ftfuzz` and it
/// reproduces the failure without the fuzzer loop.
pub fn reproducer(
    sc: &Scenario,
    plant: Option<Plant>,
    failure: &FuzzFailure,
) -> String {
    let plant_code = match plant {
        None => "None".to_string(),
        Some(Plant::HoistCommitBeforeDrain) => {
            "Some(ftfuzz::Plant::HoistCommitBeforeDrain)".into()
        }
    };
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
         \x20       sync_io: {sync_io},\n\
         \x20       chunker: c3_core::Chunker::cdc({avg}),\n\
         \x20       keep_last: {keep_last},\n\
         \x20       tiers: {tiers},\n\
         \x20       faults: {faults},\n\
         \x20       schedule: {schedule},\n\
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
        sync_io = sc.sync_io,
        avg = sc.chunker.avg(),
        keep_last = sc.keep_last,
        tiers = fmt_tiers(&sc.tiers),
        faults = fmt_faults(&sc.faults),
        schedule = fmt_schedule(&sc.schedule),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AppChoice;

    fn lively() -> Scenario {
        Scenario {
            seed: 0x51,
            nranks: 4,
            app: AppChoice::Laplace { n: 16, iters: 32 },
            interval: Some(8),
            sync_io: false,
            chunker: c3_core::Chunker::cdc(1024),
            keep_last: 2,
            tiers: Some(c3_core::TierTopology::partner(1)),
            faults: ckptstore::FaultPlan::none().fail_n(1),
            schedule: FailureSchedule::single(1, 40),
        }
    }

    #[test]
    fn shrink_returns_none_for_a_passing_scenario() {
        let sc = Scenario {
            schedule: FailureSchedule::none(),
            faults: ckptstore::FaultPlan::none(),
            tiers: None,
            keep_last: 1,
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
            for &(rank, _) in &p.schedule.injections {
                assert!(rank < p.nranks, "kills stay in range");
            }
        }
        // A fully minimal scenario proposes almost nothing.
        let minimal = Scenario {
            seed: 0,
            nranks: 2,
            app: AppChoice::Laplace { n: 8, iters: 8 },
            interval: Some(8),
            sync_io: true,
            chunker: c3_core::Chunker::default(),
            keep_last: 1,
            tiers: None,
            faults: ckptstore::FaultPlan::none(),
            schedule: FailureSchedule::none(),
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
        assert!(code.contains("injections: vec![(1, 40)]"));
        assert!(code.contains("fail_first_puts: 1"));
        assert!(code.contains("TierTopology::partner(1)"));
        assert!(code.contains("c3_core::Chunker::cdc(1024)"));
        assert!(code.contains("outcome.failure.is_none()"));
    }
}

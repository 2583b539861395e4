//! Every draw of `Scenario::from_seed`, pinned.
//!
//! The corpus only guards regressions while each seed keeps deriving the
//! campaign it was promoted for. This test renders the first 256 seeds'
//! scenarios — every dimension, including the job configuration they
//! lower to — into one canonical string and pins its digest, so moving,
//! adding or reordering any draw fails here.

use c3_core::WriteMode;
use ftfuzz::Scenario;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One seed's scenario as a line of text.
fn render(seed: u64) -> String {
    let sc = Scenario::from_seed(seed);
    let cfg = sc.config();
    // The storage fault plan is read from the scenario's `Debug` form,
    // which names all seven `FaultPlan` fields wherever the plan lives.
    let debug = format!("{sc:?}");
    let start = debug
        .find("FaultPlan {")
        .expect("scenario has a fault plan");
    let len = debug[start..].find('}').expect("closing brace") + 1;
    let faults = &debug[start..start + len];
    let kills: Vec<(usize, u64, u64)> = cfg
        .failures
        .iter()
        .map(|i| (i.rank, i.at_op, i.min_attempt))
        .collect();
    format!(
        "{seed} nranks={} app={:?} interval={:?} sync_io={} avg={} \
         keep_last={} {faults} kills={kills:?} recovery={:?}\n",
        sc.nranks,
        sc.app,
        sc.interval,
        cfg.io.mode == WriteMode::Sync,
        cfg.io.chunker.avg(),
        cfg.io.keep_last,
        cfg.recovery,
    )
}

#[test]
fn the_first_256_seeds_draw_what_they_always_drew() {
    let text: String = (0..256).map(render).collect();
    let digest = fnv1a(text.as_bytes());
    assert_eq!(
        digest,
        0x7607_ce19_0745_59f8,
        "a draw moved; seed 0 renders as {}",
        render(0)
    );
}

//! The metric catalogue: every name this benchmark prints, with its unit
//! and — for end-to-end metrics — the share of the parent's median by
//! which it may worsen before `compare` calls it a regression.
//! `BENCHMARK.json` lists the same names; a test holds the two together.

/// An end-to-end metric. All of them are lower-is-better.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Allowed worsening as a share of the parent's median; 0 means any
    /// rise is a regression.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and printed on the contract's result
    /// line. The driver's contract wants every end-to-end metric on every
    /// workload and never 0, which `recovery_s_per_kill` (one workload)
    /// and `failed_frac` (0 when healthy) cannot be. They are written to
    /// the result documents and judged by `compare`; the driver sees
    /// failures as the result line's `failed` and `correct`, and recovery
    /// inside `wall_s` of `cg_kill`, which times the killed run.
    pub in_contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    in_contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        in_contract,
    }
}

/// The seven end-to-end metrics. The issue set 10% on all of them. The
/// time bounds are at the contract's cap of 25% instead: ten runs of one
/// commit spread by up to 14% on this host, whose speed changes for
/// minutes at a time, and the contract wants a spread well inside the
/// bound (`README.md`, "Noise"). The counted `stored_mb` keeps its 10%.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", 0.25, true),
    e2e("wall_s", "s", 0.25, true),
    e2e("base_wall_s", "s", 0.25, true),
    e2e("stored_mb", "MB", 0.10, true),
    e2e("peak_rss_mb", "MB", 0.25, true),
    e2e("recovery_s_per_kill", "s", 0.25, false),
    e2e("failed_frac", "ratio", 0.0, false),
];

/// Which direction of a per-layer metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A per-layer metric. These are diagnostic: they carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric the `--trace 1` pass prints, in print order.
/// A count that is a fact of the workload rather than a cost (`checkpoints`,
/// `late_logged`, …) is marked lower-is-better: more of it is more work.
pub const PER_LAYER: [PerLayer; 58] = [
    // Level differential (the paper's Figure 8).
    layer("level.none_s", "s", Lower),
    layer("level.piggyback_s", "s", Lower),
    layer("level.protocol_s", "s", Lower),
    layer("level.full_s", "s", Lower),
    layer("level.overhead_ratio", "ratio", Lower),
    layer("core.piggyback_delta_s", "s", Lower),
    layer("core.protocol_delta_s", "s", Lower),
    layer("stateio.delta_s", "s", Lower),
    layer("core.collective_tax_explained_ratio", "ratio", Higher),
    // Spans from the benchmark-owned wrappers.
    layer("apps.init_s", "s", Lower),
    layer("apps.run_s", "s", Lower),
    layer("job.attempts", "count", Lower),
    layer("core.recovery_s_per_kill", "s", Lower),
    layer("core.restart_gap_ms", "ms", Lower),
    layer("core.redo_run_ms", "ms", Lower),
    layer("core.localized_recovery_s", "s", Lower),
    layer("ckptstore.backend_put_s", "s", Lower),
    layer("ckptstore.backend_puts", "count", Lower),
    layer("ckptstore.backend_put_mb", "MB", Lower),
    layer("ckptstore.backend_get_s", "s", Lower),
    layer("ckptstore.backend_gets", "count", Lower),
    layer("ckptstore.backend_get_mb", "MB", Lower),
    layer("ckptstore.backend_list_s", "s", Lower),
    layer("ckptstore.backend_lists", "count", Lower),
    layer("ckptstore.backend_deletes", "count", Lower),
    layer("ckptstore.killed_stored_mb", "MB", Lower),
    // Public counters read after the run.
    layer("core.checkpoints", "count", Lower),
    layer("core.late_logged", "count", Lower),
    layer("core.early_recorded", "count", Lower),
    layer("core.suppressed_sends", "count", Lower),
    layer("core.late_replayed", "count", Lower),
    layer("core.collectives_logged", "count", Lower),
    layer("core.app_state_mb", "MB", Lower),
    layer("core.payload_bytes_copied", "count", Lower),
    layer("core.allocs_on_send_path", "count", Lower),
    layer("core.commits", "count", Lower),
    layer("ckptpipe.stage_ms_p50", "ms", Lower),
    layer("ckptpipe.drain_ms_p50", "ms", Lower),
    layer("ckptpipe.dedup_hit_ratio", "ratio", Higher),
    layer("ckptpipe.compress_ratio", "ratio", Lower),
    layer("c3obs.trace_overhead_pct", "%", Lower),
    // Isolated probes at the workload's own sizes.
    layer("simmpi.p2p_rtt_us", "us", Lower),
    layer("simmpi.allgather_us", "us", Lower),
    layer("core.p2p_rtt_us", "us", Lower),
    layer("core.allgather_us", "us", Lower),
    layer("core.p2p_tax_us", "us", Lower),
    layer("core.collective_tax_us", "us", Lower),
    layer("statesave.save_mb_s", "MB/s", Higher),
    layer("statesave.restore_mb_s", "MB/s", Higher),
    layer("statesave.state_mb", "MB", Lower),
    layer("ckptpipe.stage_ms", "ms", Lower),
    layer("ckptpipe.drain_ms", "ms", Lower),
    layer("ckptpipe.written_mb_per_line", "MB", Lower),
    layer("ckptpipe.dedup_ratio", "ratio", Higher),
    layer("ckptstore.put_mb_s", "MB/s", Higher),
    layer("ckptstore.get_mb_s", "MB/s", Higher),
    layer("ckptstore.commit_us", "us", Lower),
    layer("ckptstore.latest_recoverable_us", "us", Lower),
];

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::json::{self, valid_name, Value};
    use crate::workload::WORKLOADS;

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly this
    /// catalogue: same workloads, same contract metrics, same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<Value> {
            doc.get(key).and_then(Value::as_arr).unwrap().to_vec()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key).and_then(Value::as_str).unwrap().to_string()
        };

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        let listed: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| (m.name.into(), m.unit.into(), "lower".into(), m.bound))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);
    }
}

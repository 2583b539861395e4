//! `c3bench compare <a> <b>`: per workload and end-to-end metric, the
//! median and quartiles of both sides and a verdict, using the bounds of
//! the metric catalogue. This is the tool the A/A criterion runs.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, Value};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::SCHEMA;
use crate::stats::{summarize, Summary};

/// What `compare` says about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is lower and the two sides' quartile ranges do not overlap.
    Improved,
    Unchanged,
    /// B's median is worse than A's by more than the metric's bound.
    Regressed,
    /// Not worse by more than the bound, but a side's spread is wider
    /// than the bound, so "unchanged" cannot be told from a regression.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        })
    }
}

/// Judge side B against side A (the parent) on one metric; every
/// end-to-end metric is lower-is-better.
pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = b.median - a.median;
    if metric.bound == 0.0 {
        // Absolute metric (`failed_frac`): any rise is a regression.
        return match worse_by {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    if worse_by > metric.bound * a.median.abs() {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > metric.bound {
        Verdict::Unresolved
    } else if b.q3 < a.q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The timed-pass results of one side, as workload → metric → summary.
pub type Side = BTreeMap<String, BTreeMap<String, Summary>>;

/// The runs of one workload on one side.
#[derive(Default)]
struct Runs {
    metrics: BTreeMap<String, Vec<Summary>>,
    attempted: f64,
    failed: f64,
}

/// Read one side: a file of result documents, one per line. Several runs
/// of a workload make one sample per metric, a run's value each; a single
/// run stands with the quartiles it recorded itself. `failed_frac` is not
/// pooled as a median, which would hide failures in fewer than half the
/// runs: it is the jobs failed over the jobs attempted in all runs.
pub fn read_side(text: &str) -> Result<Side, String> {
    let mut runs: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", i + 1);
        let doc = json::parse(line).map_err(|e| at(&e))?;
        let field = |key: &str| doc.get(key).and_then(Value::as_str);
        if field("schema") != Some(SCHEMA) {
            return Err(at("not a c3bench result"));
        }
        if field("mode") != Some("full") {
            return Err(at("a smoke result is not a measurement"));
        }
        if field("pass") != Some("timed") {
            continue;
        }
        let workload = field("workload").ok_or_else(|| at("no workload"))?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| at(&format!("no {key} count")))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| at("no metrics"))?;
        let of_workload = runs.entry(workload.to_string()).or_default();
        of_workload.attempted += count("attempted")?;
        of_workload.failed += count("failed")?;
        for (name, m) in metrics {
            let num = |key: &str| m.get(key).and_then(Value::as_f64);
            let value =
                num("value").ok_or_else(|| at("metric without value"))?;
            of_workload.metrics.entry(name.clone()).or_default().push(
                Summary {
                    median: value,
                    q1: num("q1").unwrap_or(value),
                    q3: num("q3").unwrap_or(value),
                    n: num("n").map_or(1, |n| n as usize),
                },
            );
        }
    }
    let across_runs = |per_run: &[Summary]| match per_run {
        [only] => *only,
        many => {
            let values: Vec<f64> = many.iter().map(|s| s.median).collect();
            summarize(&values).expect("a listed metric has a run")
        }
    };
    Ok(runs
        .into_iter()
        .map(|(w, r)| {
            let mut metrics: BTreeMap<String, Summary> = r
                .metrics
                .iter()
                .map(|(m, s)| (m.clone(), across_runs(s)))
                .collect();
            if let Some(s) = metrics.get_mut("failed_frac") {
                let frac = r.failed / r.attempted.max(1.0);
                (s.median, s.q1, s.q3) = (frac, frac, frac);
            }
            (w, metrics)
        })
        .collect())
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

/// Every workload × end-to-end metric of side A, judged against side B,
/// and the ones B has no value for: a change that makes a workload crash
/// before it writes its result must not compare clean.
pub fn compare(a: &Side, b: &Side) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (workload, a_metrics) in a {
        for metric in &END_TO_END {
            let Some(sa) = a_metrics.get(metric.name) else {
                continue;
            };
            match b.get(workload).and_then(|m| m.get(metric.name)) {
                Some(sb) => rows.push(Row {
                    workload: workload.clone(),
                    metric,
                    a: *sa,
                    b: *sb,
                    verdict: verdict(metric, sa, sb),
                }),
                None => missing.push(format!("{workload} {}", metric.name)),
            }
        }
    }
    (rows, missing)
}

/// Print the table; the process exit code: 2 when side B lacks a value
/// side A has, 1 on any regression (including a rise in `failed_frac`),
/// else 0.
pub fn print(rows: &[Row], missing: &[String]) -> i32 {
    println!(
        "{:<14} {:<20} {:>10} {:>10} {:>10} {:>3}   {:>10} {:>10} {:>10} {:>3}  {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1", "A q3", "n",
        "B median", "B q1", "B q3", "n", "B vs A", "bound"
    );
    for r in rows {
        let change = if r.a.median == 0.0 {
            0.0
        } else {
            (r.b.median - r.a.median) / r.a.median.abs() * 100.0
        };
        println!(
            "{:<14} {:<20} {:>10.4} {:>10.4} {:>10.4} {:>3}   {:>10.4} {:>10.4} {:>10.4} {:>3}  {:>+7.1}% {:>5.0}%  {}",
            r.workload, r.metric.name,
            r.a.median, r.a.q1, r.a.q3, r.a.n,
            r.b.median, r.b.q1, r.b.q3, r.b.n,
            change, r.metric.bound * 100.0, r.verdict
        );
    }
    for m in missing {
        println!("MISSING {m}: side A has it, side B does not");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} improved, {} unchanged, {} regressed, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        missing.len()
    );
    if !missing.is_empty() {
        2
    } else {
        i32::from(count(Verdict::Regressed) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10% bound, and the absolute one.
    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.10,
        in_contract: true,
    };
    const FAILED: EndToEnd = EndToEnd {
        name: "failed_frac",
        unit: "ratio",
        bound: 0.0,
        ..WALL
    };

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let wall = &WALL;
        let a = s(1.00, 0.99, 1.01);
        assert_eq!(
            verdict(wall, &a, &s(1.005, 0.99, 1.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, &a, &s(1.09, 1.08, 1.10)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, &a, &s(1.11, 1.10, 1.12)),
            Verdict::Regressed
        );
        assert_eq!(verdict(wall, &a, &s(0.97, 0.96, 0.98)), Verdict::Improved);
        // Better, but the quartile ranges still touch.
        assert_eq!(
            verdict(wall, &a, &s(0.99, 0.98, 1.00)),
            Verdict::Unchanged
        );
        // Either side's spread wider than the bound: cannot say unchanged.
        assert_eq!(
            verdict(wall, &a, &s(1.02, 0.95, 1.09)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, &s(1.0, 0.9, 1.1), &s(1.0, 0.99, 1.01)),
            Verdict::Unresolved
        );
        // A clear regression stays one however wide the spread.
        assert_eq!(verdict(wall, &a, &s(1.5, 1.0, 2.0)), Verdict::Regressed);

        let failed = &FAILED;
        let zero = s(0.0, 0.0, 0.0);
        assert_eq!(verdict(failed, &zero, &zero), Verdict::Unchanged);
        assert_eq!(
            verdict(failed, &zero, &s(0.01, 0.0, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(failed, &s(0.1, 0.0, 0.0), &zero),
            Verdict::Improved
        );
    }

    /// One timed (or traced) result document of 20 jobs.
    fn result(workload: &str, mode: &str, pass: &str, wall: f64) -> String {
        result_with_failures(workload, mode, pass, wall, 0)
    }

    fn result_with_failures(
        workload: &str,
        mode: &str,
        pass: &str,
        wall: f64,
        failed: u64,
    ) -> String {
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"mode\": \"{mode}\", \"pass\": \"{pass}\", \
             \"workload\": \"{workload}\", \"attempted\": 20, \"failed\": {failed}, \
             \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \
             \"unit\": \"s\", \"q1\": {}, \"q3\": {}, \"n\": 6}}, \
             \"failed_frac\": {{\"value\": {}, \"unit\": \"ratio\"}}}}}}",
            wall - 0.01,
            wall + 0.01,
            failed as f64 / 20.0
        )
    }

    #[test]
    fn sides_pool_runs_and_compare_joins_them() {
        let a: String = (0..10)
            .map(|i| {
                result("cg_state", "full", "timed", 1.70 + 0.01 * i as f64)
                    + "\n"
            })
            .collect::<String>()
            + &result("cg_state", "full", "traced", 9.0)
            + "\n\n"
            + &result("cg_kill", "full", "timed", 2.0);
        let a = read_side(&a).unwrap();
        let cg = &a["cg_state"]["wall_s"];
        assert_eq!(cg.n, 10, "ten timed runs, the traced one skipped");
        assert!((cg.median - 1.745).abs() < 1e-9);
        // A single run keeps the quartiles it recorded.
        assert_eq!(a["cg_kill"]["wall_s"], s(2.0, 1.99, 2.01).with_n(6));

        let b = read_side(
            &(result("cg_state", "full", "timed", 2.5)
                + "\n"
                + &result("cg_kill", "full", "timed", 2.0)),
        )
        .unwrap();
        let (rows, missing) = compare(&a, &b);
        assert!(missing.is_empty());
        assert_eq!(rows.len(), 4, "two workloads x (wall_s, failed_frac)");
        let cg: Vec<_> =
            rows.iter().filter(|r| r.workload == "cg_state").collect();
        assert_eq!(cg[0].metric.name, "wall_s");
        assert_eq!(cg[0].verdict, Verdict::Regressed);
        assert_eq!(cg[1].verdict, Verdict::Unchanged);
        assert_eq!(print(&rows, &missing), 1);
        let (rows, missing) = compare(&a, &a);
        assert_eq!(print(&rows, &missing), 0);
    }

    /// One failing run among ten is a rise in `failed_frac`: the median
    /// of the runs' values would still read 0.
    #[test]
    fn a_failure_in_one_run_of_ten_is_a_regression() {
        let set = |bad_runs: usize| -> Side {
            let text: String = (0..10)
                .map(|i| {
                    let failed = if i < bad_runs { 4 } else { 0 };
                    result_with_failures(
                        "cg_kill", "full", "timed", 2.0, failed,
                    ) + "\n"
                })
                .collect();
            read_side(&text).unwrap()
        };
        let (clean, one_bad) = (set(0), set(1));
        assert_eq!(clean["cg_kill"]["failed_frac"].median, 0.0);
        assert_eq!(one_bad["cg_kill"]["failed_frac"].median, 4.0 / 200.0);

        let (rows, missing) = compare(&clean, &one_bad);
        let failed = rows
            .iter()
            .find(|r| r.metric.name == "failed_frac")
            .unwrap();
        assert_eq!(failed.verdict, Verdict::Regressed);
        assert_eq!(print(&rows, &missing), 1);
        let (rows, missing) = compare(&one_bad, &clean);
        assert_eq!(rows[1].verdict, Verdict::Improved);
        assert_eq!(print(&rows, &missing), 0);
    }

    /// A workload or metric that side B lost does not compare clean.
    #[test]
    fn a_value_missing_on_side_b_is_an_error() {
        let a = read_side(
            &(result("cg_state", "full", "timed", 1.7)
                + "\n"
                + &result("cg_kill", "full", "timed", 2.0)),
        )
        .unwrap();
        let b = read_side(&result("cg_state", "full", "timed", 1.7)).unwrap();
        let (rows, missing) = compare(&a, &b);
        assert_eq!(rows.len(), 2);
        assert_eq!(missing, ["cg_kill wall_s", "cg_kill failed_frac"]);
        assert_eq!(print(&rows, &missing), 2);
        // A workload only side B has is new, not lost.
        let (rows, missing) = compare(&b, &a);
        assert_eq!((rows.len(), missing.len()), (2, 0));
    }

    #[test]
    fn smoke_and_foreign_documents_are_refused() {
        let smoke = result("cg_state", "smoke", "timed", 1.0);
        assert!(read_side(&smoke).unwrap_err().contains("smoke"));
        assert!(read_side("{\"schema\": \"other\"}").is_err());
        assert!(read_side("not json").is_err());
        assert!(read_side("").unwrap().is_empty());
    }

    impl Summary {
        fn with_n(mut self, n: usize) -> Self {
            self.n = n;
            self
        }
    }
}

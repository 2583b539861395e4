//! What a pass hands back: named readings, the job count, and the three
//! forms they are written in — lines for a person, the contract's result
//! line, and the result document `compare` reads.

use std::path::PathBuf;
use std::time::Instant;

use crate::host::Host;
use crate::json::{obj, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{mean, summarize, tail_percentile, Summary};
use crate::workload::{Plan, Workload, RANKS};

pub const SCHEMA: &str = "c3bench-result-v1";

/// How the benchmark was asked to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measurement budget of the pass, in seconds.
    pub seconds: f64,
    /// Sizes ÷ 20 and one repetition: exercises everything, measures
    /// nothing. A smoke result is marked and `compare` refuses it.
    pub smoke: bool,
    /// Where result documents and span files go.
    pub out_dir: PathBuf,
    /// Also append the result document, as one line, to this file.
    pub append: Option<PathBuf>,
    pub process_start: Instant,
}

/// Which of the two passes produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: end-to-end metrics, nothing wrapped, no registry.
    Timed,
    /// `--trace 1`: per-layer metrics.
    Traced,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Timed => "timed",
            Pass::Traced => "traced",
        }
    }

    /// The metrics the contract's result line carries for this pass.
    pub fn contract_metrics(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Pass::Timed => END_TO_END
                .iter()
                .filter(|m| m.in_contract)
                .map(|m| (m.name, m.unit))
                .collect(),
            Pass::Traced => {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            }
        }
    }
}

/// One metric as measured: its value and, where it was sampled, the
/// sample's median, quartiles and size.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// Highest percentile with ten samples beyond it, where one exists.
    pub tail: Option<(f64, f64)>,
}

impl Reading {
    /// A value that is not sampled (a size, a ratio of two readings).
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Reading {
            name,
            unit,
            value,
            summary: None,
            tail: None,
        }
    }

    /// A repeated timing: the median of `samples`, each first multiplied
    /// by `scale` (samples are kept in seconds; the metric may be in ms
    /// or µs).
    pub fn sampled(
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        scale: f64,
    ) -> Self {
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let summary = summarize(&scaled);
        Reading {
            name,
            unit,
            value: summary.map_or(f64::NAN, |s| s.median),
            summary,
            tail: tail_percentile(&scaled),
        }
    }

    /// A repeated count: the mean of `samples`. A count such as the bytes
    /// a job stored takes one of a few values from job to job, and a
    /// median would flip between them.
    pub fn mean_of(
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
    ) -> Self {
        Reading {
            value: mean(samples).unwrap_or(f64::NAN),
            ..Reading::sampled(name, unit, samples, 1.0)
        }
    }

    fn to_json(&self) -> Value {
        let mut pairs =
            vec![("value", self.value.into()), ("unit", self.unit.into())];
        if let Some(s) = self.summary {
            pairs.push(("median", s.median.into()));
            pairs.push(("q1", s.q1.into()));
            pairs.push(("q3", s.q3.into()));
            pairs.push(("n", s.n.into()));
        }
        if let Some((p, v)) = self.tail {
            pairs.push(("tail_percentile", p.into()));
            pairs.push(("tail_value", v.into()));
        }
        obj(pairs)
    }
}

/// A reconciliation the traced pass makes between two of its own numbers.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one pass over one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub pass: Pass,
    pub opts: Opts,
    pub host: Host,
    pub plan: Plan,
    /// Jobs run, jobs that failed a check, and one line per failure.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// A job outlived its watchdog: the process must exit once this
    /// report is written, because that job's threads are still running.
    pub hung: bool,
    /// Interleaved repetitions measured.
    pub reps: usize,
    pub readings: Vec<Reading>,
    /// Wall times, in seconds and in run order, of every variant the pass
    /// ran, by variant name.
    pub variants: Vec<(&'static str, Vec<f64>)>,
    pub checks: Vec<Check>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && !self.hung
    }

    pub fn reading(&self, name: &str) -> Option<&Reading> {
        self.readings.iter().find(|r| r.name == name)
    }

    /// What is wrong with this report's shape: a catalogue metric that is
    /// missing or not a finite number, or a reading under a wrong unit.
    /// Empty when the report can be written as a valid result.
    pub fn schema_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (name, unit) in self.pass.contract_metrics() {
            match self.reading(name) {
                None => errors.push(format!("{name}: missing")),
                Some(r) if !r.value.is_finite() => {
                    errors.push(format!("{name}: not a finite number"))
                }
                Some(r) if r.unit != unit => {
                    errors.push(format!("{name}: unit {} != {unit}", r.unit))
                }
                Some(_) => {}
            }
        }
        errors
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics being this pass's share of
    /// `BENCHMARK.json`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .pass
            .contract_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.reading(name).map_or(f64::NAN, |r| r.value);
                (
                    name,
                    obj(vec![("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect();
        obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", obj(metrics)),
        ])
        .to_json()
    }

    /// The result document: the contract line's content plus what it ran
    /// on, what exactly it ran, and every reading with its spread.
    pub fn to_json(&self) -> Value {
        let kills = self
            .plan
            .kills
            .iter()
            .map(|k| {
                obj(vec![
                    ("rank", k.rank.into()),
                    ("at_op", k.at_op.into()),
                    ("attempt", k.attempt.into()),
                ])
            })
            .collect();
        let variant = |samples: &[f64]| {
            let s = summarize(samples).expect("a listed variant ran");
            obj(vec![
                ("median", s.median.into()),
                ("q1", s.q1.into()),
                ("q3", s.q3.into()),
                ("n", s.n.into()),
                ("samples", samples.to_vec().into()),
            ])
        };
        obj(vec![
            ("schema", SCHEMA.into()),
            (
                "mode",
                if self.opts.smoke { "smoke" } else { "full" }.into(),
            ),
            ("pass", self.pass.name().into()),
            ("workload", self.opts.workload.name.into()),
            ("seed", self.opts.seed.into()),
            ("seconds", self.opts.seconds.into()),
            ("ranks", RANKS.into()),
            ("host", self.host.to_json()),
            (
                "plan",
                obj(vec![
                    ("iters", self.plan.app.iters().into()),
                    ("every_ops", self.plan.every_ops.into()),
                    ("kills", Value::Arr(kills)),
                ]),
            ),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("failures", self.failures.clone().into()),
            ("reps", self.reps.into()),
            (
                "metrics",
                obj(self
                    .readings
                    .iter()
                    .map(|r| (r.name, r.to_json()))
                    .collect()),
            ),
            (
                "variants",
                obj(self
                    .variants
                    .iter()
                    .map(|(n, s)| (*n, variant(s)))
                    .collect()),
            ),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", c.name.into()),
                                ("ok", c.ok.into()),
                                ("detail", c.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        let o = &self.opts;
        println!(
            "# c3bench {} pass: workload {} seed {} ranks {} budget {} s{}",
            self.pass.name(),
            o.workload.name,
            o.seed,
            RANKS,
            o.seconds,
            if o.smoke {
                " [smoke: not a measurement]"
            } else {
                ""
            },
        );
        let h = &self.host;
        println!(
            "# host: {} x {}, pinned to cpu {:?}, {}, commit {}, load1 {}, busy cores at start {:.2}{}",
            h.nproc,
            h.cpu_model,
            h.pinned_cpu,
            h.rustc,
            h.git_commit,
            h.load1,
            h.busy_cores_at_start,
            if h.noisy { " [NOISY: host busy or not pinned]" } else { "" },
        );
        println!(
            "# plan: {} iterations, a checkpoint line every {} ops, kills {:?}",
            self.plan.app.iters(),
            self.plan.every_ops,
            self.plan
                .kills
                .iter()
                .map(|k| (k.rank, k.at_op, k.attempt))
                .collect::<Vec<_>>(),
        );
        for (name, samples) in &self.variants {
            let s = summarize(samples).expect("a listed variant ran");
            println!(
                "variant {name:<10} median {:.4} s  q1 {:.4}  q3 {:.4}  n {}",
                s.median, s.q1, s.q3, s.n
            );
        }
        for r in &self.readings {
            print!("{:<38} {:>14.6} {:<6}", r.name, r.value, r.unit);
            if let Some(s) = r.summary {
                print!(
                    "  median {:.6}  q1 {:.6}  q3 {:.6}  n {}",
                    s.median, s.q1, s.q3, s.n
                );
            }
            if let Some((p, v)) = r.tail {
                print!("  p{p} {v:.6}");
            }
            println!();
        }
        for c in &self.checks {
            println!(
                "check {:<34} {}  {}",
                c.name,
                if c.ok { "ok" } else { "UNEXPLAINED" },
                c.detail
            );
        }
        println!(
            "jobs: {} attempted, {} failed, {} repetitions",
            self.attempted, self.failed, self.reps
        );
        for f in &self.failures {
            println!("FAILED {f}");
        }
    }
}

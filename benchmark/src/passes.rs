//! The two passes over a workload. The timed pass wraps nothing and
//! attaches no registry: it yields the end-to-end metrics. The traced
//! pass runs the four instrumentation levels side by side, one job through
//! the benchmark's wrappers and the crates' own registry, and the isolated
//! probes: it yields the per-layer metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use c3_core::C3App;
use ckptstore::StorageBackend;

use crate::host::{self, Host};
use crate::json::{self, Value};
use crate::metrics::PER_LAYER;
use crate::probes::{self, Effort, Exchange};
use crate::report::{Check, Opts, Pass, Reading, Report};
use crate::runner::{
    config, run_watched, Checker, Failure, Outcome, OutputWords, Variant,
};
use crate::spans::{
    BackendTotals, Captured, Span, SpanLog, TimedBackend, TracedApp,
};
use crate::stats::median;
use crate::workload::{Plan, RANKS};

/// Set-ups per timed run: `setup_s` is their median.
const SETUPS: usize = 3;
/// The warm-up job of a set-up runs this fraction of the iterations.
const WARMUP_DIVISOR: u64 = 10;
/// Fewest interleaved repetitions of a timed run. The budget does not
/// lower it: a run overruns `--seconds` before it undersamples.
const MIN_REPS: usize = 7;
/// Fewest interleaved rounds of the four levels in a traced run, likewise.
const MIN_ROUNDS: usize = 5;
/// Share of the traced pass's budget spent on the level rounds; the rest
/// is left for the kill variants and the probes.
const LEVEL_SHARE: f64 = 0.7;
/// Seconds after process start at which a pass stops repeating even below
/// its minimum, and counts the shortfall as a failure: the contract ends
/// a run at 180 s.
const DEADLINE_S: f64 = 120.0;

/// Runs a workload's jobs one at a time (a closed loop of one), checks
/// each, and remembers whether one hung.
struct Jobs<A> {
    app: Arc<A>,
    plan: Plan,
    checker: Checker,
    timeout: Duration,
    hung: bool,
}

impl<A> Jobs<A>
where
    A: C3App + Send + 'static,
    A::Output: OutputWords,
{
    fn new(app: A, plan: Plan, workload: &'static str) -> Self {
        let kills = plan.kills.len();
        Jobs {
            app: Arc::new(app),
            plan,
            checker: Checker::new(workload, kills),
            // Until the reference run has shown how long a job takes.
            timeout: Duration::from_secs(60),
            hung: false,
        }
    }

    fn note(&mut self, result: &Result<Outcome, Failure>) {
        if matches!(result, Err(Failure::Hung(_))) {
            self.hung = true;
        }
    }

    /// Run and check one untraced job. `None` if it failed, or if an
    /// earlier job hung (its threads still hold the cores).
    fn run(&mut self, variant: Variant) -> Option<Outcome> {
        if self.hung {
            return None;
        }
        let result = run_watched(
            self.app.clone(),
            config(&self.plan, variant),
            None,
            self.timeout,
        );
        self.note(&result);
        self.checker.check(variant, result)
    }

    /// The failure-free reference run. It fixes the digests every later
    /// job must reproduce, and the watchdog: 20× its time per attempt.
    fn reference(&mut self) -> Option<Outcome> {
        let out = self.run(Variant::None)?;
        let attempts = (1 + self.plan.kills.len()) as f64;
        self.timeout = Duration::from_secs_f64(
            (20.0 * attempts * out.wall_s).clamp(5.0, 60.0),
        );
        Some(out)
    }

    /// One short job at full instrumentation, to fault in the checkpoint
    /// path before anything is timed. Its outputs belong to a shorter job,
    /// so only its completion is checked.
    fn warm_up(&mut self, make: &dyn Fn(u64) -> A) {
        if self.hung {
            return;
        }
        let short = Plan {
            every_ops: (self.plan.every_ops / WARMUP_DIVISOR).max(1),
            kills: Vec::new(),
            ..self.plan.clone()
        };
        let iters = (self.plan.app.iters() / WARMUP_DIVISOR).max(1);
        let result = run_watched(
            Arc::new(make(iters)),
            config(&short, Variant::Full),
            None,
            self.timeout,
        );
        self.note(&result);
        self.checker.check_completed("warm-up", result);
    }

    /// Count a probe like a job: a probe that fails or hangs is a failure
    /// with its name on it, and its metrics stay without a value.
    fn probe<T: Default>(&mut self, name: &str, got: Result<T, Failure>) -> T {
        if matches!(got, Err(Failure::Hung(_))) {
            self.hung = true;
        }
        self.checker.check_completed(name, got).unwrap_or_default()
    }

    /// Whether the pass must stop repeating now, enough samples or not.
    fn past_deadline(&self, opts: &Opts) -> bool {
        self.hung || opts.process_start.elapsed().as_secs_f64() > DEADLINE_S
    }

    /// Fewer repetitions than the minimum is a failure with its name on
    /// it, not a quietly thinner sample. (A hang is already counted.)
    fn check_repetitions(&mut self, what: &str, got: usize, least: usize) {
        if got < least && !self.hung {
            let short = Failure::Error(format!(
                "{got} of at least {least} before the {DEADLINE_S} s deadline"
            ));
            self.checker.check_completed::<()>(what, Err(short));
        }
    }

    /// The report of a pass, still without its measurements.
    fn finish(self, pass: Pass, opts: &Opts, host: Host) -> Report {
        Report {
            pass,
            opts: opts.clone(),
            host,
            plan: self.plan,
            attempted: self.checker.attempted,
            failed: self.checker.failed,
            failures: self.checker.failures,
            hung: self.hung,
            reps: 0,
            readings: Vec::new(),
            variants: Vec::new(),
            checks: Vec::new(),
        }
    }
}

/// The variants that ran at least once, with their wall times.
fn variants_run(
    walls: BTreeMap<&'static str, Vec<f64>>,
) -> Vec<(&'static str, Vec<f64>)> {
    walls.into_iter().filter(|(_, w)| !w.is_empty()).collect()
}

/// Whether another repetition of `last` seconds still fits the budget.
fn fits(since: Instant, last: Duration, budget: f64) -> bool {
    (since.elapsed() + last).as_secs_f64() <= budget
}

/// `--trace 0`: the end-to-end metrics of one workload.
pub fn timed<A>(make: &dyn Fn(u64) -> A, opts: &Opts) -> Report
where
    A: C3App + Send + 'static,
    A::Output: OutputWords,
{
    let host = Host::pin_and_probe();
    let plan = opts.workload.plan(opts.seed, opts.smoke);
    let mut jobs = Jobs::new(make(plan.app.iters()), plan, opts.workload.name);

    // Set-up, several times over: process start (or the end of the last
    // set-up) → ready to take the first timed sample.
    let mut setup_s = Vec::new();
    let setups = if opts.smoke { 1 } else { SETUPS };
    for i in 0..setups {
        let since = if i == 0 {
            opts.process_start
        } else {
            Instant::now()
        };
        jobs.reference();
        jobs.warm_up(make);
        setup_s.push(since.elapsed().as_secs_f64());
    }

    let killed = !jobs.plan.kills.is_empty();
    let variants: &[Variant] = if killed {
        &[Variant::None, Variant::Full, Variant::Killed]
    } else {
        &[Variant::None, Variant::Full]
    };
    let mut walls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut stored_mb = Vec::new();
    let mut recovery_s = Vec::new();
    let min_reps = if opts.smoke { 1 } else { MIN_REPS };
    let since = Instant::now();
    let mut reps = 0;
    // Variants are interleaved inside each repetition, so drift over the
    // run lands on all of them alike.
    loop {
        let rep_start = Instant::now();
        let mut this_rep = BTreeMap::new();
        for &v in variants {
            if let Some(out) = jobs.run(v) {
                walls.entry(v.name()).or_default().push(out.wall_s);
                if v == Variant::Full {
                    stored_mb.push(out.stored_bytes as f64 / 1e6);
                }
                this_rep.insert(v, out.wall_s);
            }
        }
        if let (Some(k), Some(f)) =
            (this_rep.get(&Variant::Killed), this_rep.get(&Variant::Full))
        {
            recovery_s.push((k - f) / jobs.plan.kills.len() as f64);
        }
        reps += 1;
        let enough = reps >= min_reps
            && !fits(since, rep_start.elapsed(), opts.seconds);
        if enough || jobs.past_deadline(opts) {
            break;
        }
    }
    jobs.check_repetitions("repetitions", reps, min_reps);

    let wall = if killed {
        Variant::Killed
    } else {
        Variant::Full
    };
    let samples =
        |v: Variant| walls.get(v.name()).cloned().unwrap_or_default();
    let mut readings = vec![
        Reading::sampled("setup_s", "s", &setup_s, 1.0),
        Reading::sampled("wall_s", "s", &samples(wall), 1.0),
        Reading::sampled("base_wall_s", "s", &samples(Variant::None), 1.0),
        Reading::mean_of("stored_mb", "MB", &stored_mb),
        Reading::single("peak_rss_mb", "MB", host::peak_rss_mb()),
    ];
    if killed {
        readings.push(Reading::sampled(
            "recovery_s_per_kill",
            "s",
            &recovery_s,
            1.0,
        ));
    }
    let c = &jobs.checker;
    readings.push(Reading::single(
        "failed_frac",
        "ratio",
        c.failed as f64 / c.attempted.max(1) as f64,
    ));
    Report {
        reps,
        readings,
        variants: variants_run(walls),
        ..jobs.finish(Pass::Timed, opts, host)
    }
}

/// What one job run through the wrappers left behind.
struct Traced {
    job: u32,
    outcome: Outcome,
    backend: BackendTotals,
    snapshot: c3obs::Snapshot,
    captured: Captured,
}

/// Run one job through `TracedApp`, `TimedBackend` and a `c3obs` registry.
fn run_traced<A>(
    jobs: &mut Jobs<A>,
    variant: Variant,
    log: &Arc<SpanLog>,
) -> Option<Traced>
where
    A: C3App + Clone + Send + 'static,
    A::Output: OutputWords,
{
    if jobs.hung {
        return None;
    }
    let app =
        Arc::new(TracedApp::new((*jobs.app).clone(), RANKS, log.clone()));
    let backend = Arc::new(TimedBackend::new(log.clone()));
    let registry = c3obs::Registry::new();
    let cfg = config(&jobs.plan, variant).with_obs(registry.clone());
    let (job, start) = log.begin_job();
    let result = run_watched(
        app.clone(),
        cfg,
        Some(backend.clone() as Arc<dyn StorageBackend>),
        jobs.timeout,
    );
    log.end_job(variant.job_span(), start, result.is_ok());
    jobs.note(&result);
    let outcome = jobs.checker.check(variant, result)?;
    Some(Traced {
        job,
        outcome,
        backend: backend.totals(),
        snapshot: registry.snapshot(),
        captured: app.captured(),
    })
}

/// The slowest rank's `apps.run` span of each attempt of `job`.
fn run_span_per_attempt(spans: &[Span], job: u32) -> BTreeMap<u32, f64> {
    let mut slowest: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.job == job && s.name == "apps.run")
    {
        let e = slowest.entry(s.attempt).or_default();
        *e = e.max(s.secs());
    }
    slowest
}

/// Gaps, in seconds, between the first rank leaving `run` in one attempt
/// (the kill) and the first rank entering `run` in the next: detection,
/// pipeline shutdown, `latest_recoverable`, load and restore.
fn restart_gaps(spans: &[Span], job: u32) -> Vec<f64> {
    let mut first_start: BTreeMap<u32, u64> = BTreeMap::new();
    let mut first_end: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.job == job && s.name == "apps.run")
    {
        let e = first_start.entry(s.attempt).or_insert(u64::MAX);
        *e = (*e).min(s.start_ns);
        let e = first_end.entry(s.attempt).or_insert(u64::MAX);
        *e = (*e).min(s.end_ns);
    }
    first_end
        .iter()
        .filter_map(|(attempt, end)| {
            let next = first_start.get(&(attempt + 1))?;
            Some(next.saturating_sub(*end) as f64 / 1e9)
        })
        .collect()
}

/// The median of a `c3obs` log2 histogram, interpolated inside its
/// bucket, in the histogram's own unit.
fn histogram_p50(snapshot: &c3obs::Snapshot, name: &str) -> f64 {
    let mut buckets: BTreeMap<u8, u64> = BTreeMap::new();
    for h in snapshot.histograms.iter().filter(|h| h.name == name) {
        for &(i, n) in &h.buckets {
            *buckets.entry(i).or_default() += n;
        }
    }
    let total: u64 = buckets.values().sum();
    let mut below = 0;
    for (&i, &n) in &buckets {
        if (below + n) * 2 >= total && n > 0 {
            let lo = if i == 0 {
                0.0
            } else {
                (1u128 << (i - 1)) as f64
            };
            let hi = (1u128 << i) as f64;
            let into = (total as f64 / 2.0 - below as f64) / n as f64;
            return lo + (hi - lo) * into;
        }
        below += n;
    }
    0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median wall times of the `none` and `full` variants in the timed
/// pass's result for this workload in the output directory, if it is of
/// the same mode, commit and job sizes. (The seed only moves the kills,
/// which neither variant has.)
fn timed_pass_walls(
    opts: &Opts,
    host: &Host,
    plan: &Plan,
) -> Option<(f64, f64)> {
    let path = opts
        .out_dir
        .join(format!("result-{}.json", opts.workload.name));
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let mode = if opts.smoke { "smoke" } else { "full" };
    let size = |key: &str| doc.get("plan")?.get(key)?.as_f64();
    let same = doc.get("mode")?.as_str()? == mode
        && doc.get("host")?.get("git_commit")?.as_str()? == host.git_commit
        && size("iters")? == plan.app.iters() as f64
        && size("every_ops")? == plan.every_ops as f64;
    if !same {
        return None;
    }
    let wall = |variant: &str| -> Option<f64> {
        doc.get("variants")?.get(variant)?.get("median")?.as_f64()
    };
    Some((wall("none")?, wall("full")?))
}

/// The traced pass's readings. Units come from the catalogue, so a name
/// is written with its unit in one place only.
#[derive(Default)]
struct Layers(Vec<Reading>);

impl Layers {
    fn unit(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
            .unit
    }

    fn single(&mut self, name: &'static str, value: f64) {
        self.0.push(Reading::single(name, Self::unit(name), value));
    }

    fn sampled(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        self.0
            .push(Reading::sampled(name, Self::unit(name), samples, scale));
    }

    fn in_catalogue_order(mut self) -> Vec<Reading> {
        self.0
            .sort_by_key(|r| PER_LAYER.iter().position(|m| m.name == r.name));
        self.0
    }
}

/// `--trace 1`: the per-layer metrics of one workload.
pub fn traced<A>(make: &dyn Fn(u64) -> A, opts: &Opts) -> (Report, Vec<Span>)
where
    A: C3App + Clone + Send + 'static,
    A::Output: OutputWords,
{
    let host = Host::pin_and_probe();
    let w = opts.workload;
    let plan = w.plan(opts.seed, opts.smoke);
    let mut jobs = Jobs::new(make(plan.app.iters()), plan, w.name);
    let log = Arc::new(SpanLog::default());
    let effort = if opts.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };

    jobs.reference();
    jobs.warm_up(make);

    // Level differential: the paper's four versions side by side in every
    // round, untraced. Every other round also runs the full version once
    // more through the wrappers and the registry: in every round it would
    // lengthen a pass that already overruns its budget by a fifth.
    const LEVELS: [Variant; 4] = [
        Variant::None,
        Variant::Piggyback,
        Variant::Protocol,
        Variant::Full,
    ];
    let mut walls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut full_traced: Vec<Traced> = Vec::new();
    let min_rounds = if opts.smoke { 1 } else { MIN_ROUNDS };
    let since = Instant::now();
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        for v in LEVELS {
            if let Some(out) = jobs.run(v) {
                walls.entry(v.name()).or_default().push(out.wall_s);
            }
        }
        if rounds % 2 == 0 {
            if let Some(t) = run_traced(&mut jobs, Variant::Full, &log) {
                walls
                    .entry("full+traced")
                    .or_default()
                    .push(t.outcome.wall_s);
                full_traced.push(t);
            }
        }
        rounds += 1;
        let enough = rounds >= min_rounds
            && !fits(since, round_start.elapsed(), opts.seconds * LEVEL_SHARE);
        if enough || jobs.past_deadline(opts) {
            break;
        }
    }
    jobs.check_repetitions("level rounds", rounds, min_rounds);

    // The kill variants, once each: the kills through the wrappers, and
    // one kill repaired by a localized splice instead of a restart.
    let kills = jobs.plan.kills.len();
    let mut killed_traced = None;
    let mut localized_s = 0.0;
    if kills > 0 {
        killed_traced = run_traced(&mut jobs, Variant::Killed, &log);
        if let Some(t) = &killed_traced {
            walls
                .entry("killed+traced")
                .or_default()
                .push(t.outcome.wall_s);
        }
        if let Some(out) = jobs.run(Variant::Localized) {
            walls.entry("localized").or_default().push(out.wall_s);
            localized_s = out.wall_s;
        }
    }

    let spans = log.snapshot();
    let wall = |name: &str| {
        walls.get(name).and_then(|w| median(w)).unwrap_or(f64::NAN)
    };
    let (none, piggyback, protocol, full) = (
        wall("none"),
        wall("piggyback"),
        wall("protocol"),
        wall("full"),
    );
    let full_traced_s = wall("full+traced");
    let mut layers = Layers::default();
    let mut single = |name, value| layers.single(name, value);

    single("level.none_s", none);
    single("level.piggyback_s", piggyback);
    single("level.protocol_s", protocol);
    single("level.full_s", full);
    single("level.overhead_ratio", ratio(full, none));
    single("core.piggyback_delta_s", piggyback - none);
    single("core.protocol_delta_s", protocol - piggyback);
    single("stateio.delta_s", full - protocol);

    // Spans. The job the counters are read from is the one `wall_s`
    // times: the killed one where the workload has kills.
    let clean_run_s = median(
        &full_traced
            .iter()
            .filter_map(|t| {
                run_span_per_attempt(&spans, t.job).values().copied().last()
            })
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN);
    let subject = killed_traced.as_ref().or(full_traced.last());
    let subject_job = subject.map_or(0, |t| t.job);
    let runs = run_span_per_attempt(&spans, subject_job);
    let init_s = spans
        .iter()
        .filter(|s| s.job == subject_job && s.name == "apps.init")
        .map(Span::secs)
        .fold(0.0, f64::max);
    single("apps.init_s", init_s);
    // The failure-free job's `run`, or the final attempt's after kills.
    let final_run_s = runs.values().copied().last().unwrap_or(f64::NAN);
    single(
        "apps.run_s",
        if kills > 0 { final_run_s } else { clean_run_s },
    );
    single("job.attempts", runs.len() as f64);
    let per_kill =
        |total: f64| if kills > 0 { total / kills as f64 } else { 0.0 };
    let killed_s = killed_traced.as_ref().map_or(0.0, |t| t.outcome.wall_s);
    single(
        "core.recovery_s_per_kill",
        per_kill(killed_s - full_traced_s),
    );
    let gaps = restart_gaps(&spans, subject_job);
    single("core.restart_gap_ms", median(&gaps).unwrap_or(0.0) * 1e3);
    single(
        "core.redo_run_ms",
        per_kill(runs.values().sum::<f64>() - clean_run_s) * 1e3,
    );
    single(
        "core.localized_recovery_s",
        if kills > 0 { localized_s - full } else { 0.0 },
    );
    let b = subject.map(|t| t.backend).unwrap_or_default();
    single("ckptstore.backend_put_s", b.put.secs);
    single("ckptstore.backend_puts", b.put.calls as f64);
    single("ckptstore.backend_put_mb", b.put.mb);
    single("ckptstore.backend_get_s", b.get.secs);
    single("ckptstore.backend_gets", b.get.calls as f64);
    single("ckptstore.backend_get_mb", b.get.mb);
    single("ckptstore.backend_list_s", b.list.secs);
    single("ckptstore.backend_lists", b.list.calls as f64);
    single("ckptstore.backend_deletes", b.delete.calls as f64);
    single(
        "ckptstore.killed_stored_mb",
        killed_traced
            .as_ref()
            .map_or(0.0, |t| t.outcome.stored_bytes as f64 / 1e6),
    );

    // Public counters of that same job: `ProcStats` summed over ranks,
    // and what the crates' own registry already holds.
    let stat = |f: fn(&c3_core::ProcStats) -> u64| {
        subject
            .map_or(0.0, |t| t.outcome.stats.iter().map(f).sum::<u64>() as f64)
    };
    single("core.checkpoints", stat(|s| s.checkpoints));
    single("core.late_logged", stat(|s| s.late_logged));
    single("core.early_recorded", stat(|s| s.early_recorded));
    single("core.suppressed_sends", stat(|s| s.suppressed_sends));
    single("core.late_replayed", stat(|s| s.late_replayed));
    single("core.collectives_logged", stat(|s| s.collectives_logged));
    single("core.app_state_mb", stat(|s| s.app_state_bytes) / 1e6);
    single(
        "core.payload_bytes_copied",
        stat(|s| s.payload_bytes_copied),
    );
    single("core.allocs_on_send_path", stat(|s| s.allocs_on_send_path));
    let empty = c3obs::Snapshot::default();
    let snap = subject.map_or(&empty, |t| &t.snapshot);
    let counter = |name: &str| snap.counter_total(name) as f64;
    single("core.commits", counter("c3_commits_total"));
    single(
        "ckptpipe.stage_ms_p50",
        histogram_p50(snap, "io_stage_ns") / 1e6,
    );
    single(
        "ckptpipe.drain_ms_p50",
        histogram_p50(snap, "io_drain_ns") / 1e6,
    );
    let hits = counter("io_dedup_hits_total");
    single(
        "ckptpipe.dedup_hit_ratio",
        ratio(hits, hits + counter("io_dedup_misses_total")),
    );
    single(
        "ckptpipe.compress_ratio",
        ratio(
            counter("io_postcompress_bytes_total"),
            counter("io_precompress_bytes_total"),
        ),
    );
    single(
        "c3obs.trace_overhead_pct",
        ratio(full_traced_s - full, full) * 100.0,
    );

    // Probes. A failed probe counts as a failed job and leaves its
    // metrics without a value.
    let seed = opts.seed;
    let raw_p2p = jobs.probe(
        "simmpi p2p probe",
        probes::simmpi_exchange(Exchange::PingPong, w.p2p_bytes, seed, effort),
    );
    let raw_coll = jobs.probe(
        "simmpi allgather probe",
        probes::simmpi_exchange(
            Exchange::Allgather,
            w.coll_bytes,
            seed,
            effort,
        ),
    );
    let core_p2p = jobs.probe(
        "core p2p probe",
        probes::core_exchange(Exchange::PingPong, w.p2p_bytes, seed, effort),
    );
    let core_coll = jobs.probe(
        "core allgather probe",
        probes::core_exchange(Exchange::Allgather, w.coll_bytes, seed, effort),
    );
    layers.sampled("simmpi.p2p_rtt_us", &raw_p2p, 1e6);
    layers.sampled("simmpi.allgather_us", &raw_coll, 1e6);
    layers.sampled("core.p2p_rtt_us", &core_p2p, 1e6);
    layers.sampled("core.allgather_us", &core_coll, 1e6);
    let us = |s: &[f64]| median(s).unwrap_or(f64::NAN) * 1e6;
    let collective_tax_us = us(&core_coll) - us(&raw_coll);
    layers.single("core.p2p_tax_us", us(&core_p2p) - us(&raw_p2p));
    layers.single("core.collective_tax_us", collective_tax_us);

    let captured = subject.map(|t| t.captured.clone()).unwrap_or_default();
    let blob = |side: &[Option<Vec<u8>>], rank: usize| -> Vec<u8> {
        side.get(rank).cloned().flatten().unwrap_or_default()
    };
    let state = blob(&captured.end, 0);
    let state_mb = state.len() as f64 / 1e6;
    let (save_s, restore_s) = jobs.probe(
        "statesave probe",
        probes::statesave::<A::State>(&state, effort),
    );
    let mb_per_s =
        |mb: f64, s: &[f64]| ratio(mb, median(s).unwrap_or(f64::NAN));
    layers.single("statesave.save_mb_s", mb_per_s(state_mb, &save_s));
    layers.single("statesave.restore_mb_s", mb_per_s(state_mb, &restore_s));
    layers.single("statesave.state_mb", state_mb);

    let line = |side: &[Option<Vec<u8>>]| -> Vec<Bytes> {
        (0..RANKS)
            .map(|rank| Bytes::from(blob(side, rank)))
            .collect()
    };
    let lines = [line(&captured.start), line(&captured.end)];
    let sp = jobs.probe("storage probe", probes::storage(&lines, effort));
    layers.sampled("ckptpipe.stage_ms", &sp.stage_s, 1e3);
    layers.sampled("ckptpipe.drain_ms", &sp.drain_s, 1e3);
    layers.single("ckptpipe.written_mb_per_line", sp.written_mb_per_line);
    layers.single("ckptpipe.dedup_ratio", sp.dedup_ratio);
    layers.single("ckptstore.put_mb_s", mb_per_s(sp.blob_mb, &sp.put_s));
    layers.single("ckptstore.get_mb_s", mb_per_s(sp.blob_mb, &sp.get_s));
    layers.sampled("ckptstore.commit_us", &sp.commit_s, 1e6);
    layers.sampled(
        "ckptstore.latest_recoverable_us",
        &sp.latest_recoverable_s,
        1e6,
    );

    // Does the probe's per-collective tax, times the collectives the job
    // issues, account for what the piggyback level costs it?
    let collectives = w.collectives_per_iter * jobs.plan.app.iters();
    let tax_s = collective_tax_us / 1e6 * collectives as f64;
    let explained = if collectives == 0 {
        0.0
    } else {
        ratio(tax_s, piggyback - none)
    };
    layers.single("core.collective_tax_explained_ratio", explained);

    let mut checks = Vec::new();
    if collectives > 0 {
        checks.push(Check {
            name: "collective_tax_explains_piggyback",
            ok: (0.7..=1.3).contains(&explained),
            detail: format!(
                "{collective_tax_us:.2} us x {collectives} collectives = \
                 {tax_s:.3} s of core.piggyback_delta_s {:.3} s (ratio \
                 {explained:.2}, accepted 0.70 to 1.30)",
                piggyback - none,
            ),
        });
    }
    match timed_pass_walls(opts, &host, &jobs.plan) {
        Some((timed_none, timed_full)) => {
            for (name, here, there) in [
                ("level_none_matches_timed_pass", none, timed_none),
                ("level_full_matches_timed_pass", full, timed_full),
            ] {
                let off = ratio(here - there, there);
                checks.push(Check {
                    name,
                    ok: off.abs() <= 0.10,
                    detail: format!(
                        "{here:.4} s here, {there:.4} s in the timed pass \
                         ({:+.1}%, accepted within 10%)",
                        off * 100.0
                    ),
                });
            }
        }
        None => println!(
            "# no timed-pass result of this commit and size for {} in {}: \
             run --trace 0 first to have the level runs reconciled with it",
            w.name,
            opts.out_dir.display()
        ),
    }

    let report = Report {
        reps: rounds,
        readings: layers.in_catalogue_order(),
        variants: variants_run(walls),
        checks,
        ..jobs.finish(Pass::Traced, opts, host)
    };
    (report, spans)
}

/// The span file: every span of the traced pass.
pub fn spans_json(opts: &Opts, spans: &[Span]) -> Value {
    json::obj(vec![
        ("schema", "c3bench-spans-v1".into()),
        ("workload", opts.workload.name.into()),
        ("seed", opts.seed.into()),
        ("mode", if opts.smoke { "smoke" } else { "full" }.into()),
        (
            "spans",
            Value::Arr(spans.iter().map(Span::to_json).collect()),
        ),
    ])
}

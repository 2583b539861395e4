use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use c3_apps::{DenseCg, Laplace, Neurosys};
use c3bench::cli::{self, Command};
use c3bench::compare;
use c3bench::json;
use c3bench::passes;
use c3bench::report::{Opts, Pass, Report};
use c3bench::workload::{AppSpec, Workload, WORKLOADS};

/// Run one pass over `opts.workload`, write its files, print it. The one
/// place that knows which application type a workload runs.
fn run_pass(pass: Pass, opts: &Opts) -> Report {
    fn go<A>(pass: Pass, make: &dyn Fn(u64) -> A, opts: &Opts) -> Report
    where
        A: c3_core::C3App + Clone + Send + 'static,
        A::Output: c3bench::runner::OutputWords,
    {
        match pass {
            Pass::Timed => passes::timed(make, opts),
            Pass::Traced => {
                let (report, spans) = passes::traced(make, opts);
                write_file(
                    &opts.out_dir,
                    &format!("trace-{}.json", opts.workload.name),
                    &passes::spans_json(opts, &spans).to_json(),
                );
                report
            }
        }
    }
    let report = match opts.workload.app {
        AppSpec::DenseCg { n, .. } => go(pass, &|i| DenseCg::new(n, i), opts),
        AppSpec::Neurosys { m, .. } => {
            go(pass, &|i| Neurosys::new(m, i), opts)
        }
        AppSpec::Laplace { n, .. } => {
            go(pass, &|iters| Laplace { n, iters }, opts)
        }
    };
    let doc = report.to_json().to_json();
    let stem = match pass {
        Pass::Timed => "result",
        Pass::Traced => "layers",
    };
    write_file(
        &opts.out_dir,
        &format!("{stem}-{}.json", opts.workload.name),
        &doc,
    );
    if let Some(path) = &opts.append {
        let appended = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{doc}"));
        if let Err(e) = appended {
            eprintln!("c3bench: cannot append to {}: {e}", path.display());
        }
    }
    report.print();
    report
}

/// Result files are a convenience: failing to write one is reported and
/// does not fail the measurement.
fn write_file(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    let written = fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, format!("{content}\n")));
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("c3bench: cannot write {}: {e}", path.display()),
    }
}

/// A report that may go out as a result: right shape, and its own result
/// line reads back as the four keys the contract names.
fn validate(report: &Report) -> Vec<String> {
    let mut errors = report.schema_errors();
    match json::parse(&report.contract_line()) {
        Ok(doc) => {
            let keys: Vec<&str> = doc
                .as_obj()
                .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
                .unwrap_or_default();
            if keys != ["correct", "attempted", "failed", "metrics"] {
                errors.push(format!("result line has keys {keys:?}"));
            }
        }
        Err(e) => errors.push(format!("result line does not parse: {e}")),
    }
    errors
}

/// Finish a run whose report is out: a hung job's threads cannot be
/// joined, so the process ends here instead of returning through `main`.
fn exit_after(reports: &[Report], ok: bool) -> ExitCode {
    if reports.iter().any(|r| r.hung) {
        std::process::exit(1);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn smoke(only: Option<&'static Workload>, base: &Opts) -> ExitCode {
    let mut reports = Vec::new();
    let mut problems = Vec::new();
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == *w)) {
        // The timed pass first: the traced pass reconciles against it.
        for pass in [Pass::Timed, Pass::Traced] {
            let opts = Opts {
                workload: w,
                ..base.clone()
            };
            let report = run_pass(pass, &opts);
            let mut errors = validate(&report);
            errors.extend(report.failures.iter().cloned());
            problems.extend(
                errors
                    .into_iter()
                    .map(|e| format!("{} {}: {e}", w.name, pass.name())),
            );
            reports.push(report);
        }
    }
    for p in &problems {
        println!("SMOKE PROBLEM {p}");
    }
    let ok = problems.is_empty();
    println!(
        "{}",
        json::obj(vec![
            ("smoke", true.into()),
            ("passes", reports.len().into()),
            ("problems", problems.len().into()),
            ("ok", ok.into()),
            ("seconds", base.process_start.elapsed().as_secs_f64().into()),
        ])
        .to_json()
    );
    exit_after(&reports, ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("c3bench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare { a, b } => {
            let side = |path: &Path| {
                fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| compare::read_side(&text))
                    .map_err(|e| format!("{}: {e}", path.display()))
            };
            match (side(&a), side(&b)) {
                (Ok(a), Ok(b)) => {
                    let (rows, missing) = compare::compare(&a, &b);
                    ExitCode::from(compare::print(&rows, &missing) as u8)
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("c3bench compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
            smoke: is_smoke,
            out_dir,
            append,
        } => {
            let opts = Opts {
                // Smoke over every workload fills this in per workload.
                workload: workload.unwrap_or(&WORKLOADS[0]),
                seed,
                // Smoke: one repetition, whatever the budget.
                seconds: if is_smoke { 0.0 } else { seconds },
                smoke: is_smoke,
                out_dir,
                append,
                process_start,
            };
            if is_smoke {
                return smoke(workload, &opts);
            }
            let pass = if trace { Pass::Traced } else { Pass::Timed };
            let report = run_pass(pass, &opts);
            let invalid = validate(&report);
            for e in &invalid {
                println!("INVALID {e}");
            }
            let ok = report.correct() && invalid.is_empty();
            // The contract's result: the last line of standard output.
            println!("{}", report.contract_line());
            exit_after(&[report], ok)
        }
    }
}

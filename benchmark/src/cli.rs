//! Command line: the benchmark contract's run, the smoke mode, `compare`.

use std::path::PathBuf;

use crate::workload::{self, Workload, WORKLOADS};

pub const USAGE: &str = "\
usage:
  c3bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
          [--out-dir <dir>] [--append <file>]
      Run one pass over one workload and print every metric by name; the
      last line of standard output is the result as one JSON object.
      --trace 0 (default) measures the end-to-end metrics with nothing
      wrapped; --trace 1 measures the per-layer metrics and writes the span
      file. Result documents go to <dir> (default benchmark/out); --append
      adds the result document to <file> as one line, to build a set for
      `compare`.
  c3bench --smoke [--workload <name>]
      Both passes over every workload (or one) at 1/20 of the size, once:
      exercises every wrapper and probe and validates the output, measures
      nothing.
  c3bench compare <a> <b>
      Judge result set B against A per workload and end-to-end metric;
      exits 1 on a regression, 2 when B lacks a value A has.";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run {
        /// `None` only in smoke mode: every workload.
        workload: Option<&'static Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
        out_dir: PathBuf,
        append: Option<PathBuf>,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("compare takes exactly two files".into()),
        },
        _ => parse_run(args),
    }
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut append = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<_> =
                        WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => out_dir = value.into(),
            "--append" => append = Some(value.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if workload.is_none() && !smoke {
        return Err(
            "--workload is required (or --smoke for all of them)".into()
        );
    }
    Ok(Command::Run {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
        append,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let cmd = parse(&args(
            "--workload cg_kill --seed 42 --seconds 20 --trace 1",
        ))
        .unwrap();
        let Command::Run {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            ..
        } = cmd
        else {
            panic!("not a run");
        };
        assert_eq!(workload.unwrap().name, "cg_kill");
        assert_eq!((seed, seconds, trace, smoke), (42, 20.0, true, false));
    }

    #[test]
    fn other_commands_and_errors() {
        assert_eq!(
            parse(&args("compare a.jsonl b.jsonl")).unwrap(),
            Command::Compare {
                a: "a.jsonl".into(),
                b: "b.jsonl".into()
            }
        );
        assert!(matches!(
            parse(&args("--smoke")).unwrap(),
            Command::Run {
                workload: None,
                smoke: true,
                ..
            }
        ));
        for bad in [
            "",
            "--workload nope",
            "--workload cg_state --trace 2",
            "--workload cg_state --seconds 0",
            "--workload cg_state --seed",
            "--workload cg_state --frobnicate 1",
            "compare only-one",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}

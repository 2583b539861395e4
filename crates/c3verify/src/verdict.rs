//! Library-callable verdicts: the binary's report/exit-code logic as an
//! API.
//!
//! Historically the only way to get `c3verify`'s pass/fail/error
//! three-state answer was to shell out to the binary and inspect its
//! exit status. A [`Verdict`] is that answer as a value: build one from
//! trace files or in-memory records, ask [`Verdict::exit_code`] for the
//! CLI contract (0 clean, 1 violated, 2 error), and render the same
//! per-file output the binary prints. The binary itself is a thin shell
//! around this module, so tests and the `ftfuzz` campaign runner get
//! byte-for-byte the CLI's semantics without spawning a process.

use std::path::Path;

use c3_core::trace::TraceRecord;

use crate::report::Report;

/// Which invariant family to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// The state invariants I1..I16 + T0 (`c3verify check`).
    Invariants,
    /// The happens-before ordering invariants R0..R6 (`c3verify race`).
    Races,
}

impl CheckKind {
    /// The CLI verb this kind corresponds to.
    pub fn verb(self) -> &'static str {
        match self {
            CheckKind::Invariants => "check",
            CheckKind::Races => "race",
        }
    }

    /// Run this check over in-memory records.
    pub fn run(self, records: &[TraceRecord]) -> Report {
        match self {
            CheckKind::Invariants => crate::analyze(records),
            CheckKind::Races => crate::race_check(records),
        }
    }
}

/// One input's result: the report, or the error that prevented one.
#[derive(Debug)]
pub struct FileVerdict {
    /// The path (or `"<memory>"` for in-process records).
    pub input: String,
    /// The check's report, or a read/decode error.
    pub outcome: Result<Report, String>,
}

/// The aggregate answer over a set of inputs, carrying the exit-code
/// contract of the `c3verify` binary.
#[derive(Debug)]
pub struct Verdict {
    /// Which family of invariants was checked.
    pub kind: CheckKind,
    /// Per-input results, in input order. Evaluation stops at the first
    /// error (matching the CLI), so an errored verdict's last entry is
    /// the error.
    pub files: Vec<FileVerdict>,
}

/// Run `kind` over a set of trace artifact files. Evaluation stops at
/// the first unreadable/undecodable file, as the CLI does.
pub fn verdict<P: AsRef<Path>>(kind: CheckKind, paths: &[P]) -> Verdict {
    let check = match kind {
        CheckKind::Invariants => crate::analyze,
        CheckKind::Races => crate::race_check,
    };
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let path = p.as_ref();
        let outcome = crate::read_trace_file(path).map(|r| check(&r));
        let errored = outcome.is_err();
        files.push(FileVerdict {
            input: path.display().to_string(),
            outcome,
        });
        if errored {
            break;
        }
    }
    Verdict { kind, files }
}

/// Run `kind` over in-memory records (a sink snapshot): the single-input
/// verdict with no I/O and hence no error arm.
pub fn verdict_records(kind: CheckKind, records: &[TraceRecord]) -> Verdict {
    Verdict {
        kind,
        files: vec![FileVerdict {
            input: "<memory>".into(),
            outcome: Ok(kind.run(records)),
        }],
    }
}

impl Verdict {
    /// True when every input was readable and every report clean.
    pub fn is_clean(&self) -> bool {
        self.files
            .iter()
            .all(|f| matches!(&f.outcome, Ok(r) if r.is_clean()))
    }

    /// The first I/O or decode error, if any input had one.
    pub fn first_error(&self) -> Option<&str> {
        self.files
            .iter()
            .find_map(|f| f.outcome.as_ref().err().map(String::as_str))
    }

    /// All violations across all readable inputs.
    pub fn violations(&self) -> Vec<&crate::Violation> {
        self.files
            .iter()
            .filter_map(|f| f.outcome.as_ref().ok())
            .flat_map(|r| r.violations.iter())
            .collect()
    }

    /// The binary's exit-status contract: 0 every invariant holds,
    /// 1 some invariant is violated, 2 an input could not be checked.
    pub fn exit_code(&self) -> u8 {
        if self.first_error().is_some() {
            2
        } else if self.is_clean() {
            0
        } else {
            1
        }
    }

    /// Render the reports exactly as the CLI prints them on stdout:
    /// per-file prefixes when checking several files, clean reports
    /// suppressed under `quiet`. Errors are not part of this (the CLI
    /// sends them to stderr); fetch them via [`Verdict::first_error`].
    pub fn render(&self, quiet: bool) -> String {
        let many = self.files.len() > 1;
        let mut out = String::new();
        for f in &self.files {
            if let Ok(report) = &f.outcome {
                if !quiet || !report.is_clean() {
                    if many {
                        out.push_str(&f.input);
                        out.push_str(": ");
                    }
                    out.push_str(&report.render());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_core::trace::{encode_trace, TraceEvent};

    fn rec(rank: u32, seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            rank,
            attempt: 1,
            incarnation: 0,
            seq,
            event,
        }
    }

    #[test]
    fn records_verdict_matches_report() {
        // An empty trace is vacuously clean under both families.
        for kind in [CheckKind::Invariants, CheckKind::Races] {
            let v = verdict_records(kind, &[]);
            assert!(v.is_clean());
            assert_eq!(v.exit_code(), 0);
            assert!(v.first_error().is_none());
            assert!(v.violations().is_empty());
        }
    }

    #[test]
    fn absurd_rank_trips_t0_instead_of_allocating() {
        // Regression (found fuzzing the CLI with byte flips): a
        // corrupted rank field claimed a ~4-billion-rank world and the
        // checkers sized per-rank state by it — an effective hang.
        // Both families must flag T0 and return promptly.
        let records = vec![rec(
            0xff03_0000,
            1,
            TraceEvent::Send {
                comm: 0,
                dst: 1,
                tag: 0,
                epoch: 0,
                logging: false,
                message_id: 0,
                suppressed: false,
                payload_len: 8,
            },
        )];
        for kind in [CheckKind::Invariants, CheckKind::Races] {
            let v = verdict_records(kind, &records);
            assert_eq!(v.exit_code(), 1, "{kind:?}");
            let viols = v.violations();
            assert_eq!(viols.len(), 1);
            assert_eq!(viols[0].invariant, "T0-well-formed");
            assert!(viols[0].detail.contains("claims"), "{}", viols[0].detail);
        }
    }

    #[test]
    fn file_verdict_covers_all_three_exit_codes() {
        let dir = std::env::temp_dir().join("c3verify-verdict-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Clean file: a lone send violates nothing in `check`.
        let clean = dir.join("clean.c3trace");
        let records = vec![rec(
            0,
            1,
            TraceEvent::Send {
                comm: 0,
                dst: 1,
                tag: 0,
                epoch: 0,
                logging: false,
                message_id: 0,
                suppressed: false,
                payload_len: 8,
            },
        )];
        std::fs::write(&clean, encode_trace(&records)).unwrap();
        // Violated file: a message classified late in epoch 0 — no
        // previous epoch exists, so the analyzer must flag it (I2).
        let bad = dir.join("bad.c3trace");
        let records = vec![rec(
            0,
            1,
            TraceEvent::RecvClassified {
                comm: 0,
                src: 1,
                tag: 0,
                message_id: 9,
                class: c3_core::epoch::MsgClass::Late,
                sender_logging: false,
                receiver_epoch: 0,
                receiver_logging: false,
            },
        )];
        std::fs::write(&bad, encode_trace(&records)).unwrap();
        // Garbage file: wrong magic.
        let garbage = dir.join("garbage.c3trace");
        std::fs::write(&garbage, b"not a trace").unwrap();

        let v = verdict(CheckKind::Invariants, &[&clean]);
        assert_eq!(v.exit_code(), 0);
        assert!(!v.render(false).is_empty());
        assert!(v.render(true).is_empty(), "quiet hides clean reports");

        let v = verdict(CheckKind::Invariants, &[&clean, &bad]);
        assert_eq!(v.exit_code(), 1);
        assert!(!v.violations().is_empty());
        let out = v.render(true);
        assert!(
            out.contains("bad.c3trace: "),
            "multi-file render keeps the prefix: {out}"
        );

        let v = verdict(CheckKind::Invariants, &[&garbage, &clean]);
        assert_eq!(v.exit_code(), 2);
        assert!(v.first_error().unwrap().contains("garbage.c3trace"));
        assert_eq!(v.files.len(), 1, "evaluation stops at the error");
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Protocol-invariant verification tooling for the C³ checkpointing
//! protocol (Bronevetsky, Marques, Pingali, Stodghill — "Automated
//! application-level checkpointing of MPI programs", PPoPP 2003).
//!
//! Three layers, stacked on the trace recorder in `c3_core::trace`:
//!
//! 1. **[`analyzer`]** — an offline pass over a recorded trace that
//!    checks sixteen safety invariants of the protocol (epoch monotonicity,
//!    classification soundness, the late-message accounting equation, the
//!    initiator's phase gating, the collective conjunction rule, …) and
//!    reports violations with rank / attempt / operation context.
//! 2. **[`explorer`]** — a bounded exhaustive scheduler that runs short
//!    multi-rank programs through a model of the protocol layer (built
//!    from the real `c3-core` components) under *every* message-delivery
//!    interleaving, analyzing each one.
//! 3. **the `c3verify` binary** — decodes a trace artifact written with
//!    [`c3_core::trace::encode_trace`], prints the report, and exits
//!    non-zero when an invariant is violated, so chaos harnesses and CI
//!    can gate on it.
//!
//! To record a trace, install a [`TraceSink`] in the job's
//! [`C3Config`](c3_core::C3Config) via `with_trace` and hand the sink's
//! records to [`analyze`] (in process) or serialize them with
//! [`c3_core::trace::encode_trace`] for the CLI.

pub mod analyzer;
pub mod explorer;
pub mod hb;
pub mod report;
pub mod verdict;

use std::path::{Path, PathBuf};

use c3_core::trace::{decode_trace, encode_trace, TraceRecord};

pub use analyzer::{analyze, invariant};
pub use explorer::{explore, ExploreConfig, ExploreOutcome, Op, Reduction};
pub use hb::{race, race_check};
pub use report::{Report, Violation};
pub use verdict::{verdict, verdict_records, CheckKind, Verdict};

/// Decode a trace artifact file (magic `C3TRACE2`).
pub fn read_trace_file(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    decode_trace(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `records` as the artifact `target/c3-traces/<name>.c3trace` of
/// this workspace, creating directories as needed, and return its path.
/// CI checks every `*.c3trace` directly in that directory; a clean-trace
/// precondition saves a trace it rejects under `failed/`, out of reach of
/// those globs.
pub fn write_trace(
    name: &str,
    records: &[TraceRecord],
) -> std::io::Result<PathBuf> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../target/c3-traces/{name}.c3trace"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, encode_trace(records))?;
    Ok(path)
}

//! `cargo xtask` — repo-local developer tasks.
//!
//! Two tasks: `lint`, a static pass over the workspace source enforcing
//! repo-specific rules that clippy cannot express, and `fuzz`, the
//! driver loop of the `ftfuzz` seeded crash-recovery fuzzer.
//!
//! ```text
//! cargo xtask lint            # lint the workspace (CI runs this)
//! cargo xtask fuzz --seeds 64 # fuzz 64 seeded campaigns (see fuzz.rs)
//! ```
//!
//! # Rules
//!
//! * **instant-now** — no direct `Instant::now()` calls outside the
//!   files allowlisted in `crates/xtask/lint-allow.txt`. The repo's
//!   observability contract is *zero cost when off*: timing reads are
//!   only allowed behind the c3obs sampling mask or in explicitly
//!   time-based paths (the receive spin, the checkpoint-interval clock).
//! * **hot-path-unwrap** — `unwrap()` / `expect()` in protocol hot-path
//!   files is budgeted per file (a ratchet): the allowlist records the
//!   current count and the lint fails when a file's count differs from
//!   it — above, a new site landed; below, the budget has slack that
//!   would let one land unseen and must be lowered to the count.
//! * **trace-pairing** — the trace vocabulary stays analyzable: every
//!   `TraceEvent` variant declared in `crates/core/src/trace.rs` must be
//!   matched somewhere in `crates/c3verify/src/analyzer.rs` (an emitted
//!   event the analyzer ignores is an invariant hole), and any file that
//!   emits one side of a send/recv event pair (`ControlSent` /
//!   `ControlRecv`, `SuppressSent` / `SuppressRecv`) must emit the
//!   other (a component that records sends but not receipts produces
//!   traces the happens-before checker cannot order).
//! * **no-unsafe** — no `unsafe` anywhere in `crates/*/src`, test
//!   modules included, except below the first `#[cfg(test)]` marker of a
//!   file allowlisted for it: the counting global allocators two crates'
//!   unit tests install.
//! * **stale-entry** — every file an allowlist entry or a `HOT_PATHS`
//!   entry names must exist: an entry for a deleted or renamed file
//!   exempts or budgets nothing, and the file it meant slips out of the
//!   rule unseen.
//! * **ci-filter** — every test-name filter of a `cargo test` or `cargo
//!   miri test` step in `.github/workflows/*.yml` must be contained in
//!   the module path or name of some `#[test] fn` in the targets the step
//!   names. A filter that matches nothing passes with "0 passed", so a
//!   renamed test would silently drop out of its CI step.
//!
//! Test modules are exempt from the other rules: each file is scanned
//! only up to its first `#[cfg(test)]` marker, and `tests/` / `benches/`
//! directories are not scanned at all. Exit status: 0 clean, 1 findings, 2 usage/IO errors.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod fuzz;

/// Event pairs whose emitters must record both sides (rule
/// trace-pairing).
const EVENT_PAIRS: &[(&str, &str)] = &[
    ("ControlSent", "ControlRecv"),
    ("SuppressSent", "SuppressRecv"),
    ("TierDrained", "TierRecovered"),
];

/// Files whose unwrap/expect count is budgeted (rule hot-path-unwrap).
/// Directories (trailing `/`) cover every file beneath them.
const HOT_PATHS: &[&str] = &[
    "crates/core/src/process.rs",
    "crates/core/src/job.rs",
    "crates/simmpi/src/rank.rs",
    "crates/ckptpipe/src/",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {}
        Some("fuzz") => return fuzz::fuzz_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("usage: cargo xtask <lint|fuzz> [args]");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => {
            eprintln!("xtask: unknown task {other}");
            return ExitCode::from(2);
        }
    }
    let root = workspace_root();
    let allow_path = root.join("crates/xtask/lint-allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match Allow::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("xtask lint: {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("xtask lint: {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };
    match lint(&root, &allow) {
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
        Ok(findings) if findings.is_empty() => {
            println!("xtask lint: OK");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: xtask always lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Parsed `lint-allow.txt`.
#[derive(Debug, Default)]
struct Allow {
    /// Files allowed to call `Instant::now()`.
    instant: BTreeSet<String>,
    /// Per-file unwrap/expect budget.
    unwrap_budget: BTreeMap<String, usize>,
    /// Files whose test region may hold `unsafe`.
    unsafe_in_tests: BTreeSet<String>,
}

impl Allow {
    fn parse(text: &str) -> Result<Allow, String> {
        let mut allow = Allow::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let rule = parts.next().unwrap_or_default();
            let path = parts
                .next()
                .ok_or_else(|| format!("line {}: missing path", lineno + 1))?;
            match rule {
                "instant-now" => {
                    allow.instant.insert(path.to_string());
                }
                "no-unsafe" => {
                    allow.unsafe_in_tests.insert(path.to_string());
                }
                "hot-path-unwrap" => {
                    let budget: usize = parts
                        .next()
                        .ok_or_else(|| {
                            format!("line {}: missing budget", lineno + 1)
                        })?
                        .parse()
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                    allow.unwrap_budget.insert(path.to_string(), budget);
                }
                other => {
                    return Err(format!(
                        "line {}: unknown rule {other}",
                        lineno + 1
                    ));
                }
            }
        }
        Ok(allow)
    }
}

/// Run every rule over the workspace at `root`. Returns one line per
/// finding (empty = clean).
fn lint(root: &Path, allow: &Allow) -> Result<Vec<String>, String> {
    let mut findings = Vec::new();
    let files = source_files(root)?;
    // The pattern is assembled at runtime so this file never contains
    // the literal it hunts for.
    let instant_needle = format!("Instant::{}()", "now");
    for (rel, content) in &files {
        let scanned = non_test_region(content);
        check_instant_now(rel, scanned, &instant_needle, allow, &mut findings);
        check_hot_path_unwrap(rel, scanned, allow, &mut findings);
        check_pair_emission(rel, scanned, &mut findings);
        check_no_unsafe(rel, content, allow, &mut findings);
    }
    check_stale_entries(root, allow, &mut findings);
    check_analyzer_coverage(root, &mut findings)?;
    check_ci_filters(root, &mut findings)?;
    Ok(findings)
}

/// Rule ci-filter, over every workflow under `.github/workflows/`.
fn check_ci_filters(
    root: &Path,
    findings: &mut Vec<String>,
) -> Result<(), String> {
    let dir = std::fs::read_dir(root.join(".github/workflows")).into_iter();
    let mut workflows: Vec<PathBuf> =
        dir.flatten().flatten().map(|e| e.path()).collect();
    workflows.sort();
    for workflow in workflows {
        let rel = workflow.strip_prefix(root).unwrap_or(&workflow).display();
        // A `run:` value and its more-indented continuation lines, joined.
        let yaml = read_or_empty(&workflow);
        let mut lines = yaml.lines().peekable();
        while let Some(line) = lines.next() {
            let key = line.trim_start().trim_start_matches("- ");
            let Some(value) = key.strip_prefix("run:") else {
                continue;
            };
            let indent = line.len() - line.trim_start().len();
            let mut run = value.to_string();
            while let Some(next) = lines.next_if(|l| {
                l.trim().is_empty() || l.len() - l.trim_start().len() > indent
            }) {
                run = run + " " + next.trim();
            }
            // Each `cargo test` / `cargo miri test`, up to the next command.
            for args in run.split("cargo ").filter_map(|c| {
                c.strip_prefix("test ").or(c.strip_prefix("miri test "))
            }) {
                let (filters, tests) = ci_step(root, args)?;
                for f in filters {
                    if !tests.iter().any(|t| t.contains(f)) {
                        findings.push(format!(
                            "{rel}: [ci-filter] `cargo test {}`: filter `{f}` \
                             matches no #[test] fn of the targets it names, \
                             so the step runs 0 tests",
                            args.trim()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The test-name filters of one `cargo test` invocation (its arguments),
/// and `module::path::name` of every `#[test] fn` in the targets it
/// selects. An integration-test target is a `tests/*.rs` file or a
/// manifest `path`, named by its file stem.
fn ci_step<'a>(
    root: &Path,
    args: &'a str,
) -> Result<(Vec<&'a str>, Vec<String>), String> {
    let (mut packages, mut targets, mut filters) = (vec![], vec![], vec![]);
    let (mut lib, mut libtest) = (false, false);
    let mut words = args
        .split_whitespace()
        .take_while(|w| !matches!(*w, ";" | "&&" | "||" | "|"));
    while let Some(word) = words.next() {
        match word {
            "--" => libtest = true,
            "-p" | "--package" => packages.extend(words.next()),
            "--test" if !libtest => targets.extend(words.next()),
            "--lib" => lib = true,
            "--target" | "--features" | "--manifest-path" | "--skip" => {
                words.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    let mut tests = Vec::new();
    for parent in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(parent)).into_iter().flatten()
        {
            let dir = entry.map_err(|e| e.to_string())?.path();
            let manifest = read_or_empty(&dir.join("Cargo.toml"));
            let value = |key: &'static str| {
                manifest.lines().filter_map(move |l| {
                    Some(l.strip_prefix(key)?.trim_matches('"'))
                })
            };
            let name = value("name = ").next().unwrap_or_default();
            if !packages.is_empty() && !packages.contains(&name) {
                continue;
            }
            let mut files = Vec::new();
            if (lib || targets.is_empty()) && dir.join("src").is_dir() {
                walk(&dir.join("src"), &dir.join("src"), &mut files)?;
            }
            let roots = std::fs::read_dir(dir.join("tests")).into_iter();
            let roots = roots.flatten().flatten().map(|e| e.path());
            for path in value("path = ").map(|p| dir.join(p)).chain(roots) {
                let stem = path.file_stem().unwrap_or_default();
                if !lib
                    && path.extension().is_some_and(|e| e == "rs")
                    && (targets.is_empty()
                        || targets.iter().any(|t| *t == stem))
                {
                    files.push((String::new(), read_or_empty(&path)));
                }
            }
            for (rel, src) in files {
                test_fns(&rel, &src, &mut tests);
            }
        }
    }
    Ok((filters, tests))
}

/// Append `module::path::name` for every `#[test] fn` of `src`, the file
/// at `rel` below a crate root (empty for a crate root).
fn test_fns(rel: &str, src: &str, out: &mut Vec<String>) {
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    let mut module: Vec<&str> = rel
        .trim_end_matches(".rs")
        .split('/')
        .filter(|p| !matches!(*p, "" | "lib" | "main" | "mod"))
        .collect();
    module.extend(
        lines
            .iter()
            .filter_map(|l| Some(l.strip_suffix(" {")?.split_once("mod ")?.1)),
    );
    for pair in lines.windows(2) {
        if let ("#[test]", Some((_, rest))) =
            (pair[0], pair[1].split_once("fn "))
        {
            let name = rest.split(['(', '<']).next().unwrap_or(rest);
            out.push(format!("{}::{name}", module.join("::")));
        }
    }
}

fn read_or_empty(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Rule stale-entry. `HOT_PATHS` names files of this workspace, so it is
/// checked only under a workspace manifest (fixture roots in tests have
/// none); allowlist entries are always checked.
fn check_stale_entries(
    root: &Path,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    let allowed = allow
        .instant
        .iter()
        .map(|p| ("instant-now", p))
        .chain(allow.unwrap_budget.keys().map(|p| ("hot-path-unwrap", p)))
        .chain(allow.unsafe_in_tests.iter().map(|p| ("no-unsafe", p)));
    for (rule, path) in allowed {
        if !root.join(path).exists() {
            findings.push(format!(
                "{path}: [stale-entry] the {rule} entry in \
                 crates/xtask/lint-allow.txt names a missing file"
            ));
        }
    }
    if !root.join("Cargo.toml").is_file() {
        return;
    }
    for path in HOT_PATHS {
        if !root.join(path).exists() {
            findings.push(format!(
                "{path}: [stale-entry] a HOT_PATHS entry in \
                 crates/xtask/src/main.rs names a missing path"
            ));
        }
    }
}

/// All `.rs` files under `crates/*/src`, as (workspace-relative path,
/// content). `tests/`, `benches/`, generated `target/` trees, and xtask
/// itself are out of scope.
fn source_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates)
        .map_err(|e| format!("{}: {e}", crates.display()))?;
    for entry in entries {
        let dir = entry.map_err(|e| e.to_string())?.path();
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(
    dir: &Path,
    root: &Path,
    out: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let content = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((rel, content));
        }
    }
    Ok(())
}

/// The part of a file before its first `#[cfg(test)]` marker.
fn non_test_region(content: &str) -> &str {
    match content.find("#[cfg(test)]") {
        Some(pos) => &content[..pos],
        None => content,
    }
}

fn check_instant_now(
    rel: &str,
    scanned: &str,
    needle: &str,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    if allow.instant.contains(rel) {
        return;
    }
    for (lineno, line) in scanned.lines().enumerate() {
        if line.contains(needle) && !line.trim_start().starts_with("//") {
            findings.push(format!(
                "{rel}:{}: [instant-now] direct {needle} outside a sampled \
                 obs path (allowlist: crates/xtask/lint-allow.txt)",
                lineno + 1
            ));
        }
    }
}

fn check_hot_path_unwrap(
    rel: &str,
    scanned: &str,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    let hot = HOT_PATHS.iter().any(|h| {
        if let Some(dir) = h.strip_suffix('/') {
            rel.starts_with(dir)
        } else {
            rel == *h
        }
    });
    if !hot {
        return;
    }
    let count = scanned
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .map(|l| {
            l.matches(".unwrap()").count() + l.matches(".expect(").count()
        })
        .sum::<usize>();
    let budget = allow.unwrap_budget.get(rel).copied().unwrap_or(0);
    // Slack is a finding too: a budget above the count lets that many
    // new sites land unseen.
    if count != budget {
        let fix = if count > budget {
            "convert to typed errors or raise the ratchet"
        } else {
            "lower the ratchet"
        };
        findings.push(format!(
            "{rel}: [hot-path-unwrap] {count} unwrap/expect site(s) in a \
             protocol hot path, budget {budget} ({fix} in \
             crates/xtask/lint-allow.txt)"
        ));
    }
}

/// The word `unsafe` outside comments: anywhere in the file, or in a file
/// allowlisted for it, before its test region.
fn check_no_unsafe(
    rel: &str,
    content: &str,
    allow: &Allow,
    findings: &mut Vec<String>,
) {
    let scanned = if allow.unsafe_in_tests.contains(rel) {
        non_test_region(content)
    } else {
        content
    };
    for (lineno, line) in scanned.lines().enumerate() {
        let code = line.split("//").next().unwrap_or_default();
        let mut words =
            code.split(|c: char| !c.is_ascii_alphanumeric() && c != '_');
        if words.any(|w| w == "unsafe") {
            findings.push(format!(
                "{rel}:{}: [no-unsafe] `unsafe` outside an allowlisted test \
                 allocator (crates/xtask/lint-allow.txt)",
                lineno + 1
            ));
        }
    }
}

/// Events this file emits (via `record(TraceEvent::X` or
/// `trace_event(TraceEvent::X`), whitespace-insensitively.
fn emitted_events(scanned: &str) -> BTreeSet<String> {
    let flat: String =
        scanned.chars().filter(|c| !c.is_whitespace()).collect();
    let mut out = BTreeSet::new();
    for marker in ["record(TraceEvent::", "trace_event(TraceEvent::"] {
        let mut rest = flat.as_str();
        while let Some(pos) = rest.find(marker) {
            rest = &rest[pos + marker.len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !name.is_empty() {
                out.insert(name);
            }
        }
    }
    out
}

fn check_pair_emission(rel: &str, scanned: &str, findings: &mut Vec<String>) {
    let emitted = emitted_events(scanned);
    if emitted.is_empty() {
        return;
    }
    for &(a, b) in EVENT_PAIRS {
        let (has_a, has_b) = (emitted.contains(a), emitted.contains(b));
        if has_a != has_b {
            let (present, missing) = if has_a { (a, b) } else { (b, a) };
            findings.push(format!(
                "{rel}: [trace-pairing] emits TraceEvent::{present} but \
                 never TraceEvent::{missing} — one-sided emission leaves \
                 the happens-before graph unordered"
            ));
        }
    }
}

/// Every `TraceEvent` variant must be matched by the analyzer. Skipped
/// when the workspace layout is absent (fixture roots in tests).
fn check_analyzer_coverage(
    root: &Path,
    findings: &mut Vec<String>,
) -> Result<(), String> {
    let trace = root.join("crates/core/src/trace.rs");
    let analyzer = root.join("crates/c3verify/src/analyzer.rs");
    if !trace.is_file() || !analyzer.is_file() {
        return Ok(());
    }
    let trace_src = std::fs::read_to_string(&trace)
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    let analyzer_src = std::fs::read_to_string(&analyzer)
        .map_err(|e| format!("{}: {e}", analyzer.display()))?;
    for variant in trace_event_variants(&trace_src) {
        if !analyzer_src.contains(&format!("TraceEvent::{variant}")) {
            findings.push(format!(
                "crates/core/src/trace.rs: [trace-pairing] TraceEvent::\
                 {variant} is never matched in crates/c3verify/src/\
                 analyzer.rs — an emitted event the analyzer ignores is \
                 an invariant hole"
            ));
        }
    }
    Ok(())
}

/// Variant names of `enum TraceEvent`: 4-space-indented idents inside
/// the enum block (fields are indented deeper), each optionally prefixed
/// by its wire tag, as the `impl_saveload_enum!` table writes them
/// (`    7 => CheckpointTaken {`).
fn trace_event_variants(trace_src: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut in_enum = false;
    for line in trace_src.lines() {
        if line.starts_with("pub enum TraceEvent") {
            in_enum = true;
            continue;
        }
        if !in_enum {
            continue;
        }
        if line == "}" {
            break;
        }
        let Some(body) = line.strip_prefix("    ") else {
            continue;
        };
        if body.starts_with(' ') || body.starts_with('/') {
            continue;
        }
        let body = match body.split_once(" => ") {
            Some((tag, rest))
                if !tag.is_empty()
                    && tag.chars().all(|c| c.is_ascii_digit()) =>
            {
                rest
            }
            _ => body,
        };
        let name: String = body
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            variants.push(name);
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a throwaway workspace at `<tmp>/<name>` with the given
    /// `crates/<crate>/src/<file>` contents.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(name: &str, files: &[(&str, &str)]) -> Fixture {
            let root = std::env::temp_dir()
                .join(format!("xtask-lint-{}-{name}", std::process::id()));
            std::fs::remove_dir_all(&root).ok();
            for (rel, content) in files {
                let path = root.join(rel);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, content).unwrap();
            }
            std::fs::create_dir_all(root.join("crates")).unwrap();
            Fixture { root }
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.root).ok();
        }
    }

    fn needle_line() -> String {
        format!("    let t = std::time::Instant::{}();\n", "now")
    }

    #[test]
    fn clean_fixture_passes() {
        let fx = Fixture::new(
            "clean",
            &[("crates/demo/src/lib.rs", "pub fn f() -> u32 { 41 + 1 }\n")],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unallowlisted_instant_now_is_flagged() {
        let src = format!("pub fn f() {{\n{}}}\n", needle_line());
        let fx = Fixture::new(
            "instant",
            &[("crates/demo/src/lib.rs", src.as_str())],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[instant-now]"), "{findings:?}");

        let mut allow = Allow::default();
        allow.instant.insert("crates/demo/src/lib.rs".into());
        assert!(lint(&fx.root, &allow).unwrap().is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = format!(
            "pub fn f() {{}}\n#[cfg(test)]\nmod tests {{\n fn g() \
             {{\n{}}}\n}}\n",
            needle_line()
        );
        let fx = Fixture::new(
            "testexempt",
            &[("crates/demo/src/lib.rs", src.as_str())],
        );
        assert!(lint(&fx.root, &Allow::default()).unwrap().is_empty());
    }

    #[test]
    fn hot_path_unwrap_ratchet() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap()\n}\npub fn g(x: Option<u32>) -> u32 {\n    \
                   x.expect(\"set\")\n}\n";
        let fx =
            Fixture::new("unwrap", &[("crates/core/src/process.rs", src)]);
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[hot-path-unwrap]"), "{findings:?}");
        assert!(findings[0].contains("2 unwrap"), "{findings:?}");

        let mut allow = Allow::default();
        allow
            .unwrap_budget
            .insert("crates/core/src/process.rs".into(), 2);
        assert!(lint(&fx.root, &allow).unwrap().is_empty());

        allow
            .unwrap_budget
            .insert("crates/core/src/process.rs".into(), 3);
        let findings = lint(&fx.root, &allow).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("lower the ratchet"), "{findings:?}");
    }

    #[test]
    fn one_sided_pair_emission_is_flagged() {
        let src = "fn f(t: &mut Tracer) {\n    t.record(TraceEvent::\
                   ControlSent { dst: 0, kind: 0, arg: 0 });\n}\n";
        let fx = Fixture::new("pair", &[("crates/demo/src/lib.rs", src)]);
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("[trace-pairing]"), "{findings:?}");
        assert!(findings[0].contains("ControlRecv"), "{findings:?}");
    }

    #[test]
    fn unanalyzed_trace_variant_is_flagged() {
        let trace =
            "pub enum TraceEvent {\n    /// Doc.\n    Commit {\n        \
                     ckpt: u64,\n    },\n    Mystery,\n}\n";
        // The same enum as an `impl_saveload_enum!` table: each row
        // leads with its wire tag.
        let table = "pub enum TraceEvent {\n    /// Doc.\n    10 => Commit \
                     {\n        ckpt: u64,\n    },\n    16 => Mystery,\n}\n\
                     }\n";
        let analyzer = "fn scan(e: &TraceEvent) {\n    if let TraceEvent::\
                        Commit { .. } = e {}\n}\n";
        for (name, trace) in [("coverage", trace), ("coverage-table", table)] {
            let fx = Fixture::new(
                name,
                &[
                    ("crates/core/src/trace.rs", trace),
                    ("crates/c3verify/src/analyzer.rs", analyzer),
                ],
            );
            let findings = lint(&fx.root, &Allow::default()).unwrap();
            assert_eq!(findings.len(), 1, "{name}: {findings:?}");
            assert!(findings[0].contains("Mystery"), "{name}: {findings:?}");
        }
    }

    /// The coverage rule reads the real variant table: every variant, in
    /// declaration order, and nothing else.
    #[test]
    fn the_real_trace_table_yields_every_variant() {
        let trace = workspace_root().join("crates/core/src/trace.rs");
        let variants =
            trace_event_variants(&std::fs::read_to_string(trace).unwrap());
        let want = [
            "Send",
            "RecvClassified",
            "LateLogged",
            "EarlyRecorded",
            "ReplayLate",
            "ControlSent",
            "ControlRecv",
            "CheckpointTaken",
            "LogFinalized",
            "InitiatorPhase",
            "Commit",
            "CollectiveControl",
            "BarrierAligned",
            "RecoveryStart",
            "SuppressSent",
            "SuppressRecv",
            "RecoveryComplete",
            "FailStop",
            "BlobStaged",
            "PipelineDrained",
            "GcRan",
            "TierDrained",
            "TierRecovered",
            "RankRespawned",
            "SpliceReplayed",
            "CollectiveUninformed",
        ];
        assert_eq!(variants, want);
    }

    #[test]
    fn entries_naming_missing_files_are_flagged() {
        let fx = Fixture::new(
            "stale",
            &[("crates/demo/src/lib.rs", "pub fn f() {}\n")],
        );
        let allow = Allow::parse(
            "instant-now crates/demo/src/lib.rs\n\
             instant-now crates/gone/src/a.rs\n\
             hot-path-unwrap crates/gone/src/b.rs 0\n\
             no-unsafe crates/gone/src/c.rs\n",
        )
        .unwrap();
        let findings = lint(&fx.root, &allow).unwrap();
        assert_eq!(findings.len(), 3, "{findings:?}");
        for (f, want) in findings.iter().zip(["a.rs", "b.rs", "c.rs"]) {
            assert!(f.contains("[stale-entry]") && f.contains(want), "{f}");
        }
        // Under a workspace manifest every HOT_PATHS entry must exist.
        std::fs::write(fx.root.join("Cargo.toml"), "[workspace]\n").unwrap();
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), HOT_PATHS.len(), "{findings:?}");
        assert!(findings.iter().all(|f| f.contains("HOT_PATHS")));
    }

    #[test]
    fn planted_unsafe_is_flagged() {
        let kw = "unsafe";
        let src = format!(
            "pub fn f(p: *const u8) -> u8 {{\n    {kw} {{ *p }}\n}}\n\
             // {kw} in a comment is not code\n#[cfg(test)]\nmod tests \
             {{\n    {kw} fn g() {{}}\n}}\n"
        );
        let fx = Fixture::new(
            "unsafe",
            &[("crates/demo/src/lib.rs", src.as_str())],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.contains("[no-unsafe]")));
        // Allowlisted, the test region may hold it; the planted block not.
        let mut allow = Allow::default();
        allow
            .unsafe_in_tests
            .insert("crates/demo/src/lib.rs".into());
        let findings = lint(&fx.root, &allow).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("lib.rs:2:"), "{findings:?}");
    }

    #[test]
    fn allowlist_parser_rejects_unknown_rules() {
        assert!(Allow::parse("bogus-rule path").is_err());
        assert!(Allow::parse("hot-path-unwrap path notanumber").is_err());
        let allow = Allow::parse(
            "# comment\ninstant-now a/b.rs\nhot-path-unwrap c/d.rs 3\n",
        )
        .unwrap();
        assert!(allow.instant.contains("a/b.rs"));
        assert_eq!(allow.unwrap_budget.get("c/d.rs"), Some(&3));
    }

    #[test]
    fn dead_ci_filter_is_flagged() {
        let workflow = "    steps:\n      - run: cargo test -p demo --test t \
                        -- alive dead\n      - name: lib\n        run: >\n   \
                        \x20       cargo miri test -p demo --lib\n          \
                        inner gone\n      - run: |\n          cargo test -p \
                        demo x\n          cargo test -p demo lost\n";
        let lib = "mod inner {\n    #[cfg(test)]\n    mod tests {\n        \
                   #[test]\n        fn x() {}\n    }\n}\n";
        let fx = Fixture::new(
            "cifilter",
            &[
                (".github/workflows/ci.yml", workflow),
                ("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n"),
                ("crates/demo/src/lib.rs", lib),
                ("crates/demo/tests/t.rs", "#[test]\nfn alive_case() {}\n"),
            ],
        );
        let findings = lint(&fx.root, &Allow::default()).unwrap();
        assert_eq!(findings.len(), 3, "{findings:?}");
        for (f, dead) in findings.iter().zip(["dead", "gone", "lost"]) {
            assert!(f.contains("[ci-filter]"), "{f}");
            assert!(f.contains(&format!("filter `{dead}`")), "{f}");
        }
    }

    /// The real workspace must lint clean — this is the same invocation
    /// CI runs.
    #[test]
    fn workspace_lints_clean() {
        let root = workspace_root();
        let allow_text =
            std::fs::read_to_string(root.join("crates/xtask/lint-allow.txt"))
                .unwrap();
        let allow = Allow::parse(&allow_text).unwrap();
        let findings = lint(&root, &allow).unwrap();
        assert!(findings.is_empty(), "{findings:#?}");
    }
}

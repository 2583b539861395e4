//! Shared machine-readable benchmark report format.
//!
//! Every micro-benchmark that tracks its numbers in-repo writes a
//! `BENCH_<name>.json` file at the workspace root, and every one of those
//! files has the same shape:
//!
//! ```json
//! {
//!   "bench": "<benchmark name>",
//!   "params": { "<knob>": <scalar>, ... },
//!   "cells":  [ { "<metric>": <scalar>, ... }, ... ]
//! }
//! ```
//!
//! `params` holds the fixed configuration of the run (rank counts,
//! payload sizes, iteration counts); `cells` holds one flat object per
//! measured cell. Scalars are strings, finite numbers, or booleans —
//! nothing nests deeper, so downstream tooling can load any report with
//! a two-level loop and no schema registry.
//!
//! [`Report`] builds and serializes the format; [`validate`] checks an
//! arbitrary JSON document against it (used by the `report_schema`
//! integration test and the CI `bench-smoke` job to keep every checked-in
//! artifact conforming). [`smoke`] reads the `C3_BENCH_SMOKE` environment
//! variable so benches can shrink their iteration counts for CI without
//! clobbering the checked-in full-run artifacts.

use c3obs::json::{self, escape_into, Value};

/// A scalar JSON value as allowed inside `params` and `cells`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// An integer, printed without a decimal point.
    Int(i64),
    /// A finite float, printed with four decimal places.
    Num(f64),
    /// A string, printed with minimal escaping.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl From<i64> for JsonVal {
    fn from(v: i64) -> Self {
        JsonVal::Int(v)
    }
}

impl From<u64> for JsonVal {
    fn from(v: u64) -> Self {
        match i64::try_from(v) {
            Ok(i) => JsonVal::Int(i),
            Err(_) => JsonVal::Num(v as f64),
        }
    }
}

impl From<usize> for JsonVal {
    fn from(v: usize) -> Self {
        JsonVal::from(v as u64)
    }
}

impl From<u32> for JsonVal {
    fn from(v: u32) -> Self {
        JsonVal::Int(v as i64)
    }
}

impl From<f64> for JsonVal {
    fn from(v: f64) -> Self {
        JsonVal::Num(v)
    }
}

impl From<&str> for JsonVal {
    fn from(v: &str) -> Self {
        JsonVal::Str(v.to_string())
    }
}

impl From<String> for JsonVal {
    fn from(v: String) -> Self {
        JsonVal::Str(v)
    }
}

impl From<bool> for JsonVal {
    fn from(v: bool) -> Self {
        JsonVal::Bool(v)
    }
}

impl JsonVal {
    fn render_into(&self, out: &mut String) {
        match self {
            JsonVal::Int(i) => out.push_str(&i.to_string()),
            JsonVal::Num(n) => {
                assert!(n.is_finite(), "non-finite number in report: {n}");
                out.push_str(&format!("{n:.4}"));
            }
            JsonVal::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            JsonVal::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" })
            }
        }
    }
}

/// One flat measurement record: ordered `key: scalar` fields.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    fields: Vec<(String, JsonVal)>,
}

impl Cell {
    /// An empty cell.
    pub fn new() -> Self {
        Cell::default()
    }

    /// Append a field (insertion order is preserved in the output).
    pub fn field(mut self, key: &str, val: impl Into<JsonVal>) -> Self {
        self.fields.push((key.to_string(), val.into()));
        self
    }
}

/// Builder for one `BENCH_<name>.json` report.
#[derive(Debug, Clone)]
pub struct Report {
    bench: String,
    params: Vec<(String, JsonVal)>,
    cells: Vec<Cell>,
}

impl Report {
    /// Start a report for the benchmark named `bench`.
    pub fn new(bench: &str) -> Self {
        Report {
            bench: bench.to_string(),
            params: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Record one fixed configuration knob of the run.
    pub fn param(mut self, key: &str, val: impl Into<JsonVal>) -> Self {
        self.params.push((key.to_string(), val.into()));
        self
    }

    /// Append one measured cell.
    pub fn push_cell(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"bench\": ");
        JsonVal::Str(self.bench.clone()).render_into(&mut out);
        out.push_str(",\n  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    \"");
            escape_into(&mut out, k);
            out.push_str("\": ");
            v.render_into(&mut out);
        }
        out.push_str("\n  },\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {");
            for (j, (k, v)) in cell.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                escape_into(&mut out, k);
                out.push_str("\": ");
                v.render_into(&mut out);
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write the report to `<workspace root>/<file_name>`.
    ///
    /// In smoke mode ([`smoke`]) this is a no-op: CI's tiny iteration
    /// counts must not overwrite the checked-in full-run artifacts.
    pub fn write(&self, file_name: &str) {
        if smoke() {
            println!("C3_BENCH_SMOKE set; not rewriting {file_name}");
            return;
        }
        let json = self.to_json();
        validate(&json).expect("generated report must satisfy its own schema");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file_name);
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Whether the `C3_BENCH_SMOKE` environment variable asks for a tiny CI
/// run (set to anything but `0` or the empty string).
pub fn smoke() -> bool {
    std::env::var("C3_BENCH_SMOKE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The number of fields of an object whose values are all scalars.
/// Nested arrays and objects are schema violations (`null` never gets
/// past the reader).
fn flat_object(v: &Value, what: &str) -> Result<usize, String> {
    let fields = v.as_obj(what)?;
    for (key, val) in fields {
        if matches!(val, Value::Obj(_) | Value::Arr(_)) {
            return Err(format!("{what}: field {key:?} is not a scalar"));
        }
    }
    Ok(fields.len())
}

/// Check a JSON document against the shared benchmark report schema:
/// a top-level object with exactly the keys `bench` (non-empty string),
/// `params` (object of scalars), and `cells` (non-empty array of
/// non-empty objects of scalars), and nothing else.
pub fn validate(doc: &str) -> Result<(), String> {
    const KEYS: [&str; 3] = ["bench", "params", "cells"];
    let top = json::parse(doc)?;
    let mut seen = [false; 3];
    for (key, val) in top.as_obj("top level")? {
        let slot = KEYS
            .iter()
            .position(|k| k == key)
            .ok_or_else(|| format!("unexpected top-level key {key:?}"))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("duplicate {key:?} key"));
        }
        match slot {
            0 => {
                if val.as_str("bench")?.is_empty() {
                    return Err("\"bench\" must be a non-empty string".into());
                }
            }
            1 => {
                flat_object(val, "params")?;
            }
            _ => {
                let cells = val.as_arr("cells")?;
                if cells.is_empty() {
                    return Err("\"cells\" must be non-empty".into());
                }
                for (n, cell) in cells.iter().enumerate() {
                    if flat_object(cell, &format!("cell {n}"))? == 0 {
                        return Err(format!("cell {n} has no fields"));
                    }
                }
            }
        }
    }
    match seen.iter().position(|s| !s) {
        Some(slot) => Err(format!("missing {:?} key", KEYS[slot])),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("unit")
            .param("ranks", 2usize)
            .param("fraction", 0.125)
            .param("label", "a \"quoted\" name")
            .param("enabled", true);
        r.push_cell(
            Cell::new()
                .field("variant", "raw")
                .field("ns_per_msg", 41.5)
                .field("count", 1500u64),
        );
        r.push_cell(
            Cell::new().field("variant", "packed").field("neg", -3i64),
        );
        r
    }

    #[test]
    fn roundtrip_validates() {
        let json = sample().to_json();
        validate(&json).unwrap();
        assert!(json.contains("\"bench\": \"unit\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"count\": 1500"));
    }

    #[test]
    fn rejects_malformed() {
        for (doc, why) in [
            ("{}", "empty object"),
            ("{\"bench\": \"x\", \"params\": {}}", "missing cells"),
            (
                "{\"bench\": \"x\", \"params\": {}, \"cells\": []}",
                "empty cells",
            ),
            (
                "{\"bench\": \"x\", \"params\": {}, \"cells\": [{}]}",
                "empty cell object",
            ),
            (
                "{\"bench\": \"x\", \"params\": {\"a\": [1]}, \
                 \"cells\": [{\"k\": 1}]}",
                "nested array in params",
            ),
            (
                "{\"bench\": \"x\", \"params\": {\"a\": null}, \
                 \"cells\": [{\"k\": 1}]}",
                "null scalar",
            ),
            (
                "{\"bench\": \"x\", \"extra\": 1, \"params\": {}, \
                 \"cells\": [{\"k\": 1}]}",
                "unexpected key",
            ),
            (
                "{\"bench\": \"x\", \"params\": {}, \
                 \"cells\": [{\"k\": 1}]} trailing",
                "trailing garbage",
            ),
        ] {
            assert!(validate(doc).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn accepts_numbers_and_bools() {
        let doc = "{\"bench\": \"n\", \
                   \"params\": {\"x\": -1.5e3, \"y\": false}, \
                   \"cells\": [{\"a\": 0.0001, \"b\": true, \"c\": \"s\"}]}";
        validate(doc).unwrap();
    }

    #[test]
    fn u64_overflow_degrades_to_float() {
        assert!(matches!(JsonVal::from(u64::MAX), JsonVal::Num(_)));
        assert!(matches!(JsonVal::from(5u64), JsonVal::Int(5)));
    }
}

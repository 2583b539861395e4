//! Point-in-time snapshots and their JSON document form.
//!
//! The JSON layout is a shallow document whose arrays contain only
//! *flat objects of scalars*, so downstream tooling can read any section
//! with a two-level loop. Structured fields are packed into scalar strings —
//! labels as `"k=v,k=v"`, histogram buckets as `"idx:count,..."`:
//!
//! ```json
//! {
//!   "schema": "c3obs-snapshot-v2",
//!   "counters":   [ {"name": "...", "labels": "rank=0", "value": 3} ],
//!   "histograms": [ {"name": "...", "labels": "", "count": 7,
//!                    "sum": 2953, "buckets": "0:1,2:2"} ],
//!   "spans":      [ {"name": "...", "rank": 0, "epoch": 1,
//!                    "nanos": 1200} ]
//! }
//! ```
//!
//! [`Snapshot::from_json`] reads the files back through [`crate::json`]
//! (no external dependency) for the CLI and the round-trip tests;
//! [`Snapshot::self_check`] verifies internal consistency (bucket sums
//! match counts, bucket indices in range) and is part of the
//! chaos-matrix health invariants.

use crate::hist::BUCKETS;
use crate::json::{self, escape_into, get, Value};

/// One completed phase span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (e.g. `"local_checkpoint"`).
    pub name: String,
    /// World rank the phase ran on.
    pub rank: u32,
    /// Checkpoint epoch the phase belongs to.
    pub epoch: u64,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
}

/// A counter reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: u64,
}

/// A histogram reading. `buckets` holds only the non-empty buckets as
/// `(bucket index, observation count)` pairs; see
/// [`crate::bucket_index`] for the value-to-bucket mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs in ascending order.
    pub buckets: Vec<(u8, u64)>,
}

/// A point-in-time copy of a [`crate::Registry`]'s contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, in deterministic (name, labels) order.
    pub counters: Vec<MetricValue>,
    /// All histograms, in deterministic (name, labels) order.
    pub histograms: Vec<HistogramSnapshot>,
    /// All spans, in recording order.
    pub spans: Vec<SpanRecord>,
}

/// Schema tag written into (and required from) every snapshot file.
pub const SCHEMA: &str = "c3obs-snapshot-v2";

fn labels_to_str(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn labels_from_str(s: &str) -> Result<Vec<(String, String)>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|pair| {
            pair.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("bad label pair {pair:?}"))
        })
        .collect()
}

fn buckets_to_str(buckets: &[(u8, u64)]) -> String {
    buckets
        .iter()
        .map(|(i, n)| format!("{i}:{n}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn buckets_from_str(s: &str) -> Result<Vec<(u8, u64)>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|pair| {
            let (i, n) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad bucket pair {pair:?}"))?;
            let i: u8 =
                i.parse().map_err(|_| format!("bad bucket index {i:?}"))?;
            let n: u64 =
                n.parse().map_err(|_| format!("bad bucket count {n:?}"))?;
            Ok((i, n))
        })
        .collect()
}

fn push_str_field(out: &mut String, key: &str, val: &str, first: bool) {
    if !first {
        out.push_str(", ");
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\": \"");
    escape_into(out, val);
    out.push('"');
}

fn push_int_field(out: &mut String, key: &str, val: u64, first: bool) {
    if !first {
        out.push_str(", ");
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    out.push_str(&val.to_string());
}

impl Snapshot {
    /// Serialize to the canonical snapshot JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            push_str_field(&mut out, "name", &c.name, true);
            push_str_field(
                &mut out,
                "labels",
                &labels_to_str(&c.labels),
                false,
            );
            push_int_field(&mut out, "value", c.value, false);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            push_str_field(&mut out, "name", &h.name, true);
            push_str_field(
                &mut out,
                "labels",
                &labels_to_str(&h.labels),
                false,
            );
            push_int_field(&mut out, "count", h.count, false);
            push_int_field(&mut out, "sum", h.sum, false);
            push_str_field(
                &mut out,
                "buckets",
                &buckets_to_str(&h.buckets),
                false,
            );
            out.push('}');
        }
        out.push_str("\n  ],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            push_str_field(&mut out, "name", &s.name, true);
            push_int_field(&mut out, "rank", u64::from(s.rank), false);
            push_int_field(&mut out, "epoch", s.epoch, false);
            push_int_field(&mut out, "nanos", s.nanos, false);
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a snapshot document produced by [`Snapshot::to_json`].
    pub fn from_json(doc: &str) -> Result<Snapshot, String> {
        let top = json::parse(doc)?;
        let obj = top.as_obj("top level")?;
        match get(obj, "schema")? {
            Value::Str(s) if s == SCHEMA => {}
            other => {
                return Err(format!(
                    "unsupported schema {other:?}; want {SCHEMA:?}"
                ))
            }
        }
        let mut snap = Snapshot::default();
        for item in get(obj, "counters")?.as_arr("counters")? {
            let o = item.as_obj("counter")?;
            snap.counters.push(MetricValue {
                name: get(o, "name")?.as_str("name")?.to_string(),
                labels: labels_from_str(get(o, "labels")?.as_str("labels")?)?,
                value: get(o, "value")?.as_u64("value")?,
            });
        }
        for item in get(obj, "histograms")?.as_arr("histograms")? {
            let o = item.as_obj("histogram")?;
            snap.histograms.push(HistogramSnapshot {
                name: get(o, "name")?.as_str("name")?.to_string(),
                labels: labels_from_str(get(o, "labels")?.as_str("labels")?)?,
                count: get(o, "count")?.as_u64("count")?,
                sum: get(o, "sum")?.as_u64("sum")?,
                buckets: buckets_from_str(
                    get(o, "buckets")?.as_str("buckets")?,
                )?,
            });
        }
        for item in get(obj, "spans")?.as_arr("spans")? {
            let o = item.as_obj("span")?;
            snap.spans.push(SpanRecord {
                name: get(o, "name")?.as_str("name")?.to_string(),
                rank: u32::try_from(get(o, "rank")?.as_u64("rank")?)
                    .map_err(|_| "rank out of range".to_string())?,
                epoch: get(o, "epoch")?.as_u64("epoch")?,
                nanos: get(o, "nanos")?.as_u64("nanos")?,
            });
        }
        Ok(snap)
    }

    /// Internal-consistency violations (empty when healthy): every
    /// histogram's bucket counts must sum to its `count`, bucket
    /// indices must be in range and strictly ascending, and `sum`
    /// must be zero whenever `count` is zero.
    pub fn self_check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for h in &self.histograms {
            let total: u64 = self.buckets_sum(h);
            if total != h.count {
                bad.push(format!(
                    "histogram {}: bucket sum {} != count {}",
                    h.name, total, h.count
                ));
            }
            if h.count == 0 && h.sum != 0 {
                bad.push(format!(
                    "histogram {}: empty but sum {}",
                    h.name, h.sum
                ));
            }
            let mut prev: Option<u8> = None;
            for &(i, n) in &h.buckets {
                if usize::from(i) >= BUCKETS {
                    bad.push(format!(
                        "histogram {}: bucket index {} out of range",
                        h.name, i
                    ));
                }
                if n == 0 {
                    bad.push(format!(
                        "histogram {}: empty bucket {} recorded",
                        h.name, i
                    ));
                }
                if let Some(p) = prev {
                    if i <= p {
                        bad.push(format!(
                            "histogram {}: bucket order {} after {}",
                            h.name, i, p
                        ));
                    }
                }
                prev = Some(i);
            }
        }
        bad
    }

    fn buckets_sum(&self, h: &HistogramSnapshot) -> u64 {
        h.buckets.iter().map(|(_, n)| *n).sum()
    }

    /// The value of one specific counter, if registered.
    pub fn counter_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<u64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == want)
            .map(|c| c.value)
    }

    /// Sum of a counter across all its label sets (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total observation count of a histogram across label sets.
    pub fn histogram_count_total(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.count)
            .sum()
    }

    /// All spans with the given name, in recording order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter_with("c3_commits_total", &[("rank", "0")]).add(3);
        r.counter_with("c3_commits_total", &[("rank", "1")]).add(3);
        let h = r.histogram_with("io_write_ns", &[("kind", "chunk")]);
        for v in [0, 5, 900, 1023, 70_000] {
            h.record(v);
        }
        r.record_span("local_checkpoint", 1, 2, 48_000);
        r.snapshot()
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = sample();
        let doc = snap.to_json();
        let back = Snapshot::from_json(&doc).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn self_check_accepts_real_snapshots() {
        assert!(sample().self_check().is_empty());
    }

    #[test]
    fn self_check_flags_corruption() {
        let mut snap = sample();
        snap.histograms[0].count += 1;
        let bad = snap.self_check();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("bucket sum"), "{bad:?}");
    }

    #[test]
    fn query_helpers_see_labels() {
        let snap = sample();
        assert_eq!(
            snap.counter_value("c3_commits_total", &[("rank", "0")]),
            Some(3)
        );
        assert_eq!(snap.counter_total("c3_commits_total"), 6);
        assert_eq!(snap.counter_total("absent_total"), 0);
        assert_eq!(snap.histogram_count_total("io_write_ns"), 5);
        let spans = snap.spans_named("local_checkpoint");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].epoch, 2);
    }

    #[test]
    fn from_json_rejects_malformed() {
        for (doc, why) in [
            ("", "empty"),
            ("{}", "missing schema"),
            ("{\"schema\": \"other\"}", "wrong schema"),
            (
                "{\"schema\": \"c3obs-snapshot-v2\", \
                 \"counters\": [], \
                 \"histograms\": [], \"spans\": []} x",
                "trailing garbage",
            ),
            (
                "{\"schema\": \"c3obs-snapshot-v2\", \
                 \"counters\": [{\"name\": \"a\", \
                 \"labels\": \"oops\", \"value\": 1}], \
                 \"histograms\": [], \"spans\": []}",
                "bad label pair",
            ),
            (
                "{\"schema\": \"c3obs-snapshot-v2\", \
                 \"counters\": [{\"name\": \"a\", \
                 \"labels\": \"\", \"value\": -1}], \
                 \"histograms\": [], \"spans\": []}",
                "negative counter",
            ),
        ] {
            assert!(Snapshot::from_json(doc).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::default();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
        assert!(back.self_check().is_empty());
    }
}

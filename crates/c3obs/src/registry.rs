//! The metrics registry and its recording handles.
//!
//! A [`Registry`] is a cheaply-clonable handle to shared interior
//! state. Registering a metric (by name plus an optional label set)
//! takes a mutex and may allocate; re-registering the same name and
//! labels returns a handle to the *same* cells, so components on
//! different threads can share a counter without coordination.
//! Recording through a handle is lock-free: a [`Counter`] add is one
//! relaxed atomic op, a [`Histogram`] record is three. Span recording
//! ([`Registry::record_span`]) takes a mutex and allocates, which is
//! acceptable because spans mark protocol *phases* (a handful per
//! epoch), never per-message events.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{bucket_index, BUCKETS};
use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot, SpanRecord};

/// Source of unique registry ids, used by downstream caches to notice
/// when a different registry has been attached.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A metric's identity: name plus sorted label pairs.
type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared cells backing one histogram.
#[derive(Debug)]
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log2-bucketed histogram handle (see [`crate::bucket_index`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCells>);

impl Histogram {
    /// Record one observation — three relaxed atomic adds, no floats.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<Key, Arc<AtomicU64>>,
    hists: BTreeMap<Key, Arc<HistCells>>,
}

#[derive(Debug)]
struct Inner {
    id: u64,
    tables: Mutex<Tables>,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A registry of metrics and spans. Clone freely: all clones share the
/// same cells. Equality is identity (same shared interior), so config
/// structs holding an optional registry can still derive `PartialEq`.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Registry {
    /// Create an empty registry with a fresh unique [`Registry::id`].
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                tables: Mutex::new(Tables::default()),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This registry's process-unique id. Downstream caches key their
    /// registered handle bundles on it to detect registry swaps.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Register (or look up) a labeled counter.
    pub fn counter_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Counter {
        let mut t = self.inner.tables.lock().unwrap();
        let cell = t
            .counters
            .entry(key(name, labels))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Register (or look up) a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        let mut t = self.inner.tables.lock().unwrap();
        let cell = t
            .hists
            .entry(key(name, labels))
            .or_insert_with(|| Arc::new(HistCells::new()));
        Histogram(Arc::clone(cell))
    }

    /// Record a completed span: a named protocol phase on `rank`
    /// during `epoch` that took `nanos` nanoseconds.
    pub fn record_span(&self, name: &str, rank: u32, epoch: u64, nanos: u64) {
        self.inner.spans.lock().unwrap().push(SpanRecord {
            name: name.to_string(),
            rank,
            epoch,
            nanos,
        });
    }

    /// A point-in-time copy of every metric and span.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.inner.tables.lock().unwrap();
        let counters = t
            .counters
            .iter()
            .map(|((name, labels), cell)| MetricValue {
                name: name.clone(),
                labels: labels.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = t
            .hists
            .iter()
            .map(|((name, labels), cell)| {
                let buckets = cell
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u8, n))
                    })
                    .collect();
                HistogramSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    count: cell.count.load(Ordering::Relaxed),
                    sum: cell.sum.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect();
        drop(t);
        let spans = self.inner.spans.lock().unwrap().clone();
        Snapshot {
            counters,
            histograms,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedups_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter_with("hits_total", &[("rank", "0")]);
        let b = r.counter_with("hits_total", &[("rank", "0")]);
        let c = r.counter_with("hits_total", &[("rank", "1")]);
        a.add(3);
        b.add(4);
        c.inc();
        assert_eq!(a.value(), 7, "same key shares one cell");
        assert_eq!(c.value(), 1, "different labels are distinct");
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.counter_with("x", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.value(), 1);
    }

    #[test]
    fn histogram_counts_land_in_log2_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_ns");
        for v in [0, 1, 2, 3, 900, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2953);
        let snap = r.snapshot();
        let hs = &snap.histograms[0];
        let get = |i: u8| {
            hs.buckets
                .iter()
                .find(|(b, _)| *b == i)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(get(0), 1, "v=0");
        assert_eq!(get(1), 1, "v=1");
        assert_eq!(get(2), 2, "v=2,3");
        assert_eq!(get(10), 2, "v=900,1023");
        assert_eq!(get(11), 1, "v=1024");
    }

    #[test]
    fn registry_identity_and_ids() {
        let r1 = Registry::new();
        let r2 = r1.clone();
        let r3 = Registry::new();
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        assert_eq!(r1.id(), r2.id());
        assert_ne!(r1.id(), r3.id());
    }

    #[test]
    fn spans_are_recorded_in_order() {
        let r = Registry::new();
        r.record_span("local_checkpoint", 0, 1, 1000);
        r.record_span("commit", 0, 1, 2000);
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "local_checkpoint");
        assert_eq!(snap.spans[1].nanos, 2000);
    }
}

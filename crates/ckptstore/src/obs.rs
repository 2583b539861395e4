//! Observability decorator for storage backends.
//!
//! [`ObservedBackend`] wraps any [`StorageBackend`] and records put/get
//! latency histograms plus byte counters into a `c3obs` registry. The
//! handles are registered once at construction; each operation then
//! pays one stopwatch and a few relaxed atomic adds — which is noise
//! next to the storage operation itself, so (unlike the per-message
//! hooks in `simmpi`) nothing here is sampled. Pass-through methods
//! (`contains`, `delete`, `list`, `bytes_written`) are forwarded
//! untouched, so byte accounting built on the inner backend keeps
//! working.

use std::sync::Arc;

use c3obs::{Counter, Histogram, Registry, Stopwatch};

use crate::backend::StorageBackend;
use crate::error::StoreResult;

/// A [`StorageBackend`] decorator recording latency and volume metrics.
pub struct ObservedBackend {
    inner: Arc<dyn StorageBackend>,
    put_ns: Histogram,
    get_ns: Histogram,
    puts: Counter,
    gets: Counter,
    put_bytes: Counter,
    get_bytes: Counter,
}

impl ObservedBackend {
    /// Wrap `inner`, registering the metric handles in `reg`.
    pub fn new(inner: Arc<dyn StorageBackend>, reg: &Registry) -> Self {
        ObservedBackend {
            inner,
            put_ns: reg.histogram("store_put_ns"),
            get_ns: reg.histogram("store_get_ns"),
            puts: reg.counter("store_puts_total"),
            gets: reg.counter("store_gets_total"),
            put_bytes: reg.counter("store_put_bytes_total"),
            get_bytes: reg.counter("store_get_bytes_total"),
        }
    }
}

impl StorageBackend for ObservedBackend {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        let t = Stopwatch::start();
        let res = self.inner.put(key, value);
        self.put_ns.record(t.elapsed_ns());
        self.puts.inc();
        self.put_bytes.add(value.len() as u64);
        res
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        // One stopwatch for the whole batch (batch latency is what the
        // drain path experiences); counters still advance per item so
        // volume metrics stay comparable with looped puts.
        let t = Stopwatch::start();
        let res = self.inner.put_many(items);
        self.put_ns.record(t.elapsed_ns());
        self.puts.add(items.len() as u64);
        self.put_bytes
            .add(items.iter().map(|(_, v)| v.len() as u64).sum());
        res
    }

    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        let t = Stopwatch::start();
        let res = self.inner.get(key);
        self.get_ns.record(t.elapsed_ns());
        self.gets.inc();
        if let Ok(v) = &res {
            self.get_bytes.add(v.len() as u64);
        }
        res
    }

    fn contains(&self, key: &str) -> StoreResult<bool> {
        self.inner.contains(key)
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        self.inner.list(prefix)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn as_tiered(&self) -> Option<&crate::tier::TieredBackend> {
        self.inner.as_tiered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    #[test]
    fn decorator_records_and_forwards() {
        let reg = Registry::new();
        let inner = Arc::new(MemoryBackend::new());
        let obs = ObservedBackend::new(inner.clone(), &reg);
        obs.put("k", &[1, 2, 3]).unwrap();
        assert_eq!(obs.get("k").unwrap(), vec![1, 2, 3]);
        assert!(obs.contains("k").unwrap());
        assert!(obs.get("missing").is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("store_puts_total"), 1);
        assert_eq!(snap.counter_total("store_gets_total"), 2);
        assert_eq!(snap.counter_total("store_put_bytes_total"), 3);
        assert_eq!(snap.counter_total("store_get_bytes_total"), 3);
        assert_eq!(snap.histogram_count_total("store_put_ns"), 1);
        assert_eq!(snap.histogram_count_total("store_get_ns"), 2);
        // Byte accounting still reaches the inner backend.
        assert_eq!(obs.bytes_written(), inner.bytes_written());
        obs.delete("k").unwrap();
        assert!(!obs.contains("k").unwrap());
    }

    #[test]
    fn put_many_counts_items_and_times_the_batch_once() {
        let reg = Registry::new();
        let obs = ObservedBackend::new(Arc::new(MemoryBackend::new()), &reg);
        let batch: Vec<(String, Vec<u8>)> = vec![
            ("a".into(), vec![0; 10]),
            ("b".into(), vec![0; 20]),
            ("c".into(), vec![0; 30]),
        ];
        obs.put_many(&batch).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("store_puts_total"), 3);
        assert_eq!(snap.counter_total("store_put_bytes_total"), 60);
        assert_eq!(snap.histogram_count_total("store_put_ns"), 1);
        assert_eq!(obs.get("c").unwrap().len(), 30);
    }
}

//! Benchmark-owned tracing: a span log, a wrapper around a `C3App` and a
//! wrapper around a storage backend. Spans are recorded here, at the calls
//! into each crate's public items; nothing inside the crates is touched.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use c3_core::{C3App, C3Result, Process};
use ckptstore::{MemoryBackend, StorageBackend, StoreResult, TieredBackend};
use statesave::snapshot::snapshot_to_bytes;

use crate::json::{obj, Value};

/// One closed span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one: the job span for everything a job
    /// does, `None` for the job span itself.
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Which `run_job` call of this process the span belongs to.
    pub job: u32,
    /// Attempt of that job (1-based) running when the span closed.
    pub attempt: u32,
    /// Rank the work was for, or -1 when it is not one rank's.
    pub rank: i32,
    /// Whether the wrapped call returned `Ok`.
    pub ok: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("id", self.id.into()),
            ("parent", self.parent.map_or(Value::Null, Into::into)),
            ("name", self.name.into()),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            ("job", u64::from(self.job).into()),
            ("attempt", u64::from(self.attempt).into()),
            ("rank", Value::Num(f64::from(self.rank))),
            ("ok", self.ok.into()),
        ])
    }
}

/// Buffers a thread's spans are spread over. Rank threads and writer
/// threads come and go with every attempt, so buffers are picked by a
/// per-thread index instead of being thread-locals that die with their
/// thread; with more buffers than live threads no two threads share one.
const SHARDS: usize = 16;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn shard_of_this_thread() -> usize {
    THREAD_INDEX.with(|c| {
        c.get().unwrap_or_else(|| {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as usize;
            c.set(Some(i));
            i
        })
    }) % SHARDS
}

/// In-memory span log, written out when the benchmark ends.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    shards: [Mutex<Vec<Span>>; SHARDS],
    job: AtomicU32,
    job_span: AtomicU64,
    attempt: AtomicU32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: Default::default(),
            job: AtomicU32::new(0),
            job_span: AtomicU64::new(0),
            attempt: AtomicU32::new(0),
        }
    }
}

impl SpanLog {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.shards[shard_of_this_thread()]
            .lock()
            .expect("span shard poisoned: a recording thread panicked")
            .push(span);
    }

    /// Open the span of the next job: later spans name it as their
    /// parent. Returns the job's number and the instant the span opened.
    pub fn begin_job(&self) -> (u32, Instant) {
        let job = self.job.fetch_add(1, Ordering::SeqCst) + 1;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.job_span.store(id, Ordering::SeqCst);
        self.attempt.store(0, Ordering::SeqCst);
        (job, Instant::now())
    }

    /// Close the span opened by [`Self::begin_job`].
    pub fn end_job(&self, name: &'static str, start: Instant, ok: bool) {
        self.push(Span {
            id: self.job_span.load(Ordering::SeqCst),
            parent: None,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
            job: self.job.load(Ordering::SeqCst),
            attempt: self.attempt.load(Ordering::SeqCst),
            rank: -1,
            ok,
        });
    }

    /// A rank entered attempt `attempt` of the current job.
    fn enter_attempt(&self, attempt: u32) {
        self.attempt.fetch_max(attempt, Ordering::SeqCst);
    }

    /// Record a closed span under the current job. `attempt` is the
    /// caller's own attempt number when it knows it, else the newest
    /// attempt any rank has entered.
    pub fn record(
        &self,
        name: &'static str,
        (start, end): (Instant, Instant),
        rank: i32,
        attempt: Option<u32>,
        ok: bool,
    ) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(self.job_span.load(Ordering::SeqCst)),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            job: self.job.load(Ordering::SeqCst),
            attempt: attempt
                .unwrap_or_else(|| self.attempt.load(Ordering::SeqCst)),
            rank,
            ok,
        });
    }

    /// All spans recorded so far, by start time.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("span shard poisoned").clone())
            .collect();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// Application state bytes captured at the two ends of `run`, per rank:
/// the inputs of the statesave, ckptpipe and ckptstore probes.
#[derive(Debug, Default, Clone)]
pub struct Captured {
    /// State entering the first `run` (what `init` built).
    pub start: Vec<Option<Vec<u8>>>,
    /// State leaving the last successful `run`.
    pub end: Vec<Option<Vec<u8>>>,
}

/// Wraps a `C3App`: times `init` and `run` per rank and attempt, and
/// captures the serialized state at the start and end of `run`. State,
/// outputs and errors pass through untouched.
pub struct TracedApp<A> {
    inner: A,
    log: Arc<SpanLog>,
    /// Calls of `run` so far on each rank = that rank's attempt number.
    attempts: Vec<AtomicU32>,
    captured: Mutex<Captured>,
}

impl<A: C3App> TracedApp<A> {
    pub fn new(inner: A, nranks: usize, log: Arc<SpanLog>) -> Self {
        TracedApp {
            inner,
            log,
            attempts: (0..nranks).map(|_| AtomicU32::new(0)).collect(),
            captured: Mutex::new(Captured {
                start: vec![None; nranks],
                end: vec![None; nranks],
            }),
        }
    }

    /// The captured state bytes (clones; the app can be run again).
    pub fn captured(&self) -> Captured {
        self.captured.lock().expect("capture lock poisoned").clone()
    }
}

impl<A: C3App> C3App for TracedApp<A> {
    type State = A::State;
    type Output = A::Output;

    fn init(&self, p: &mut Process<'_>) -> C3Result<A::State> {
        let start = Instant::now();
        let res = self.inner.init(p);
        let times = (start, Instant::now());
        // `init` runs on fresh starts, before this rank's next `run`.
        let rank = p.rank();
        let attempt = self.attempts[rank].load(Ordering::SeqCst) + 1;
        self.log.record(
            "apps.init",
            times,
            rank as i32,
            Some(attempt),
            res.is_ok(),
        );
        res
    }

    fn run(
        &self,
        p: &mut Process<'_>,
        state: &mut A::State,
    ) -> C3Result<A::Output> {
        let rank = p.rank();
        let attempt = self.attempts[rank].fetch_add(1, Ordering::SeqCst) + 1;
        self.log.enter_attempt(attempt);
        // Captures sit outside the span: serializing is the benchmark's
        // cost, not the application's.
        if attempt == 1 {
            let bytes = snapshot_to_bytes(state);
            self.captured.lock().expect("capture lock poisoned").start[rank] =
                Some(bytes);
        }
        let start = Instant::now();
        let res = self.inner.run(p, state);
        let times = (start, Instant::now());
        self.log.record(
            "apps.run",
            times,
            rank as i32,
            Some(attempt),
            res.is_ok(),
        );
        if res.is_ok() {
            let bytes = snapshot_to_bytes(state);
            self.captured.lock().expect("capture lock poisoned").end[rank] =
                Some(bytes);
        }
        res
    }
}

/// Calls, time and bytes of one kind of backend operation.
#[derive(Debug, Default)]
struct OpCells {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl OpCells {
    fn add(&self, calls: u64, start: Instant, end: Instant, bytes: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(
            end.duration_since(start).as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn read(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            secs: self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
            mb: self.bytes.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// Totals of one kind of backend operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    /// Blobs moved for puts and gets, calls otherwise.
    pub calls: u64,
    pub secs: f64,
    pub mb: f64,
}

/// What a [`TimedBackend`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendTotals {
    pub put: OpTotals,
    pub get: OpTotals,
    pub list: OpTotals,
    pub delete: OpTotals,
}

/// A `MemoryBackend` that times every call into it. It stores, lists and
/// accounts exactly as the backend it wraps.
#[derive(Default)]
pub struct TimedBackend {
    inner: MemoryBackend,
    log: Arc<SpanLog>,
    put: OpCells,
    get: OpCells,
    list: OpCells,
    delete: OpCells,
}

/// The rank a store key belongs to (`ckpt/00000003/rank1/state` → 1).
fn rank_of_key(key: &str) -> i32 {
    key.split('/')
        .find_map(|part| part.strip_prefix("rank")?.parse().ok())
        .unwrap_or(-1)
}

impl TimedBackend {
    pub fn new(log: Arc<SpanLog>) -> Self {
        TimedBackend {
            log,
            ..Default::default()
        }
    }

    pub fn totals(&self) -> BackendTotals {
        BackendTotals {
            put: self.put.read(),
            get: self.get.read(),
            list: self.list.read(),
            delete: self.delete.read(),
        }
    }

    /// Time `call`, count it under `cells` and record its span.
    fn timed<T>(
        &self,
        name: &'static str,
        cells: &OpCells,
        rank: i32,
        blobs: u64,
        bytes_of: impl FnOnce(&StoreResult<T>) -> u64,
        call: impl FnOnce(&MemoryBackend) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let start = Instant::now();
        let res = call(&self.inner);
        let end = Instant::now();
        cells.add(blobs, start, end, bytes_of(&res));
        self.log.record(name, (start, end), rank, None, res.is_ok());
        res
    }
}

impl StorageBackend for TimedBackend {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        let len = value.len() as u64;
        self.timed(
            "ckptstore.backend_put",
            &self.put,
            rank_of_key(key),
            1,
            |_| len,
            |b| b.put(key, value),
        )
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        let len: u64 = items.iter().map(|(_, v)| v.len() as u64).sum();
        let rank = items.first().map_or(-1, |(k, _)| rank_of_key(k));
        self.timed(
            "ckptstore.backend_put_many",
            &self.put,
            rank,
            items.len() as u64,
            |_| len,
            |b| b.put_many(items),
        )
    }

    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        self.timed(
            "ckptstore.backend_get",
            &self.get,
            rank_of_key(key),
            1,
            |res| res.as_ref().map_or(0, |v: &Vec<u8>| v.len() as u64),
            |b| b.get(key),
        )
    }

    // Asked once per chunk by the dedup check: counted nowhere and given
    // no span, so that the wrapper stays cheap where calls are densest.
    fn contains(&self, key: &str) -> StoreResult<bool> {
        self.inner.contains(key)
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        self.timed(
            "ckptstore.backend_delete",
            &self.delete,
            rank_of_key(key),
            1,
            |_| 0,
            |b| b.delete(key),
        )
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        self.timed(
            "ckptstore.backend_list",
            &self.list,
            -1,
            1,
            |_| 0,
            |b| b.list(prefix),
        )
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn as_tiered(&self) -> Option<&TieredBackend> {
        self.inner.as_tiered()
    }
}

#[cfg(test)]
mod tests {
    use c3_apps::Laplace;
    use c3_core::{run_job, C3Config};

    use super::*;

    #[test]
    fn timed_backend_behaves_like_the_memory_backend_it_wraps() {
        let plain = MemoryBackend::new();
        let timed = TimedBackend::new(Arc::new(SpanLog::default()));
        let backends: [&dyn StorageBackend; 2] = [&plain, &timed];
        let batch = vec![
            ("ckpt/00000001/rank1/state".to_string(), vec![1u8; 300]),
            ("ckpt/00000001/rank0/state".to_string(), vec![2u8; 200]),
            ("chunk/ab".to_string(), vec![3u8; 50]),
        ];
        for b in backends {
            b.put("ckpt/00000001/COMMIT", &[9; 10]).unwrap();
            b.put_many(&batch).unwrap();
            // Overwrite: net accounting subtracts the replaced blob.
            b.put("chunk/ab", &[4; 20]).unwrap();
            b.delete("ckpt/00000001/rank0/state").unwrap();
            b.delete("never/there").unwrap();
        }
        for prefix in ["", "ckpt/", "ckpt/00000001/rank", "chunk/", "zzz"] {
            assert_eq!(
                timed.list(prefix).unwrap(),
                plain.list(prefix).unwrap()
            );
        }
        assert_eq!(
            timed.list("").unwrap(),
            [
                "chunk/ab",
                "ckpt/00000001/COMMIT",
                "ckpt/00000001/rank1/state"
            ]
        );
        assert_eq!(timed.bytes_written(), plain.bytes_written());
        assert_eq!(timed.bytes_written(), 10 + 300 + 200 + 20);
        assert_eq!(
            timed.get("chunk/ab").unwrap(),
            plain.get("chunk/ab").unwrap()
        );
        assert!(timed.get("ckpt/00000001/rank0/state").is_err());
        assert!(timed.contains("chunk/ab").unwrap());
        assert!(!timed.contains("chunk/cd").unwrap());
        assert!(timed.as_tiered().is_none() && plain.as_tiered().is_none());

        let t = timed.totals();
        assert_eq!(t.put.calls, 5, "1 + batch of 3 + 1 overwrite");
        assert_eq!(t.put.mb, (10 + 550 + 20) as f64 / 1e6);
        assert_eq!(t.delete.calls, 2);
        assert_eq!((t.get.calls, t.get.mb), (2, 20.0 / 1e6));
        let spans = timed.log.snapshot();
        let put_many: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "ckptstore.backend_put_many")
            .collect();
        assert_eq!(put_many.len(), 1);
        assert_eq!(put_many[0].rank, 1, "rank of the batch's first key");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn traced_app_returns_what_the_bare_app_returns() {
        let app = Laplace { n: 24, iters: 60 };
        let cfg = C3Config::every_ops(40).with_failure(1, 150);
        let bare = run_job(2, &cfg, None, &app).unwrap();

        let log = Arc::new(SpanLog::default());
        let traced = TracedApp::new(app.clone(), 2, log.clone());
        let cfg = C3Config::every_ops(40).with_failure(1, 150);
        let (job, start) = log.begin_job();
        let report = run_job(2, &cfg, None, &traced).unwrap();
        log.end_job("job", start, true);

        assert_eq!(report.outputs, bare.outputs);
        assert_eq!(report.restarts, bare.restarts);
        assert_eq!(report.last_committed, bare.last_committed);
        assert_eq!(report.restarts, 1, "the kill forced a second attempt");
        assert!(report.recovered_from[0] > 0, "restart from a checkpoint");

        let spans = log.snapshot();
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!((root.name, root.job), ("job", job));
        let runs: Vec<_> =
            spans.iter().filter(|s| s.name == "apps.run").collect();
        assert_eq!(runs.len(), 2 * (report.restarts + 1));
        assert!(runs.iter().all(|s| s.parent == Some(root.id)));
        assert_eq!(runs.iter().filter(|s| s.ok).count(), 2);
        assert_eq!(
            spans.iter().filter(|s| s.name == "apps.init").count(),
            2,
            "init runs on fresh starts only"
        );
        let cap = traced.captured();
        assert!(cap.start.iter().chain(&cap.end).all(Option::is_some));
        assert_ne!(cap.start[0], cap.end[0]);
    }
}

//! Isolated probes: one layer's public calls, repeated at the workload's
//! own sizes, outside any job. Each probe returns its samples; the caller
//! reports medians.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use c3_core::{
    run_job, C3App, C3Config, C3Result, InstrumentationLevel, Process,
};
use ckptpipe::{CheckpointPipeline, PipelineConfig};
use ckptstore::{
    impl_saveload_struct, CheckpointStore, MemoryBackend, RankBlobKind,
    StorageBackend,
};
use simmpi::{Mpi, MpiResult, World};
use statesave::snapshot::{restore_from_bytes, snapshot_to_bytes, SaveState};

use crate::runner::{watched, Failure};
use crate::workload::{splitmix, RANKS};

/// How long each probe repeats its call, and the fewest samples it takes.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub min_secs: f64,
    pub min_samples: usize,
}

impl Effort {
    /// At least 0.2 s of repeated calls per probe.
    pub const FULL: Effort = Effort {
        min_secs: 0.2,
        min_samples: 10,
    };
    pub const SMOKE: Effort = Effort {
        min_secs: 0.01,
        min_samples: 3,
    };

    fn wants_more(&self, since: Instant, have: usize) -> bool {
        since.elapsed().as_secs_f64() < self.min_secs
            || have < self.min_samples
    }

    /// Seconds per call of `call`, sampled until the effort is spent.
    fn sample<E>(
        &self,
        mut call: impl FnMut() -> Result<(), E>,
    ) -> Result<Vec<f64>, E> {
        let since = Instant::now();
        let mut samples = Vec::new();
        while self.wants_more(since, samples.len()) {
            let t = Instant::now();
            call()?;
            samples.push(t.elapsed().as_secs_f64());
        }
        Ok(samples)
    }
}

/// A probe that hangs is a failure, not a stuck command.
const PROBE_TIMEOUT: Duration = Duration::from_secs(30);

/// Message exchanges timed together as one sample: one exchange is a few
/// microseconds, too close to the clock's own cost to time alone.
const BATCH: usize = 200;
const TAG: i32 = 77;

/// `len` seeded bytes; the first is overwritten with the continue flag.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = seed;
    (0..len.max(1)).map(|_| splitmix(&mut rng) as u8).collect()
}

/// Which exchange a message probe repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// Rank 0 sends `bytes` to rank 1 and waits for them to come back.
    PingPong,
    /// `allgather_flat_t::<f64>` with `bytes` contributed per rank.
    Allgather,
}

/// The two message layers share one probe body: rank 0 decides after each
/// batch whether another follows and says so inside the payload, so both
/// ranks stop together without a side channel.
trait Wire {
    type Err;
    fn rank(&self) -> usize;
    fn send(&mut self, dst: usize, payload: &[u8]) -> Result<(), Self::Err>;
    fn recv(&mut self, src: usize) -> Result<Bytes, Self::Err>;
    fn allgather(&mut self, data: &[f64]) -> Result<Vec<f64>, Self::Err>;
}

fn exchange_loop<W: Wire>(
    wire: &mut W,
    what: Exchange,
    bytes: usize,
    seed: u64,
    effort: Effort,
) -> Result<Vec<f64>, W::Err> {
    let since = Instant::now();
    let mut samples = Vec::new();
    let me = wire.rank();
    match what {
        Exchange::PingPong => {
            let mut buf = seeded_bytes(seed, bytes);
            loop {
                let t = Instant::now();
                let mut more = false;
                if me == 0 {
                    more = effort.wants_more(since, samples.len() + 1);
                    buf[0] = u8::from(more);
                    for _ in 0..BATCH {
                        wire.send(1, &buf)?;
                        black_box(wire.recv(1)?);
                    }
                } else {
                    for _ in 0..BATCH {
                        let got = wire.recv(0)?;
                        more = got[0] != 0;
                        wire.send(0, &got)?;
                    }
                }
                samples.push(t.elapsed().as_secs_f64() / BATCH as f64);
                if !more {
                    return Ok(samples);
                }
            }
        }
        Exchange::Allgather => {
            let mut rng = seed ^ me as u64;
            let mut data: Vec<f64> = (0..(bytes / 8).max(1))
                .map(|_| (splitmix(&mut rng) >> 11) as f64)
                .collect();
            loop {
                let t = Instant::now();
                let more = effort.wants_more(since, samples.len() + 1);
                data[0] = if more { 1.0 } else { 0.0 };
                let mut all = Vec::new();
                for _ in 0..BATCH {
                    all = wire.allgather(&data)?;
                }
                samples.push(t.elapsed().as_secs_f64() / BATCH as f64);
                // Rank 0's word leads the gathered vector.
                if all[0] == 0.0 {
                    return Ok(samples);
                }
            }
        }
    }
}

struct Raw<'a>(&'a mut Mpi);

impl Wire for Raw<'_> {
    type Err = simmpi::MpiError;
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn send(&mut self, dst: usize, payload: &[u8]) -> MpiResult<()> {
        let world = self.0.world();
        self.0.send(&world, dst, TAG, payload)
    }
    fn recv(&mut self, src: usize) -> MpiResult<Bytes> {
        let world = self.0.world();
        Ok(self.0.recv(&world, src, TAG)?.payload)
    }
    fn allgather(&mut self, data: &[f64]) -> MpiResult<Vec<f64>> {
        let world = self.0.world();
        self.0.allgather_flat_t::<f64>(&world, data)
    }
}

struct ThroughProcess<'a, 'p>(&'a mut Process<'p>);

impl Wire for ThroughProcess<'_, '_> {
    type Err = c3_core::C3Error;
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn send(&mut self, dst: usize, payload: &[u8]) -> C3Result<()> {
        let world = self.0.world();
        self.0.send(world, dst, TAG, payload)
    }
    fn recv(&mut self, src: usize) -> C3Result<Bytes> {
        let world = self.0.world();
        Ok(self.0.recv(world, src, TAG)?.payload)
    }
    fn allgather(&mut self, data: &[f64]) -> C3Result<Vec<f64>> {
        let world = self.0.world();
        self.0.allgather_flat_t::<f64>(world, data)
    }
}

/// Seconds per exchange through `simmpi` alone (`World::run`, 2 ranks).
///
/// `run_job` keeps a failure detector beside the ranks that wakes every
/// 200 µs. On one CPU those wake-ups change how the scheduler hands the
/// CPU between two ranks that wake each other: the same ping-pong took
/// 9.4 µs without such a thread and 5.5 µs with one. The probe therefore
/// runs beside an equal ticker, so that what separates it from the
/// `core` probe is `Process`, not the scheduler.
pub fn simmpi_exchange(
    what: Exchange,
    bytes: usize,
    seed: u64,
    effort: Effort,
) -> Result<Vec<f64>, Failure> {
    watched(PROBE_TIMEOUT, move || {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let result = World::run(RANKS, |mpi| {
                exchange_loop(&mut Raw(mpi), what, bytes, seed, effort)
            });
            done.store(true, Ordering::Relaxed);
            result
        })
        .map(|mut per_rank| per_rank.swap_remove(0))
        .map_err(|e| Failure::Error(e.to_string()))
    })
}

/// The same exchange as a `C3App`, so that it runs through `Process`.
struct ExchangeApp {
    what: Exchange,
    bytes: usize,
    seed: u64,
    effort: Effort,
}

struct NoState {
    unused: u64,
}
impl_saveload_struct!(NoState { unused: u64 });

impl C3App for ExchangeApp {
    type State = NoState;
    type Output = Vec<f64>;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<NoState> {
        Ok(NoState { unused: 0 })
    }

    fn run(
        &self,
        p: &mut Process<'_>,
        _state: &mut NoState,
    ) -> C3Result<Vec<f64>> {
        exchange_loop(
            &mut ThroughProcess(p),
            self.what,
            self.bytes,
            self.seed,
            self.effort,
        )
    }
}

/// Seconds per exchange through `c3-core`'s `Process` at level
/// `Piggyback`: every message carries the control word, every collective
/// is preceded by its control collective, no checkpoint is ever taken.
pub fn core_exchange(
    what: Exchange,
    bytes: usize,
    seed: u64,
    effort: Effort,
) -> Result<Vec<f64>, Failure> {
    watched(PROBE_TIMEOUT, move || {
        let cfg = C3Config {
            level: InstrumentationLevel::Piggyback,
            ..C3Config::default()
        };
        let app = ExchangeApp {
            what,
            bytes,
            seed,
            effort,
        };
        run_job(RANKS, &cfg, None, &app)
            .map(|mut report| report.outputs.swap_remove(0))
            .map_err(|e| Failure::Error(e.to_string()))
    })
}

/// Seconds per `snapshot_to_bytes` and per `restore_from_bytes` of the
/// application's real state, rebuilt from `captured`.
pub fn statesave<S: SaveState>(
    captured: &[u8],
    effort: Effort,
) -> Result<(Vec<f64>, Vec<f64>), Failure> {
    let err = |e: ckptstore::codec::CodecError| Failure::Error(e.to_string());
    let state: S = restore_from_bytes(captured).map_err(err)?;
    let save = effort.sample(|| {
        black_box(snapshot_to_bytes(black_box(&state)));
        Ok::<(), Failure>(())
    })?;
    let restore = effort.sample(|| {
        black_box(restore_from_bytes::<S>(black_box(captured)).map_err(err)?);
        Ok(())
    })?;
    Ok((save, restore))
}

/// What the storage probes measured.
#[derive(Debug, Clone, Default)]
pub struct StorageProbe {
    /// Seconds per `CheckpointPipeline::stage` call (what a rank pays at
    /// its checkpoint site).
    pub stage_s: Vec<f64>,
    /// Seconds per `drain` issued right after a line's blobs were staged:
    /// the line's write cost with nothing to overlap it.
    pub drain_s: Vec<f64>,
    pub written_mb_per_line: f64,
    /// Chunks found already stored ÷ chunks offered, over both lines.
    pub dedup_ratio: f64,
    /// Seconds per raw `put_rank_blob` of one rank's state.
    pub put_s: Vec<f64>,
    /// Seconds per `get_rank_blob` of a line the pipeline wrote (manifest,
    /// chunk gets, decode): what a restart reads.
    pub get_s: Vec<f64>,
    pub commit_s: Vec<f64>,
    pub latest_recoverable_s: Vec<f64>,
    /// MB of one rank's state blob, the size put and get moved.
    pub blob_mb: f64,
}

fn store_err(e: ckptstore::StoreError) -> Failure {
    Failure::Error(e.to_string())
}

fn fresh_store() -> (Arc<MemoryBackend>, CheckpointStore) {
    let backend = Arc::new(MemoryBackend::new());
    (backend.clone(), CheckpointStore::new(backend, RANKS))
}

/// Replay the captured start and end states as two consecutive checkpoint
/// lines through a default-configured pipeline, then time the store calls
/// a commit and a restart make, on those same blobs.
pub fn storage(
    lines: &[Vec<Bytes>; 2],
    effort: Effort,
) -> Result<StorageProbe, Failure> {
    let mut probe = StorageProbe::default();
    let since = Instant::now();
    let mut rounds = 0u64;
    let (mut written, mut deduped, mut offered) = (0u64, 0u64, 0u64);
    let mut last_store = None;
    while effort.wants_more(since, probe.drain_s.len()) {
        let (backend, store) = fresh_store();
        let pipe =
            CheckpointPipeline::new(store.clone(), PipelineConfig::default());
        for (i, line) in lines.iter().enumerate() {
            let ckpt = i as u64 + 1;
            for (rank, blob) in line.iter().enumerate() {
                let t = Instant::now();
                pipe.stage(ckpt, rank, RankBlobKind::State, blob.clone())
                    .map_err(store_err)?;
                probe.stage_s.push(t.elapsed().as_secs_f64());
                // A line commits only with every rank's log blob present.
                pipe.stage(ckpt, rank, RankBlobKind::Log, Bytes::new())
                    .map_err(store_err)?;
            }
            let t = Instant::now();
            pipe.drain(ckpt).map_err(store_err)?;
            probe.drain_s.push(t.elapsed().as_secs_f64());
            store.commit(ckpt).map_err(store_err)?;
        }
        pipe.shutdown();
        let stats = pipe.stats();
        written += backend.bytes_written();
        deduped += stats.chunks_deduped;
        offered += stats.chunks_deduped + stats.chunks_written;
        rounds += 1;
        last_store = Some(store);
    }
    let store = last_store.expect("at least one round ran");
    probe.written_mb_per_line = written as f64 / (2 * rounds) as f64 / 1e6;
    probe.dedup_ratio = deduped as f64 / offered.max(1) as f64;

    let blob = &lines[1][0];
    probe.blob_mb = blob.len() as f64 / 1e6;
    probe.get_s = effort.sample(|| {
        black_box(
            store
                .get_rank_blob(2, 0, RankBlobKind::State)
                .map_err(store_err)?,
        );
        Ok::<(), Failure>(())
    })?;
    probe.latest_recoverable_s = effort.sample(|| {
        black_box(store.latest_recoverable().map_err(store_err)?);
        Ok::<(), Failure>(())
    })?;

    let (_, scratch) = fresh_store();
    probe.put_s = effort.sample(|| {
        scratch
            .put_rank_blob(1, 0, RankBlobKind::State, blob)
            .map_err(store_err)
    })?;
    // One new line per commit; the blobs stay tiny because a commit's
    // cost is its existence checks and its marker, not the blob sizes.
    let since = Instant::now();
    let mut ckpt = 1;
    while effort.wants_more(since, probe.commit_s.len()) {
        ckpt += 1;
        for rank in 0..RANKS {
            for kind in [RankBlobKind::State, RankBlobKind::Log] {
                scratch
                    .put_rank_blob(ckpt, rank, kind, &[0; 8])
                    .map_err(store_err)?;
            }
        }
        let t = Instant::now();
        scratch.commit(ckpt).map_err(store_err)?;
        probe.commit_s.push(t.elapsed().as_secs_f64());
    }
    Ok(probe)
}

#[cfg(test)]
mod tests {
    use c3_apps::laplace::LaplaceState;

    use super::*;

    #[test]
    fn exchanges_run_on_both_layers_and_stop_together() {
        for what in [Exchange::PingPong, Exchange::Allgather] {
            let raw = simmpi_exchange(what, 256, 3, Effort::SMOKE).unwrap();
            let core = core_exchange(what, 256, 3, Effort::SMOKE).unwrap();
            for samples in [raw, core] {
                assert!(samples.len() >= Effort::SMOKE.min_samples);
                assert!(samples.iter().all(|&s| s > 0.0 && s < 0.1));
            }
        }
    }

    #[test]
    fn statesave_and_storage_probes_report_plausible_numbers() {
        // Like a real job: every rank's state is its own, and between two
        // lines only the head of it changes.
        let state = |rank: u64, iter: u64| LaplaceState {
            iter,
            grid: (0..20_000u64)
                .map(|i| {
                    let moving = if i < 1000 { iter * 7 } else { 0 };
                    (rank * 1_000_000 + i + moving) as f64
                })
                .collect(),
        };
        let blob = snapshot_to_bytes(&state(0, 0));
        let (save, restore) =
            statesave::<LaplaceState>(&blob, Effort::SMOKE).unwrap();
        assert!(save.len() >= 3 && restore.len() >= 3);
        assert!(
            statesave::<LaplaceState>(&blob[..100], Effort::SMOKE).is_err()
        );

        let line = |iter| -> Vec<Bytes> {
            (0..RANKS as u64)
                .map(|rank| Bytes::from(snapshot_to_bytes(&state(rank, iter))))
                .collect()
        };
        let p = storage(&[line(0), line(9)], Effort::SMOKE).unwrap();
        assert_eq!(p.stage_s.len(), 2 * p.drain_s.len());
        assert!(p.drain_s.len() >= 3 && p.commit_s.len() >= 3);
        assert!(p.written_mb_per_line > 0.0);
        // Line 1 finds nothing stored; line 2 finds all but its head.
        assert!(p.dedup_ratio > 0.4 && p.dedup_ratio < 0.5);
        assert!((p.blob_mb - 0.16).abs() < 0.01);
        assert!(!p.get_s.is_empty() && !p.put_s.is_empty());
    }
}

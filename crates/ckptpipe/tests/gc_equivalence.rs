//! GC by the pipeline's live index leaves storage exactly as the listing
//! sweep would. Random interleavings of staging, commits, GCs, tier
//! drains, writes to a tracked field, kill-and-restart (a new pipeline
//! over the same store, after a killed writer put chunks no manifest
//! names) and localized splices run against one pipeline at a time.
//! Before each GC the storage is copied key for key and
//! `CheckpointStore::gc_keeping` — the listing sweep — runs on the copy;
//! afterwards every tier holds the same keys on both sides, and every
//! committed line left restores bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use ckptpipe::{CheckpointPipeline, Chunker, PipelineConfig, WriteMode};
use ckptstore::{
    seal, splitmix64, CheckpointStore, ChunkRef, Decoder, Encoder,
    MemoryBackend, RankBlobKind, StorageBackend, TierSpec, TieredBackend,
    Tracked,
};
use proptest::prelude::*;

const RANKS: usize = 2;

/// The raw tiers of one storage: one `MemoryBackend`, or the three behind
/// a local / partner / erasure `TieredBackend`.
struct Tiers(Vec<Arc<MemoryBackend>>);

impl Tiers {
    fn new(n: usize) -> Self {
        Tiers((0..n).map(|_| Arc::new(MemoryBackend::new())).collect())
    }

    fn store(&self) -> CheckpointStore {
        let backend: Arc<dyn StorageBackend> = match &self.0[..] {
            [one] => one.clone(),
            [local, partner, global] => Arc::new(TieredBackend::new(
                vec![
                    TierSpec::direct(local.clone()),
                    TierSpec::partner(partner.clone(), 1),
                    TierSpec::erasure(global.clone(), 2, 1),
                ],
                RANKS,
            )),
            _ => unreachable!("one tier or three"),
        };
        CheckpointStore::new(backend, RANKS)
    }

    /// A copy, key for key.
    fn copy(&self) -> Tiers {
        let copy = |tier: &Arc<MemoryBackend>| {
            let copy = MemoryBackend::new();
            for key in tier.list("").unwrap() {
                copy.put(&key, &tier.get(&key).unwrap()).unwrap();
            }
            Arc::new(copy)
        };
        Tiers(self.0.iter().map(copy).collect())
    }

    /// Every key of every tier.
    fn keys(&self) -> Vec<Vec<String>> {
        self.0.iter().map(|t| t.list("").unwrap()).collect()
    }
}

/// One rank's state: a line counter and a large field rarely written.
struct RankState {
    line: u64,
    big: Tracked<Vec<u8>>,
}

impl RankState {
    fn encode(&self, enc: &mut Encoder, tracked: bool) {
        enc.put_u64(self.line);
        if tracked {
            enc.put(&self.big);
        } else {
            enc.put(&*self.big);
        }
    }

    /// Decode rank `rank`'s state of `line` as a restart does, and hand
    /// `pipe` the tracked spans the decoder saw.
    fn recover(pipe: &CheckpointPipeline, line: u64, rank: usize) -> Self {
        let kind = RankBlobKind::State;
        let store = pipe.store();
        let (blob, crcs) = store.get_rank_blob_crcs(line, rank, kind).unwrap();
        let mut dec = Decoder::new(&blob);
        let state = RankState {
            line: dec.get_u64().unwrap(),
            big: dec.get().unwrap(),
        };
        dec.finish("state").unwrap();
        let spans = dec.tracked_spans();
        pipe.adopt_line(line, rank, kind, &crcs, spans).unwrap();
        state
    }
}

fn noise(seed: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix64(seed) as u8).collect()
}

/// Stage line `line` of every rank: its state, encoded against the
/// stream's record, and a log. Returns each rank's state as plain bytes.
fn stage_line(
    pipe: &CheckpointPipeline,
    ranks: &mut [RankState],
    line: u64,
    tracked: bool,
) -> Vec<Vec<u8>> {
    let mut blobs = Vec::new();
    for (rank, state) in ranks.iter_mut().enumerate() {
        state.line = line;
        let mut plain = Encoder::new();
        state.encode(&mut plain, tracked);
        let mut enc =
            Encoder::against(pipe.clean_base(rank, RankBlobKind::State));
        state.encode(&mut enc, tracked);
        pipe.stage(line, rank, RankBlobKind::State, enc).unwrap();
        pipe.stage(line, rank, RankBlobKind::Log, vec![line as u8; 40])
            .unwrap();
        blobs.push(plain.into_bytes());
    }
    blobs
}

/// What a writer killed mid-blob leaves: fresh chunks no manifest names.
fn orphans(store: &CheckpointStore, seed: &mut u64) {
    let sealed: Vec<(String, Vec<u8>)> = (0..3)
        .map(|_| {
            let piece = noise(seed, 200);
            (ChunkRef::for_piece(&piece).key(), seal(&piece))
        })
        .collect();
    store.put_chunks(&sealed).unwrap();
}

/// One interleaving. `config` picks one tier or three, a tracked or a
/// plain big field, cuts around 256 or 1024 bytes and sync or async
/// writes; each op draws what to do next.
fn interleaving(config: u64, ops: &[u64]) -> Result<(), TestCaseError> {
    let tiers = Tiers::new(if config & 1 == 0 { 1 } else { 3 });
    let tracked = config & 2 != 0;
    let chunker = if config & 4 == 0 {
        Chunker::cdc(256)
    } else {
        Chunker::cdc(1024)
    };
    let mode = if config & 8 == 0 {
        WriteMode::Sync
    } else {
        WriteMode::Async {
            writers: 2,
            queue_depth: 4,
        }
    };
    let cfg = PipelineConfig::default()
        .with_chunker(chunker)
        .with_mode(mode);
    let store = tiers.store();
    let mut pipe = CheckpointPipeline::new(store.clone(), cfg.clone());
    let mut seed = config;
    let mut ranks: Vec<RankState> = (0..RANKS)
        .map(|rank| RankState {
            line: 0,
            big: Tracked::new(noise(&mut seed, 3000 + 1000 * rank)),
        })
        .collect();
    // Per committed line not yet collected, each rank's state blob.
    let mut lines: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
    let mut staged: Option<(u64, Vec<Vec<u8>>)> = None;
    let mut next = 1;
    let gc = |pipe: &CheckpointPipeline,
              lines: &mut BTreeMap<u64, Vec<Vec<u8>>>,
              staged: &Option<(u64, Vec<Vec<u8>>)>,
              back: u64|
     -> Result<(), TestCaseError> {
        let Some(&newest) = lines.keys().next_back() else {
            return Ok(());
        };
        let keep = newest.saturating_sub(back).max(1);
        // Quiesce: no write or promotion in flight while copying.
        if let Some((line, _)) = staged {
            pipe.drain(*line).unwrap();
        }
        pipe.flush_tier_drains();
        let copy = tiers.copy();
        copy.store().gc_keeping(keep).unwrap();
        pipe.gc_keeping(keep).unwrap();
        prop_assert_eq!(tiers.keys(), copy.keys(), "GC keeping {}", keep);
        lines.retain(|&line, _| line >= keep);
        for (&line, blobs) in lines.iter() {
            for (rank, blob) in blobs.iter().enumerate() {
                let got = store.get_rank_blob(line, rank, RankBlobKind::State);
                prop_assert_eq!(&got.unwrap(), blob, "line {}", line);
            }
        }
        Ok(())
    };
    for &op in ops {
        let arg = op >> 8;
        match op % 7 {
            0 | 1 if staged.is_none() => {
                staged =
                    Some((next, stage_line(&pipe, &mut ranks, next, tracked)));
            }
            2 => {
                if let Some((line, blobs)) = staged.take() {
                    pipe.drain(line).unwrap();
                    store.commit(line).unwrap();
                    pipe.schedule_tier_drain(line);
                    lines.insert(line, blobs);
                    next = line + 1;
                }
            }
            3 => gc(&pipe, &mut lines, &staged, arg & 1)?,
            4 => {
                let state = &mut ranks[arg as usize % RANKS];
                let at = (arg >> 8) as usize % state.big.len();
                state.big[at] ^= 0x5A;
            }
            5 => {
                // Kill: the attempt's writes finish (or are abandoned
                // uncommitted), a dying writer's fresh chunks stay, and a
                // new attempt restarts from the newest committed line.
                pipe.shutdown();
                staged = None;
                orphans(&store, &mut seed);
                pipe = CheckpointPipeline::new(store.clone(), cfg.clone());
                if let Some(&line) = lines.keys().next_back() {
                    ranks = (0..RANKS)
                        .map(|rank| RankState::recover(&pipe, line, rank))
                        .collect();
                    next = line + 1;
                } else {
                    next = 1;
                }
            }
            6 => {
                // Localized splice: the replaced rank's partial write
                // stays, and the pipeline lists at its next GC.
                orphans(&store, &mut seed);
                pipe.relist_at_next_gc();
            }
            _ => {}
        }
    }
    gc(&pipe, &mut lines, &staged, 0)
}

proptest! {
    #[test]
    fn gc_by_the_live_index_leaves_what_the_listing_sweep_leaves(
        config in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 8..48),
    ) {
        interleaving(config, &ops)?;
    }
}

/// A tracked value made of one noise stretch repeated: content-defined
/// cuts find the same chunks in every repeat, so the run object of its
/// first version names a few chunks many times. A new version supersedes
/// it; the GC that collects the old line releases each of those chunks
/// once per time the run names it, and leaves every tier as the listing
/// sweep does.
#[test]
fn a_run_naming_one_chunk_many_times_is_collected_like_the_sweep() {
    for n in [1, 3] {
        let tiers = Tiers::new(n);
        let store = tiers.store();
        let cfg = PipelineConfig::default().with_mode(WriteMode::Sync);
        let pipe = CheckpointPipeline::new(store.clone(), cfg);
        let mut seed = 0x5EED;
        let stretch = noise(&mut seed, 5000);
        let mut ranks: Vec<RankState> = (0..RANKS)
            .map(|rank| RankState {
                line: 0,
                big: Tracked::new(stretch.repeat(40 + rank)),
            })
            .collect();
        let mut repeated = Vec::new();
        for line in 1..=4u64 {
            if line == 3 {
                for state in &mut ranks {
                    *state.big = noise(&mut seed, state.big.len());
                }
            }
            let blobs = stage_line(&pipe, &mut ranks, line, true);
            pipe.drain(line).unwrap();
            store.commit(line).unwrap();
            pipe.schedule_tier_drain(line);
            pipe.flush_tier_drains();
            if line == 1 {
                for rank in 0..RANKS {
                    let m =
                        store.get_rank_manifest(1, rank, RankBlobKind::State);
                    let m = m.unwrap().unwrap();
                    let run = &m.chunks[m.runs[0].chunks.clone()];
                    let mut distinct: Vec<String> =
                        run.iter().map(ChunkRef::key).collect();
                    distinct.sort();
                    distinct.dedup();
                    assert!(
                        distinct.len() * 4 <= run.len(),
                        "rank {rank}: the run names {} chunks, {} distinct",
                        run.len(),
                        distinct.len()
                    );
                    repeated.extend(distinct);
                }
            }
            // Line 1's GC lists and builds the index; the later ones count.
            let copy = tiers.copy();
            copy.store().gc_keeping(line).unwrap();
            pipe.gc_keeping(line).unwrap();
            assert_eq!(tiers.keys(), copy.keys(), "{n} tiers, line {line}");
            for (rank, blob) in blobs.iter().enumerate() {
                let got = store.get_rank_blob(line, rank, RankBlobKind::State);
                assert_eq!(&got.unwrap(), blob, "line {line}");
            }
        }
        // The first version's chunks went with the last line naming them.
        for key in &repeated {
            assert!(!store.has_chunk(key).unwrap(), "{key} outlived its run");
        }
    }
}

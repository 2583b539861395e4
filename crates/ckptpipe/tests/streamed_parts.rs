//! A fresh tracked value streamed from the value itself stores exactly
//! what its inline encoding stores. Random states — tracked values of
//! lengths at chunk and window edges, two tracked fields, a nested
//! tracked value — are written line after line into two stores: encoded
//! inline (`Encoder::new`, every byte in the blob) into one, and against
//! the pipeline's line record (`Encoder::against`: fresh values streamed
//! by the writer, held ones named by reference) into the other. Both
//! stores must hold the same keys with the same bytes, both pipelines
//! the same manifests, and every line must restore to the state's bytes.

use std::sync::Arc;

use ckptpipe::{CheckpointPipeline, Chunker, PipelineConfig, WriteMode};
use ckptstore::{
    splitmix64, CheckpointStore, Encoder, MemoryBackend, RankBlobKind,
    StorageBackend, Tracked,
};
use proptest::prelude::*;

/// What the streaming encoder hands the writer at a time.
const WINDOW: usize = 64 << 10;

/// Tracked value lengths at the edges that matter: empty, one byte, a
/// 4 KiB chunk's edge, a window's, and three windows and a bit.
const LENS: [usize; 10] = [
    0,
    1,
    7,
    4095,
    4096,
    4097,
    WINDOW - 1,
    WINDOW,
    WINDOW + 1,
    3 * WINDOW + 5,
];

const STATE: RankBlobKind = RankBlobKind::State;

/// A rank state with two tracked fields and a tracked value nested in a
/// third, between plain bytes.
struct State {
    head: Vec<u8>,
    a: Tracked<Vec<u8>>,
    b: Tracked<Vec<u8>>,
    nested: Tracked<Vec<Tracked<Vec<u8>>>>,
    tail: Vec<u8>,
}

impl State {
    fn encode(&self, mut enc: Encoder<'static>) -> Encoder<'static> {
        enc.put_bytes(&self.head);
        enc.put(&self.a);
        enc.put(&self.b);
        enc.put(&self.nested);
        enc.put_bytes(&self.tail);
        enc
    }
}

/// `len` bytes of noise, of one repeated byte, or of a short period.
fn bytes(seed: &mut u64, len: usize) -> Vec<u8> {
    let kind = splitmix64(seed) % 3;
    let period = 1 + splitmix64(seed) % 61;
    (0..len as u64)
        .map(|i| match kind {
            0 => splitmix64(seed) as u8,
            1 => 0xA5,
            _ => (i % period) as u8,
        })
        .collect()
}

fn tracked_bytes(seed: &mut u64) -> Vec<u8> {
    let len = LENS[splitmix64(seed) as usize % LENS.len()];
    bytes(seed, len)
}

fn streamed_equals_inline(
    config: u64,
    mut seed: u64,
) -> Result<(), TestCaseError> {
    let chunkers = [Chunker::default(), Chunker::cdc(256), Chunker::cdc(1024)];
    let mode = if config & 4 == 0 {
        WriteMode::Sync
    } else {
        WriteMode::Async {
            writers: 2,
            queue_depth: 4,
        }
    };
    let cfg = PipelineConfig::default()
        .with_chunker(chunkers[config as usize % 3])
        .with_mode(mode);
    let backends = [
        Arc::new(MemoryBackend::new()),
        Arc::new(MemoryBackend::new()),
    ];
    let [inline, streamed] = backends.clone().map(|backend| {
        CheckpointPipeline::new(CheckpointStore::new(backend, 1), cfg.clone())
    });
    let mut state = State {
        head: bytes(&mut seed, 20),
        a: Tracked::new(tracked_bytes(&mut seed)),
        b: Tracked::new(tracked_bytes(&mut seed)),
        nested: Tracked::new(vec![Tracked::new(tracked_bytes(&mut seed))]),
        tail: Vec::new(),
    };
    for line in 1..=3u64 {
        // After the first line one field changes: the others are named
        // by reference on the streamed side, cut and deduplicated on the
        // inline one.
        if line > 1 {
            match splitmix64(&mut seed) % 3 {
                0 => *state.a = tracked_bytes(&mut seed),
                1 => state.b.push(line as u8),
                _ => state.nested[0].insert(0, line as u8),
            }
        }
        // A tail of 0..4 KiB moves where the line's last chunk ends.
        let tail = splitmix64(&mut seed) as usize % 4096;
        state.tail = bytes(&mut seed, tail);
        let plain = state.encode(Encoder::new()).into_bytes();
        let base = streamed.clean_base(0, STATE);
        for (pipe, enc) in [
            (&inline, state.encode(Encoder::new())),
            (&streamed, state.encode(Encoder::against(base))),
        ] {
            pipe.stage(line, 0, STATE, enc).unwrap();
            let log = vec![line as u8];
            pipe.stage(line, 0, RankBlobKind::Log, log).unwrap();
            pipe.drain(line).unwrap();
            pipe.store().commit(line).unwrap();
            pipe.gc_keeping(line).unwrap();
        }
        let manifest = |pipe: &CheckpointPipeline| {
            pipe.store().get_rank_manifest(line, 0, STATE).unwrap()
        };
        prop_assert!(manifest(&inline).is_some());
        prop_assert_eq!(manifest(&inline), manifest(&streamed));
        let [a, b] = &backends;
        let keys = a.list("").unwrap();
        prop_assert_eq!(&keys, &b.list("").unwrap());
        for key in &keys {
            prop_assert!(a.get(key).unwrap() == b.get(key).unwrap(), "{key}");
        }
        for pipe in [&inline, &streamed] {
            let read = pipe.store().get_rank_blob(line, 0, STATE).unwrap();
            prop_assert!(read == plain, "line {line} restores");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn a_streamed_fresh_value_stores_what_its_inline_encoding_stores(
        config in any::<u64>(),
        seed in any::<u64>(),
    ) {
        streamed_equals_inline(config, seed)?;
    }
}

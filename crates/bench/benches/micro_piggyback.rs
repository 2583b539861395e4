//! M1 (ablation): per-message cost of the two piggyback representations —
//! the paper's "simple implementation" (explicit ⟨epoch, amLogging,
//! messageID⟩ triple, 9 bytes) versus the optimized single packed `u32`
//! (Section 4.2).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use c3_core::piggyback::{decode_header, Piggyback, PiggybackMode};

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("piggyback_encode");
    for (name, mode) in [
        ("packed", PiggybackMode::Packed),
        ("explicit", PiggybackMode::Explicit),
    ] {
        g.bench_function(name, |b| {
            let pb = Piggyback {
                epoch: 3,
                logging: true,
                message_id: 12345,
            };
            b.iter(|| black_box(pb).encode_inline(mode).unwrap());
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("piggyback_decode");
    for (name, mode) in [
        ("packed", PiggybackMode::Packed),
        ("explicit", PiggybackMode::Explicit),
    ] {
        let pb = Piggyback {
            epoch: 3,
            logging: true,
            message_id: 12345,
        };
        let buf = pb.encode_inline(mode).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| decode_header(mode, black_box(&buf)).unwrap());
        });
    }
    g.finish();
}

fn bench_classify(c: &mut Criterion) {
    use c3_core::epoch::{classify_by_color, classify_by_epoch, Color};
    c.bench_function("classify/by_epoch", |b| {
        b.iter(|| classify_by_epoch(black_box(4), black_box(5)))
    });
    c.bench_function("classify/by_color", |b| {
        b.iter(|| {
            classify_by_color(
                black_box(Color::Red),
                black_box(Color::Green),
                black_box(true),
            )
        })
    });
}

fn bench_pack_roundtrip(c: &mut Criterion) {
    c.bench_function("pack_unpack_u32", |b| {
        b.iter_batched(
            || Piggyback {
                epoch: 7,
                logging: false,
                message_id: 99,
            },
            |pb| {
                let w = pb.pack();
                black_box(c3_core::piggyback::PackedPiggyback::unpack(w))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_encode, bench_decode, bench_classify, bench_pack_roundtrip
}
criterion_main!(benches);

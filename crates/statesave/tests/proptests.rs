//! Property tests: the managed heap's allocator invariants and
//! save/restore fidelity under arbitrary alloc/free/write sequences, and
//! Position Stack replay semantics.

use proptest::prelude::*;

use ckptstore::codec::{decode_exact, encode};
use statesave::{ManagedHeap, PositionStack};

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(usize),
    FreeNth(usize),
    WriteNth(usize, u8),
}

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..64).prop_map(HeapOp::Alloc),
            (0usize..8).prop_map(HeapOp::FreeNth),
            ((0usize..8), any::<u8>())
                .prop_map(|(i, v)| HeapOp::WriteNth(i, v)),
        ],
        1..64,
    )
}

proptest! {
    /// Live objects never overlap each other, allocation is always
    /// zeroed, and a save/load round trip reproduces every live object's
    /// bytes — for arbitrary operation sequences.
    #[test]
    fn heap_invariants_under_arbitrary_ops(ops in heap_ops()) {
        let mut heap = ManagedHeap::new(4096);
        // Model: (offset, bytes) per live object.
        let mut model: Vec<(u32, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Alloc(len) => {
                    if let Ok(off) = heap.alloc_bytes(len) {
                        // New object must be zeroed.
                        let got = heap.read_bytes(off, 0, len).unwrap();
                        prop_assert!(got.iter().all(|&b| b == 0));
                        // And must not overlap any live object.
                        for (o, bytes) in &model {
                            let (a0, a1) = (off as usize, off as usize + len);
                            let (b0, b1) =
                                (*o as usize, *o as usize + bytes.len());
                            prop_assert!(
                                a1 <= b0 || b1 <= a0,
                                "overlap: [{},{}) vs [{},{})",
                                a0, a1, b0, b1
                            );
                        }
                        model.push((off, vec![0; len]));
                    }
                }
                HeapOp::FreeNth(i) => {
                    if !model.is_empty() {
                        let (off, _) = model.remove(i % model.len());
                        heap.free(off).unwrap();
                    }
                }
                HeapOp::WriteNth(i, v) => {
                    if !model.is_empty() {
                        let idx = i % model.len();
                        let (off, bytes) = &mut model[idx];
                        let fill = vec![v; bytes.len()];
                        heap.write_bytes(*off, 0, &fill).unwrap();
                        *bytes = fill;
                    }
                }
            }
        }

        // Model agreement before the round trip.
        for (off, bytes) in &model {
            prop_assert_eq!(
                heap.read_bytes(*off, 0, bytes.len()).unwrap(),
                &bytes[..]
            );
        }
        prop_assert_eq!(heap.live_objects(), model.len());

        // Save, load, and re-check every live object byte for byte.
        let restored: ManagedHeap =
            decode_exact(&encode(&heap), "heap").unwrap();
        prop_assert_eq!(&restored, &heap);
        for (off, bytes) in &model {
            prop_assert_eq!(
                restored.read_bytes(*off, 0, bytes.len()).unwrap(),
                &bytes[..]
            );
        }
    }

    /// Alloc/free of everything returns the heap to one maximal free
    /// extent (full coalescing) so capacity is never fragmented away.
    #[test]
    fn full_free_restores_full_capacity(
        sizes in proptest::collection::vec(1usize..128, 1..20),
        free_order in proptest::collection::vec(any::<u16>(), 1..20),
    ) {
        let mut heap = ManagedHeap::new(8192);
        let mut offs = Vec::new();
        for &s in &sizes {
            if let Ok(off) = heap.alloc_bytes(s) {
                offs.push(off);
            }
        }
        // Free in a permutation driven by free_order.
        let mut order: Vec<usize> = (0..offs.len()).collect();
        order.sort_by_key(|&i| free_order.get(i).copied().unwrap_or(0));
        for &i in &order {
            heap.free(offs[i]).unwrap();
        }
        prop_assert_eq!(heap.live_objects(), 0);
        // The entire arena must be allocatable again in one piece.
        let whole = heap.alloc_bytes(8192);
        prop_assert!(whole.is_ok(), "fragmentation after full free");
    }

    /// PS replay yields exactly the pushed labels, outermost first, and
    /// ends restarting mode at the innermost label.
    #[test]
    fn position_stack_replay(labels in proptest::collection::vec(any::<u32>(), 0..32)) {
        let mut ps = PositionStack::new();
        for &l in &labels {
            ps.push(l);
        }
        let mut restored: PositionStack =
            decode_exact(&encode(&ps), "position stack").unwrap();
        restored.begin_restart();
        let mut replayed = Vec::new();
        while let Some(l) = restored.next_restart_label() {
            replayed.push(l);
        }
        prop_assert_eq!(replayed, labels.clone());
        prop_assert!(!restored.is_restarting());
        prop_assert_eq!(restored.depth(), labels.len());
    }
}

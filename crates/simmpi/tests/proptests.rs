//! Property tests: the matching engine preserves MPI semantics for
//! arbitrary interleavings of posts and deliveries, and reductions agree
//! with a sequential model.

use bytes::Bytes;
use proptest::prelude::*;

use simmpi::matching::{MatchEngine, PostOutcome};
use simmpi::{DType, Message, MpiType, ReduceOp};

fn msg(src: usize, tag: i32, uid: u64) -> Message {
    Message {
        src,
        dst: 0,
        context: 1,
        tag,
        header: simmpi::HeaderBytes::empty(),
        payload: Bytes::copy_from_slice(&uid.to_le_bytes()),
        seq: uid,
    }
}

fn uid_of(m: &Message) -> u64 {
    u64::from_le_bytes(m.payload[..8].try_into().unwrap())
}

proptest! {
    /// Every message is delivered exactly once, and per-(src, tag) channel
    /// order is preserved (non-overtaking), no matter how posts and
    /// arrivals interleave.
    #[test]
    fn matching_is_exactly_once_and_non_overtaking(
        // Each event: true = deliver next message, false = post a recv;
        // recvs use (src, tag) patterns drawn from a small space, with
        // src=3 meaning ANY and tag=3 meaning ANY.
        events in proptest::collection::vec(
            (any::<bool>(), 0usize..4, 0i32..4, 0usize..3, 0i32..3),
            1..80,
        ),
    ) {
        let mut eng = MatchEngine::new();
        let mut uid = 0u64;
        let mut sent: Vec<(usize, i32, u64)> = Vec::new();
        let mut received: Vec<(usize, i32, u64)> = Vec::new();
        let mut pending = Vec::new();

        for (is_deliver, psrc, ptag, msrc, mtag) in events {
            if is_deliver {
                uid += 1;
                sent.push((msrc, mtag, uid));
                if let Some((_id, m)) = eng.deliver(msg(msrc, mtag, uid)) {
                    received.push((m.src, m.tag, uid_of(&m)));
                }
            } else {
                let src = (psrc < 3).then_some(psrc);
                let tag = (ptag < 3).then_some(ptag);
                match eng.post(src, 1, tag) {
                    PostOutcome::Matched(m) => {
                        received.push((m.src, m.tag, uid_of(&m)));
                    }
                    PostOutcome::Pending(id) => pending.push(id),
                }
            }
        }

        // Exactly-once: no duplicates among received uids.
        let mut uids: Vec<u64> = received.iter().map(|r| r.2).collect();
        uids.sort_unstable();
        uids.dedup();
        prop_assert_eq!(uids.len(), received.len(), "duplicate delivery");

        // Every received uid was sent with matching (src, tag).
        for &(src, tag, uid) in &received {
            prop_assert!(sent.contains(&(src, tag, uid)));
        }

        // Non-overtaking per (src, tag) channel: received uids from one
        // channel appear in send order.
        for s in 0..3usize {
            for t in 0..3i32 {
                let got: Vec<u64> = received
                    .iter()
                    .filter(|r| r.0 == s && r.1 == t)
                    .map(|r| r.2)
                    .collect();
                let mut sorted = got.clone();
                sorted.sort_unstable();
                prop_assert_eq!(got, sorted, "channel ({}, {}) overtaken", s, t);
            }
        }

        // Conservation: everything sent is either received, still
        // unexpected, or will match a pending recv later.
        prop_assert_eq!(
            received.len() + eng.unexpected_len()
                + (sent.len() - received.len() - eng.unexpected_len()),
            sent.len()
        );
    }

    /// Element-wise reductions match a sequential fold for any operand
    /// list (integer ops, exact).
    #[test]
    fn reduce_ops_match_sequential_fold(
        contributions in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 4..5),
            1..8,
        ),
        op_idx in 0usize..4,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][op_idx];
        let mut acc = i64::slice_to_bytes(&contributions[0]);
        for c in &contributions[1..] {
            op.combine(DType::I64, &mut acc, &i64::slice_to_bytes(c)).unwrap();
        }
        let got = i64::bytes_to_vec(&acc).unwrap();

        let mut expect = contributions[0].clone();
        for c in &contributions[1..] {
            for (e, &v) in expect.iter_mut().zip(c.iter()) {
                *e = match op {
                    ReduceOp::Sum => e.wrapping_add(v),
                    ReduceOp::Prod => e.wrapping_mul(v),
                    ReduceOp::Min => (*e).min(v),
                    ReduceOp::Max => (*e).max(v),
                    _ => unreachable!(),
                };
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Typed slice encode/decode is the identity for every dtype.
    #[test]
    fn typed_slices_round_trip(
        f64s in proptest::collection::vec(any::<f64>(), 0..64),
        i32s in proptest::collection::vec(any::<i32>(), 0..64),
        u64s in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let enc = f64::slice_to_bytes(&f64s);
        let back = f64::bytes_to_vec(&enc).unwrap();
        prop_assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            f64s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(i32::bytes_to_vec(&i32::slice_to_bytes(&i32s)).unwrap(), i32s);
        prop_assert_eq!(u64::bytes_to_vec(&u64::slice_to_bytes(&u64s)).unwrap(), u64s);
    }
}

//! Collective operations across real rank threads, at several job sizes
//! (including non-powers of two, which exercise the tree edge cases).

use bytes::Bytes;
use simmpi::{DType, MpiError, ReduceOp, World};

const SIZES: &[usize] = &[1, 2, 3, 4, 7, 8];

#[test]
fn barrier_all_sizes() {
    for &n in SIZES {
        World::run(n, |mpi| {
            let comm = mpi.world();
            for _ in 0..5 {
                mpi.barrier(&comm)?;
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn bcast_from_every_root() {
    for &n in SIZES {
        for root in 0..n {
            World::run(n, |mpi| {
                let comm = mpi.world();
                let data = if mpi.rank() == root {
                    Bytes::from(vec![root as u8; 17])
                } else {
                    Bytes::new()
                };
                let out = mpi.bcast(&comm, root, data)?;
                assert_eq!(&out[..], &vec![root as u8; 17][..]);
                Ok(())
            })
            .unwrap();
        }
    }
}

#[test]
fn bcast_typed() {
    World::run(4, |mpi| {
        let comm = mpi.world();
        let data = if mpi.rank() == 2 {
            vec![3.5f64, -1.0]
        } else {
            vec![]
        };
        let out = mpi.bcast_t::<f64>(&comm, 2, &data)?;
        assert_eq!(out, vec![3.5, -1.0]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn gather_ragged_chunks() {
    World::run(4, |mpi| {
        let comm = mpi.world();
        let me = mpi.rank();
        let mine = vec![me as u8; me + 1]; // ragged: rank r sends r+1 bytes
        let out = mpi.gather(&comm, 1, mine.into())?;
        if me == 1 {
            let chunks = out.unwrap();
            for (r, c) in chunks.iter().enumerate() {
                assert_eq!(c, &vec![r as u8; r + 1]);
            }
        } else {
            assert!(out.is_none());
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn allgather_all_sizes() {
    for &n in SIZES {
        World::run(n, |mpi| {
            let comm = mpi.world();
            let me = mpi.rank();
            let chunks = mpi.allgather(&comm, vec![me as u8, 0xFF].into())?;
            assert_eq!(chunks.len(), n);
            for (r, c) in chunks.iter().enumerate() {
                assert_eq!(c, &vec![r as u8, 0xFF]);
            }
            Ok(())
        })
        .unwrap();
    }
}

/// The flat form decodes the broadcast buffer directly; it must equal
/// the per-rank form concatenated, in rank order, whatever each rank
/// contributes — ragged lengths, nothing at all, one-byte and eight-byte
/// elements.
#[test]
fn allgather_flat_typed_matches_rank_order() {
    for n in 1..=5 {
        World::run(n, |mpi| {
            let comm = mpi.world();
            for round in 0..5 {
                // Round 4: every contribution is empty.
                let len =
                    |r: usize| if round == 4 { 0 } else { (r + round) % 4 };
                let floats = |r: usize| -> Vec<f64> {
                    (0..len(r)).map(|k| (r * 10 + k) as f64 - 0.5).collect()
                };
                let mine = floats(mpi.rank());
                let nested = mpi.allgather_t::<f64>(&comm, &mine)?;
                let expect: Vec<_> = (0..n).map(floats).collect();
                assert_eq!(nested, expect, "n={n} round={round}");
                let flat = mpi.allgather_flat_t::<f64>(&comm, &mine)?;
                assert_eq!(flat, expect.concat(), "n={n} round={round}");

                let octets = vec![mpi.rank() as u8; len(mpi.rank())];
                let nested = mpi.allgather_t::<u8>(&comm, &octets)?;
                let flat = mpi.allgather_flat_t::<u8>(&comm, &octets)?;
                assert_eq!(flat, nested.concat(), "n={n} round={round}");
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn scatter_distributes_root_chunks() {
    World::run(4, |mpi| {
        let comm = mpi.world();
        let me = mpi.rank();
        let chunks: Option<Vec<Bytes>> = if me == 0 {
            Some((0..4).map(|r| Bytes::from(vec![r as u8; 3])).collect())
        } else {
            None
        };
        let mine = mpi.scatter(&comm, 0, chunks.as_deref())?;
        assert_eq!(mine, vec![me as u8; 3]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn scatter_wrong_chunk_count_errors_at_root() {
    World::run(2, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            // Wrong: 3 chunks for 2 ranks.
            let chunks = vec![Bytes::from_static(&[1u8]); 3];
            match mpi.scatter(&comm, 0, Some(&chunks)) {
                Err(MpiError::CollectiveMismatch(_)) => {}
                other => panic!("expected mismatch, got {other:?}"),
            }
            // Unblock rank 1, which is waiting for its chunk.
            let good =
                vec![Bytes::from_static(&[7u8]), Bytes::from_static(&[8u8])];
            let mine = mpi.scatter(&comm, 0, Some(&good))?;
            assert_eq!(mine, vec![7]);
        } else {
            let mine = mpi.scatter(&comm, 0, None)?;
            assert_eq!(mine, vec![8]);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn reduce_sum_at_root() {
    for &n in SIZES {
        World::run(n, |mpi| {
            let comm = mpi.world();
            let me = mpi.rank() as i64;
            let out =
                mpi.reduce_t::<i64>(&comm, 0, ReduceOp::Sum, &[me, 1])?;
            if mpi.rank() == 0 {
                let expect: i64 = (0..n as i64).sum();
                assert_eq!(out.unwrap(), vec![expect, n as i64]);
            } else {
                assert!(out.is_none());
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn allreduce_ops() {
    World::run(5, |mpi| {
        let comm = mpi.world();
        let me = mpi.rank() as i64;
        let sum = mpi.allreduce_t::<i64>(&comm, ReduceOp::Sum, &[me])?;
        assert_eq!(sum, vec![1 + 2 + 3 + 4]);
        let min = mpi.allreduce_t::<i64>(&comm, ReduceOp::Min, &[me])?;
        assert_eq!(min, vec![0]);
        let max = mpi.allreduce_t::<i64>(&comm, ReduceOp::Max, &[me])?;
        assert_eq!(max, vec![4]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn allreduce_f64_is_deterministic_across_calls() {
    // Combination order is ascending rank, so repeated calls agree exactly.
    World::run(4, |mpi| {
        let comm = mpi.world();
        let me = mpi.rank();
        let x = [0.1 * (me as f64 + 1.0), 7.25];
        let a = mpi.allreduce_t::<f64>(&comm, ReduceOp::Sum, &x)?;
        let b = mpi.allreduce_t::<f64>(&comm, ReduceOp::Sum, &x)?;
        assert_eq!(a, b);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert_eq!(a[1], 29.0);
        Ok(())
    })
    .unwrap();
}

#[test]
fn allreduce_bytes_interface() {
    World::run(3, |mpi| {
        let comm = mpi.world();
        let me = mpi.rank() as u64;
        let bytes = me.to_le_bytes();
        let out = mpi.allreduce_bytes(
            &comm,
            ReduceOp::Sum,
            DType::U64,
            bytes.to_vec().into(),
        )?;
        assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 3);
        Ok(())
    })
    .unwrap();
}

#[test]
fn scan_inclusive_prefix_sums() {
    World::run(5, |mpi| {
        let comm = mpi.world();
        let me = mpi.rank() as i64;
        let out = mpi.scan_t::<i64>(&comm, ReduceOp::Sum, &[me, 1])?;
        let expect: i64 = (0..=me).sum();
        assert_eq!(out, vec![expect, me + 1]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn alltoall_personalized_exchange() {
    for &n in &[2usize, 3, 5] {
        World::run(n, |mpi| {
            let comm = mpi.world();
            let me = mpi.rank();
            // chunk for dst d: [me, d]
            let chunks: Vec<Bytes> = (0..n)
                .map(|d| Bytes::from(vec![me as u8, d as u8]))
                .collect();
            let out = mpi.alltoall(&comm, &chunks)?;
            for (s, c) in out.iter().enumerate() {
                assert_eq!(c, &vec![s as u8, me as u8]);
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn consecutive_collectives_do_not_cross_talk() {
    World::run(4, |mpi| {
        let comm = mpi.world();
        for round in 0..20u64 {
            let s = mpi.allreduce_t::<u64>(&comm, ReduceOp::Sum, &[round])?;
            assert_eq!(s, vec![4 * round]);
            let g = mpi.allgather(&comm, vec![mpi.rank() as u8].into())?;
            assert_eq!(g.len(), 4);
            mpi.barrier(&comm)?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn collectives_do_not_disturb_pending_p2p_receives() {
    // A wildcard application receive must never match collective internals.
    World::run(2, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            let mut req =
                mpi.irecv(&comm, simmpi::ANY_SOURCE, simmpi::ANY_TAG)?;
            // Run a pile of collectives while the wildcard recv is posted.
            for _ in 0..5 {
                mpi.barrier(&comm)?;
                mpi.allreduce_t::<u64>(&comm, ReduceOp::Sum, &[1])?;
            }
            // Only now does rank 1 send the real application message.
            let msg = mpi.wait_recv(&comm, &mut req)?;
            assert_eq!(&msg.payload[..], b"app");
        } else {
            for _ in 0..5 {
                mpi.barrier(&comm)?;
                mpi.allreduce_t::<u64>(&comm, ReduceOp::Sum, &[1])?;
            }
            mpi.send(&comm, 0, 0, b"app")?;
        }
        Ok(())
    })
    .unwrap();
}

// ----------------------------------------------------------------------
// Sideband fold
// ----------------------------------------------------------------------

const FOLD_SIZES: &[usize] = &[1, 2, 3, 5, 8];

/// Rank `r`'s sideband word in round `shift`: distinct per rank, with the
/// maximum of each half held by a different rank every round, and the
/// two maxima by different ranks (from 2 ranks on).
fn word(r: usize, n: usize, shift: usize) -> u64 {
    let k = ((r + shift) % n) as u64;
    ((n as u64 - 1 - k) << 32) | (100 + k)
}

/// The fold of every rank's [`word`] in any round: the maximum of each
/// half.
fn top(n: usize) -> u64 {
    ((n as u64 - 1) << 32) | (100 + n as u64 - 1)
}

/// Run `call` once plain and once per round under a sideband, at every
/// fold size: the data result must not depend on the sideband, and every
/// rank's fold must be the half-wise maximum of all ranks' words.
fn assert_full_fold<R, F>(call: F)
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn(&mut simmpi::Mpi, &simmpi::Comm) -> simmpi::MpiResult<R> + Sync,
{
    for &n in FOLD_SIZES {
        World::run(n, |mpi| {
            let comm = mpi.world();
            let plain = call(mpi, &comm)?;
            for shift in 0..n {
                let mine = word(mpi.rank(), n, shift);
                let (out, fold) =
                    mpi.with_sideband(mine, |m| call(m, &comm))?;
                assert_eq!(out, plain, "n={n} shift={shift}");
                assert_eq!(
                    fold,
                    top(n),
                    "n={n} shift={shift} rank={}",
                    mpi.rank()
                );
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn allgather_folds_every_word() {
    assert_full_fold(|mpi, comm| {
        mpi.allgather(comm, vec![mpi.rank() as u8; mpi.rank() + 1].into())
    });
}

#[test]
fn allreduce_folds_every_word() {
    assert_full_fold(|mpi, comm| {
        let x = (mpi.rank() as u64 + 1).to_le_bytes();
        mpi.allreduce_bytes(comm, ReduceOp::Sum, DType::U64, x.to_vec().into())
    });
}

#[test]
fn alltoall_folds_every_word() {
    assert_full_fold(|mpi, comm| {
        let me = mpi.rank() as u8;
        let chunks: Vec<Bytes> = (0..comm.size())
            .map(|d| Bytes::from(vec![me, d as u8]))
            .collect();
        mpi.alltoall(comm, &chunks)
    });
}

#[test]
fn barrier_folds_every_word() {
    assert_full_fold(|mpi, comm| mpi.barrier(comm));
}

/// The one-way kinds fold only what flows toward the caller: a bcast
/// root hears from nobody, a gather's non-roots hear from nobody. That
/// is why the protocol layer cannot take its agreement from their frames
/// alone: a gather's root answers the contributors that need the fold,
/// and the other kinds run a preceding exchange.
#[test]
fn one_way_collectives_fold_partially() {
    for &n in &FOLD_SIZES[1..] {
        World::run(n, |mpi| {
            let comm = mpi.world();
            let me = mpi.rank();
            // Ascending words: rank 0 holds the minimum, n-1 the maximum.
            let mine = 100 + me as u64;
            let top = 100 + n as u64 - 1;

            let (_, fold) =
                mpi.with_sideband(mine, |m| m.bcast(&comm, 0, Bytes::new()))?;
            if me == 0 {
                assert_eq!(fold, mine, "bcast root folds nothing in");
            } else {
                // Own word and the root's, never more than the tree path.
                assert!(fold >= mine && fold <= top);
            }
            // Rooted at the top word instead, everyone downstream has it.
            let (_, fold) = mpi.with_sideband(mine, |m| {
                m.bcast(&comm, n - 1, Bytes::new())
            })?;
            assert_eq!(fold, top);

            let (_, fold) = mpi.with_sideband(mine, |m| {
                m.gather(&comm, 0, Bytes::from_static(&[1]))
            })?;
            if me == 0 {
                assert_eq!(fold, top, "gather root folds every word");
            } else {
                assert_eq!(fold, mine, "gather non-roots fold nothing in");
            }
            Ok(())
        })
        .unwrap();
    }
}

/// An answered gather or reduce hands the full fold to the root and to
/// every contributor that asked, and tells the others they left without
/// it; the data result does not depend on who asked.
#[test]
fn answered_gather_informs_the_root_and_the_askers() {
    for &n in FOLD_SIZES {
        World::run(n, |mpi| {
            let comm = mpi.world();
            let me = mpi.rank();
            let data = || Bytes::from(vec![me as u8; me + 1]);
            let plain = mpi.gather(&comm, 0, data())?;
            let x = (me as u64 + 1).to_le_bytes().to_vec();
            let sum = mpi.reduce_bytes(
                &comm,
                n - 1,
                ReduceOp::Sum,
                DType::U64,
                x.clone().into(),
            )?;
            // Every subset of askers, by bit mask, while it fits.
            for mask in 0..(1u32 << n).min(16) {
                let ask = mask >> me & 1 == 1;
                let mine = word(me, n, mask as usize);
                let (out, fold) =
                    mpi.with_answered_sideband(mine, ask, |m| {
                        m.gather(&comm, 0, data())
                    })?;
                assert_eq!(out, plain, "n={n} mask={mask}");
                let want = (me == 0 || ask).then_some(top(n));
                assert_eq!(fold, want, "n={n} mask={mask} rank={me}");
                let (out, fold) =
                    mpi.with_answered_sideband(mine, ask, |m| {
                        let x = x.clone().into();
                        m.reduce_bytes(
                            &comm,
                            n - 1,
                            ReduceOp::Sum,
                            DType::U64,
                            x,
                        )
                    })?;
                assert_eq!(out, sum, "n={n} mask={mask}");
                let want = (me == n - 1 || ask).then_some(top(n));
                assert_eq!(fold, want, "n={n} mask={mask} rank={me}");
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn sideband_scope_closes_on_error() {
    World::run(2, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            // A local argument error inside the scope...
            let err =
                mpi.with_sideband(9, |m| m.bcast(&comm, 7, Bytes::new()));
            assert!(matches!(err, Err(MpiError::InvalidRank { .. })));
        }
        // ...leaves no word behind: rank 1 would reject this plain
        // barrier's frames if rank 0's still carried one.
        mpi.barrier(&comm)?;
        let (_, fold) = mpi.with_sideband(3, |m| m.barrier(&comm))?;
        assert_eq!(fold, 3);
        Ok(())
    })
    .unwrap();
}

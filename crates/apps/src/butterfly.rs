//! Application-level reductions over point-to-point messages.
//!
//! The paper's dense CG code performs its allReduce and allGather "in
//! terms of point-to-point messages along a butterfly tree" — i.e. the
//! *application* owns the reduction, and the checkpointing protocol sees a
//! storm of small point-to-point messages rather than collective calls.
//! These helpers reproduce that structure on top of
//! [`c3_core::Process`]'s p2p API:
//!
//! * [`allreduce_sum`] — recursive-doubling butterfly for power-of-two
//!   rank counts, with the standard fold-in pre/post phases for the rest;
//!   combination order is fixed by rank so floating-point results are
//!   identical on every run.
//! * [`allgather`] — recursive-doubling chunk exchange for powers of two,
//!   ring pipeline otherwise; handles ragged chunk sizes.

use c3_core::{C3Error, C3Result, CommHandle, Process};
use simmpi::MpiType;

/// Tags used by the butterfly phases; kept away from small app tags.
const TAG_REDUCE: i32 = 0x0C30;
const TAG_FOLD: i32 = 0x0C31;
const TAG_GATHER: i32 = 0x0C32;

fn f64s(bytes: &[u8]) -> C3Result<Vec<f64>> {
    <f64 as MpiType>::bytes_to_vec(bytes).map_err(Into::into)
}

/// Element-wise sum across all ranks of `comm`, returned at every rank.
/// Point-to-point butterfly; deterministic combination order.
pub fn allreduce_sum(
    p: &mut Process<'_>,
    comm: CommHandle,
    x: &[f64],
) -> C3Result<Vec<f64>> {
    let n = p.comm_size(comm)?;
    let me = p.comm_rank(comm)?;
    let mut acc = x.to_vec();
    if n == 1 {
        return Ok(acc);
    }
    let pof2 = 1usize << (usize::BITS - 1 - n.leading_zeros()) as usize;
    let rem = n - pof2;

    // Pre-phase: ranks past the power-of-two boundary fold their data into
    // a partner below it and sit out the butterfly.
    if me >= pof2 {
        p.send_t::<f64>(comm, me - pof2, TAG_FOLD, &acc)?;
        let msg = p.recv(comm, me - pof2, TAG_FOLD)?;
        return f64s(&msg.payload);
    }
    if me < rem {
        let msg = p.recv(comm, me + pof2, TAG_FOLD)?;
        let other = f64s(&msg.payload)?;
        for (a, b) in acc.iter_mut().zip(other.iter()) {
            *a += b;
        }
    }

    // Butterfly: recursive doubling among the low pof2 ranks. Both
    // partners of a pair fold the same two operands — IEEE addition is
    // commutative, and the *association* (tree shape) is identical at
    // every rank by construction — so all ranks agree bitwise.
    let mut mask = 1usize;
    while mask < pof2 {
        let partner = me ^ mask;
        let msg = p.sendrecv(
            comm,
            partner,
            TAG_REDUCE + mask.trailing_zeros() as i32,
            &f64::slice_to_bytes(&acc),
            partner,
            TAG_REDUCE + mask.trailing_zeros() as i32,
        )?;
        let other = f64s(&msg.payload)?;
        for (a, b) in acc.iter_mut().zip(other.iter()) {
            *a += b;
        }
        mask <<= 1;
    }

    // Post-phase: send the result back to the folded-in ranks.
    if me < rem {
        p.send_t::<f64>(comm, me + pof2, TAG_FOLD, &acc)?;
    }
    Ok(acc)
}

/// Scalar convenience over [`allreduce_sum`].
pub fn allreduce_scalar(
    p: &mut Process<'_>,
    comm: CommHandle,
    x: f64,
) -> C3Result<f64> {
    Ok(allreduce_sum(p, comm, &[x])?[0])
}

fn frame_known(have: &[Option<Vec<f64>>]) -> Vec<u8> {
    let known = have.iter().flatten();
    let body: usize = known.clone().map(|c| 16 + c.len() * 8).sum();
    let mut out = Vec::with_capacity(8 + body);
    out.extend_from_slice(&(known.count() as u64).to_le_bytes());
    for (idx, chunk) in have.iter().enumerate() {
        if let Some(c) = chunk {
            out.extend_from_slice(&(idx as u64).to_le_bytes());
            out.extend_from_slice(&(c.len() as u64).to_le_bytes());
            out.extend_from_slice(&f64::slice_to_bytes(c));
        }
    }
    out
}

fn bad_frame() -> C3Error {
    C3Error::Protocol("malformed butterfly allgather frame".into())
}

/// Split `k` bytes off the front of `bytes`.
fn take<'a>(bytes: &mut &'a [u8], k: usize) -> C3Result<&'a [u8]> {
    let (head, rest) = bytes.split_at_checked(k).ok_or_else(bad_frame)?;
    *bytes = rest;
    Ok(head)
}

fn take_u64(bytes: &mut &[u8]) -> C3Result<usize> {
    let word = take(bytes, 8)?.try_into().expect("took 8 bytes");
    usize::try_from(u64::from_le_bytes(word)).map_err(|_| bad_frame())
}

fn unframe_known(
    mut bytes: &[u8],
    have: &mut [Option<Vec<f64>>],
) -> C3Result<()> {
    let count = take_u64(&mut bytes)?;
    for _ in 0..count {
        let idx = take_u64(&mut bytes)?;
        let len = take_u64(&mut bytes)?;
        let raw = take(&mut bytes, len.checked_mul(8).ok_or_else(bad_frame)?)?;
        *have.get_mut(idx).ok_or_else(bad_frame)? = Some(f64s(raw)?);
    }
    if !bytes.is_empty() {
        return Err(bad_frame());
    }
    Ok(())
}

/// One ring step's frame: the chunk's owner, then the chunk.
fn frame_ring(idx: usize, chunk: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + chunk.len() * 8);
    out.extend_from_slice(&(idx as u64).to_le_bytes());
    out.extend_from_slice(&f64::slice_to_bytes(chunk));
    out
}

fn unframe_ring(
    mut bytes: &[u8],
    have: &mut [Option<Vec<f64>>],
) -> C3Result<()> {
    let idx = take_u64(&mut bytes)?;
    let chunk = f64s(bytes).map_err(|_| bad_frame())?;
    *have.get_mut(idx).ok_or_else(bad_frame)? = Some(chunk);
    Ok(())
}

/// Gather every rank's chunk at every rank (ragged chunks allowed);
/// returns chunks indexed by communicator rank. Recursive doubling for
/// power-of-two sizes, ring pipeline otherwise — all point-to-point.
pub fn allgather(
    p: &mut Process<'_>,
    comm: CommHandle,
    mine: &[f64],
) -> C3Result<Vec<Vec<f64>>> {
    let n = p.comm_size(comm)?;
    let me = p.comm_rank(comm)?;
    let mut have: Vec<Option<Vec<f64>>> = vec![None; n];
    have[me] = Some(mine.to_vec());
    if n == 1 {
        return Ok(have.into_iter().map(|c| c.unwrap()).collect());
    }
    if n.is_power_of_two() {
        let mut mask = 1usize;
        while mask < n {
            let partner = me ^ mask;
            let tag = TAG_GATHER + mask.trailing_zeros() as i32;
            let payload = frame_known(&have);
            let msg =
                p.sendrecv(comm, partner, tag, &payload, partner, tag)?;
            unframe_known(&msg.payload, &mut have)?;
            mask <<= 1;
        }
    } else {
        // Ring: pass chunks around n-1 times.
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        for step in 0..n - 1 {
            let send_idx = (me + n - step) % n;
            let chunk = have[send_idx]
                .as_ref()
                .expect("ring invariant: chunk present");
            let payload = frame_ring(send_idx, chunk);
            let msg = p.sendrecv(
                comm, right, TAG_GATHER, &payload, left, TAG_GATHER,
            )?;
            unframe_ring(&msg.payload, &mut have)?;
        }
    }
    Ok(have
        .into_iter()
        .map(|c| c.expect("allgather complete"))
        .collect())
}

/// Flat allgather: chunks concatenated in rank order.
pub fn allgather_flat(
    p: &mut Process<'_>,
    comm: CommHandle,
    mine: &[f64],
) -> C3Result<Vec<f64>> {
    Ok(allgather(p, comm, mine)?.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(r: C3Result<()>) -> bool {
        matches!(r, Err(C3Error::Protocol(_)))
    }

    #[test]
    fn frames_round_trip_and_hostile_frames_are_protocol_errors() {
        let have = vec![Some(vec![1.5, -0.0]), None, Some(vec![]), None];
        let frame = frame_known(&have);
        let mut back = vec![None; 4];
        unframe_known(&frame, &mut back).unwrap();
        assert_eq!(back, have);

        // Truncated anywhere, or with bytes left over.
        for cut in 0..frame.len() {
            assert!(
                rejected(unframe_known(&frame[..cut], &mut back)),
                "{cut}"
            );
        }
        let mut long = frame.clone();
        long.push(0);
        assert!(rejected(unframe_known(&long, &mut back)));
        // `len` inflated: past the frame, and past `usize` once times 8.
        for len in [3u64, 1 << 61, u64::MAX] {
            let mut f = frame.clone();
            f[16..24].copy_from_slice(&len.to_le_bytes());
            assert!(rejected(unframe_known(&f, &mut back)), "len {len}");
        }
        // `idx` past the communicator.
        let mut f = frame.clone();
        f[8..16].copy_from_slice(&4u64.to_le_bytes());
        assert!(rejected(unframe_known(&f, &mut back)));

        let ring = frame_ring(2, &[7.0, 8.0]);
        unframe_ring(&ring, &mut back).unwrap();
        assert_eq!(back[2], Some(vec![7.0, 8.0]));
        assert!(rejected(unframe_ring(&ring[..3], &mut back)));
        assert!(rejected(unframe_ring(&ring[..ring.len() - 1], &mut back)));
        assert!(rejected(unframe_ring(&frame_ring(4, &[]), &mut back)));
    }
}

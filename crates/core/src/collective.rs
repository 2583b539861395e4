//! Collective communication through the protocol layer (Section 4.5).
//!
//! Each data collective is preceded by a *control collective*: an allgather
//! of `(epoch, amLogging)` words on the communicator's shadow control
//! communicator (the paper's implementation does exactly this — "each such
//! data `MPI_Allgather` is preceded by a command `MPI_Allgather`"; it is
//! the dominant overhead for fine-grained codes like Neurosys). The control
//! exchange provides:
//!
//! * the **conjunction rule**: if any participant has stopped logging, no
//!   participant logs the call's result, and logging participants stop
//!   logging (preventing the saved state from depending on unsaved
//!   events);
//! * the **barrier epoch alignment**: participants lagging behind the
//!   maximum epoch take their local checkpoint before entering the
//!   barrier, so the barrier executes in a single epoch and retains its
//!   synchronization semantics on recovery.
//!
//! While logging, results are appended to the recovery log; during
//! recovery, re-executed collective calls return the logged result without
//! touching the library — participants that do not re-execute the call are
//! simply absent, which is why the log, not communication, must supply the
//! value.

use bytes::Bytes;
use ckptstore::codec::CodecError;
use simmpi::{Comm, DType, Mpi, MpiResult, MpiType, ReduceOp};
use statesave::snapshot::SaveState;

use crate::error::C3Result;
use crate::logrec::coll_kind;
use crate::pending::CommHandle;
use crate::process::Process;
use crate::trace::TraceEvent;

/// Outcome of the pre-collective control exchange.
struct CollControl {
    /// True if some participant at the *maximum* epoch has stopped
    /// logging. Participants in an earlier epoch have simply not
    /// checkpointed yet (Figure 5's call A — results still get logged);
    /// only a max-epoch participant with `amLogging == false` has
    /// *terminated* logging for the current checkpoint (call B), which is
    /// what forbids logging the result. A logging caller is always at the
    /// maximum epoch itself — and so is a caller that checkpoints at the
    /// barrier's alignment step, which is why the reference epoch is the
    /// max rather than the caller's pre-alignment epoch.
    stopped_at_max: bool,
    /// Maximum epoch among participants (drives barrier alignment).
    max_epoch: u32,
}

/// Frame a list of per-rank chunks into one loggable byte string: a
/// little-endian `u64` count followed by `u64`-length-prefixed chunks.
/// The buffer has exact capacity, so the `Bytes` conversion is a move.
fn frame_chunks(chunks: &[Bytes]) -> Bytes {
    let total = 8 + chunks.iter().map(|c| 8 + c.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
    for c in chunks {
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        out.extend_from_slice(c);
    }
    Bytes::from(out)
}

/// Split a framed byte string back into per-rank chunks, each a
/// refcounted slice of `bytes` — no per-chunk copy.
fn unframe_chunks(bytes: &Bytes) -> Result<Vec<Bytes>, CodecError> {
    let err = || CodecError::new("malformed framed chunks");
    let mut pos = 0usize;
    let read_len = |pos: &mut usize| -> Result<usize, CodecError> {
        if bytes.len() - *pos < 8 {
            return Err(err());
        }
        let n = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap())
            as usize;
        *pos += 8;
        Ok(n)
    };
    let count = read_len(&mut pos)?;
    // Every chunk costs at least its 8-byte length prefix, so a count
    // beyond that is corrupt; refusing it here also bounds the
    // reservation by the blob's own size.
    if count > (bytes.len() - pos) / 8 {
        return Err(err());
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_len(&mut pos)?;
        if bytes.len() - pos < len {
            return Err(err());
        }
        out.push(bytes.slice(pos..pos + len));
        pos += len;
    }
    if pos != bytes.len() {
        return Err(err());
    }
    Ok(out)
}

/// Frame an optional byte string (rooted collectives return data only at
/// the root, but the log stores every rank's view uniformly): a presence
/// byte followed by the bytes themselves.
fn frame_option(v: &Option<impl AsRef<[u8]>>) -> Bytes {
    match v {
        None => Bytes::from_static(&[0]),
        Some(b) => {
            let b = b.as_ref();
            let mut out = Vec::with_capacity(1 + b.len());
            out.push(1);
            out.extend_from_slice(b);
            Bytes::from(out)
        }
    }
}

fn unframe_option(bytes: &Bytes) -> Result<Option<Bytes>, CodecError> {
    match bytes.first() {
        Some(0) if bytes.len() == 1 => Ok(None),
        Some(1) => Ok(Some(bytes.slice(1..))),
        _ => Err(CodecError::new("malformed framed option")),
    }
}

impl<'a> Process<'a> {
    /// The control collective: exchange `(epoch << 1 | amLogging)` words
    /// among the participants of `comm` and fold them.
    fn collective_control(
        &mut self,
        comm: CommHandle,
    ) -> C3Result<CollControl> {
        let ctrl = self.ctrl_of(comm)?;
        let word =
            (u64::from(self.epoch()) << 1) | u64::from(self.is_logging());
        let words = self.mpi_mut().allgather_t::<u64>(&ctrl, &[word])?;
        let mut max_epoch = 0u32;
        for w in words.iter().flatten() {
            max_epoch = max_epoch.max((w >> 1) as u32);
        }
        let stopped_at_max = words
            .iter()
            .flatten()
            .any(|w| (w >> 1) as u32 == max_epoch && w & 1 == 0);
        Ok(CollControl {
            stopped_at_max,
            max_epoch,
        })
    }

    /// Common wrapper for every data collective: replay from the log if
    /// recovering; otherwise run the control exchange, the data call, and
    /// the conjunction-gated logging.
    fn run_collective<F>(
        &mut self,
        kind: u8,
        comm: CommHandle,
        f: F,
    ) -> C3Result<Bytes>
    where
        F: FnOnce(&mut Mpi, &Comm) -> MpiResult<Bytes>,
    {
        self.pump_public()?;
        let app = self.app_of(comm)?;
        if !self.piggybacks() {
            return f(self.mpi_mut(), &app).map_err(Into::into);
        }
        if let Some(result) = self.replay_collective(kind)? {
            return Ok(result);
        }
        let ctl = self.collective_control(comm)?;
        let result = f(self.mpi_mut(), &app)?;
        let was_logging = self.is_logging();
        let mut logged = false;
        if was_logging {
            if ctl.stopped_at_max {
                // A same-epoch participant has terminated logging: do not
                // log the result, and stop logging ourselves (Section
                // 4.5's conjunction rule, Figure 5's call B).
                self.finalize_log_public()?;
            } else {
                // Refcount clone: the log and the caller share the buffer.
                self.log_collective(kind, result.clone());
                logged = true;
            }
        }
        self.trace_event(TraceEvent::CollectiveControl {
            comm: comm.0 as u64,
            kind,
            epoch: self.epoch(),
            logging: was_logging,
            max_epoch: ctl.max_epoch,
            stopped_at_max: ctl.stopped_at_max,
            logged,
        });
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Barrier (the special case)
    // ------------------------------------------------------------------

    /// Barrier with the paper's epoch-alignment rule: the control exchange
    /// runs first; any participant behind the maximum epoch takes its
    /// local checkpoint (`state` is what gets saved) before entering the
    /// data barrier, so every participant executes the barrier in the same
    /// epoch.
    pub fn barrier<S: SaveState>(
        &mut self,
        comm: CommHandle,
        state: &S,
    ) -> C3Result<()> {
        self.pump_public()?;
        let app = self.app_of(comm)?;
        if !self.piggybacks() {
            self.mpi_mut().barrier(&app)?;
            return Ok(());
        }
        if self.replay_collective(coll_kind::BARRIER)?.is_some() {
            return Ok(());
        }
        let ctl = self.collective_control(comm)?;
        if ctl.max_epoch > self.epoch() {
            // The "precompiler-inserted" potential checkpoint before the
            // barrier: catch up to the epoch of the furthest participant.
            self.trace_event(TraceEvent::BarrierAligned {
                from_epoch: self.epoch(),
                to_epoch: ctl.max_epoch,
            });
            self.force_local_checkpoint(state)?;
        }
        self.mpi_mut().barrier(&app)?;
        let was_logging = self.is_logging();
        let mut logged = false;
        if was_logging {
            if ctl.stopped_at_max {
                self.finalize_log_public()?;
            } else {
                self.log_collective(coll_kind::BARRIER, Bytes::new());
                logged = true;
            }
        }
        self.trace_event(TraceEvent::CollectiveControl {
            comm: comm.0 as u64,
            kind: coll_kind::BARRIER,
            epoch: self.epoch(),
            logging: was_logging,
            max_epoch: ctl.max_epoch,
            stopped_at_max: ctl.stopped_at_max,
            logged,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data collectives
    // ------------------------------------------------------------------

    /// Broadcast `root`'s payload to all members. The result is the
    /// broadcast buffer itself, shared by refcount.
    pub fn bcast(
        &mut self,
        comm: CommHandle,
        root: usize,
        data: &[u8],
    ) -> C3Result<Bytes> {
        let payload = Bytes::copy_from_slice(data);
        self.run_collective(coll_kind::BCAST, comm, move |mpi, app| {
            mpi.bcast(app, root, payload)
        })
    }

    /// Typed broadcast.
    pub fn bcast_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        root: usize,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        let bytes = self.bcast(comm, root, &T::slice_to_bytes(data))?;
        T::bytes_to_vec(&bytes).map_err(Into::into)
    }

    /// Element-wise reduction delivered to every member.
    pub fn allreduce(
        &mut self,
        comm: CommHandle,
        op: ReduceOp,
        dtype: DType,
        data: &[u8],
    ) -> C3Result<Bytes> {
        let data = data.to_vec();
        self.run_collective(coll_kind::ALLREDUCE, comm, move |mpi, app| {
            mpi.allreduce_bytes(app, op, dtype, &data)
        })
    }

    /// Typed allreduce.
    pub fn allreduce_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        op: ReduceOp,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        let bytes =
            self.allreduce(comm, op, T::DTYPE, &T::slice_to_bytes(data))?;
        T::bytes_to_vec(&bytes).map_err(Into::into)
    }

    /// Reduction to `root`; `Some` at the root, `None` elsewhere.
    pub fn reduce_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        root: usize,
        op: ReduceOp,
        data: &[T],
    ) -> C3Result<Option<Vec<T>>> {
        let data = T::slice_to_bytes(data);
        let framed =
            self.run_collective(coll_kind::REDUCE, comm, move |mpi, app| {
                let out = mpi.reduce_bytes(app, root, op, T::DTYPE, &data)?;
                let framed = frame_option(&out);
                if let Some(acc) = out {
                    // The accumulator came from simmpi's buffer pool.
                    simmpi::pool::give(acc);
                }
                Ok(framed)
            })?;
        match unframe_option(&framed)? {
            None => Ok(None),
            Some(b) => Ok(Some(T::bytes_to_vec(&b)?)),
        }
    }

    /// Gather every member's payload at `root` (ragged allowed); chunks
    /// are indexed by communicator rank.
    pub fn gather(
        &mut self,
        comm: CommHandle,
        root: usize,
        data: &[u8],
    ) -> C3Result<Option<Vec<Bytes>>> {
        let data = data.to_vec();
        let framed =
            self.run_collective(coll_kind::GATHER, comm, move |mpi, app| {
                let out = mpi.gather(app, root, &data)?;
                Ok(frame_option(&out.map(|chunks| frame_chunks(&chunks))))
            })?;
        match unframe_option(&framed)? {
            None => Ok(None),
            Some(b) => Ok(Some(unframe_chunks(&b)?)),
        }
    }

    /// Typed gather.
    pub fn gather_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        root: usize,
        data: &[T],
    ) -> C3Result<Option<Vec<Vec<T>>>> {
        match self.gather(comm, root, &T::slice_to_bytes(data))? {
            None => Ok(None),
            Some(chunks) => {
                let mut out = Vec::with_capacity(chunks.len());
                for c in &chunks {
                    out.push(T::bytes_to_vec(c)?);
                }
                Ok(Some(out))
            }
        }
    }

    /// Gather every member's payload at every member (ragged allowed).
    /// Each returned chunk is a refcounted slice of the one broadcast
    /// buffer (which is also what the recovery log stores).
    pub fn allgather(
        &mut self,
        comm: CommHandle,
        data: &[u8],
    ) -> C3Result<Vec<Bytes>> {
        let data = data.to_vec();
        let framed = self.run_collective(
            coll_kind::ALLGATHER,
            comm,
            move |mpi, app| Ok(frame_chunks(&mpi.allgather(app, &data)?)),
        )?;
        unframe_chunks(&framed).map_err(Into::into)
    }

    /// Typed allgather (per-rank vectors).
    pub fn allgather_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        data: &[T],
    ) -> C3Result<Vec<Vec<T>>> {
        let chunks = self.allgather(comm, &T::slice_to_bytes(data))?;
        let mut out = Vec::with_capacity(chunks.len());
        for c in &chunks {
            out.push(T::bytes_to_vec(c)?);
        }
        Ok(out)
    }

    /// Typed allgather, concatenated in rank order.
    pub fn allgather_flat_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        Ok(self
            .allgather_t(comm, data)?
            .into_iter()
            .flatten()
            .collect())
    }

    /// Personalized all-to-all exchange (ragged allowed). Chunks are
    /// copied into refcounted buffers once at ingress; everything after
    /// that travels by refcount.
    pub fn alltoall(
        &mut self,
        comm: CommHandle,
        chunks: &[Vec<u8>],
    ) -> C3Result<Vec<Bytes>> {
        let chunks: Vec<Bytes> =
            chunks.iter().map(|c| Bytes::copy_from_slice(c)).collect();
        let framed = self.run_collective(
            coll_kind::ALLTOALL,
            comm,
            move |mpi, app| Ok(frame_chunks(&mpi.alltoall(app, &chunks)?)),
        )?;
        unframe_chunks(&framed).map_err(Into::into)
    }

    /// Distribute `root`'s per-rank chunks; non-roots pass `None`.
    pub fn scatter(
        &mut self,
        comm: CommHandle,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> C3Result<Bytes> {
        let chunks: Option<Vec<Bytes>> = chunks.map(|c| {
            c.iter()
                .map(|chunk| Bytes::copy_from_slice(chunk))
                .collect()
        });
        self.run_collective(coll_kind::SCATTER, comm, move |mpi, app| {
            mpi.scatter(app, root, chunks.as_deref())
        })
    }

    /// Typed inclusive prefix reduction.
    pub fn scan_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        op: ReduceOp,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        let data = data.to_vec();
        let bytes =
            self.run_collective(coll_kind::SCAN, comm, move |mpi, app| {
                Ok(Bytes::from(T::slice_to_bytes(
                    &mpi.scan_t(app, op, &data)?,
                )))
            })?;
        T::bytes_to_vec(&bytes).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_framing_round_trip() {
        let chunks = vec![
            Bytes::from_static(&[1u8, 2]),
            Bytes::new(),
            Bytes::copy_from_slice(&[3u8; 40]),
        ];
        assert_eq!(unframe_chunks(&frame_chunks(&chunks)).unwrap(), chunks);
        assert!(unframe_chunks(&Bytes::from_static(&[1, 2, 3])).is_err());
        // A corrupted count must be refused before anything is reserved
        // for it: here it claims more chunks than the blob has room for
        // length prefixes.
        for count in [3u64, u64::MAX] {
            let mut hostile = count.to_le_bytes().to_vec();
            hostile.extend_from_slice(&[0u8; 16]);
            assert!(unframe_chunks(&Bytes::from(hostile)).is_err());
        }
    }

    #[test]
    fn unframed_chunks_are_views_of_the_framed_buffer() {
        let framed = frame_chunks(&[Bytes::from_static(b"hello")]);
        let parts = unframe_chunks(&framed).unwrap();
        let base = framed.as_slice().as_ptr() as usize;
        let at = parts[0].as_slice().as_ptr() as usize;
        assert!(at >= base && at < base + framed.len());
    }

    #[test]
    fn option_framing_round_trip() {
        let none: Option<Bytes> = None;
        assert_eq!(unframe_option(&frame_option(&none)).unwrap(), None);
        let some = Some(Bytes::from_static(&[7u8, 8]));
        assert_eq!(unframe_option(&frame_option(&some)).unwrap(), some);
        assert!(unframe_option(&Bytes::from_static(&[9])).is_err());
        // A bare presence byte with trailing garbage in the None case.
        assert!(unframe_option(&Bytes::from_static(&[0, 1])).is_err());
        assert!(unframe_option(&Bytes::new()).is_err());
    }
}

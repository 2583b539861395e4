//! Collective communication through the protocol layer (Section 4.5).
//!
//! Every collective needs one piece of agreement among its participants:
//! the fold of their `(epoch, amLogging)` words. It provides
//!
//! * the **conjunction rule**: if any participant has stopped logging, no
//!   participant logs the call's result, and logging participants stop
//!   logging (preventing the saved state from depending on unsaved
//!   events);
//! * the **straddle rule**: a logging participant logs the result only if
//!   some participant has not yet checkpointed for the line (its epoch is
//!   below the maximum). This departs from Section 4.5, which logs every
//!   result computed while logging. A call every participant makes after
//!   its checkpoint for the line is re-executed by every participant on
//!   recovery, so nobody reads its result from the log; a call with a
//!   participant behind the line is not re-executed by that participant,
//!   so the others must replay it. Epochs only rise, so on each
//!   communicator the logged calls of a logging window are a prefix of
//!   its calls, and replay consumes that prefix per communicator;
//! * the **barrier epoch alignment**: participants lagging behind the
//!   maximum epoch take their local checkpoint before entering the
//!   barrier, so the barrier executes in a single epoch and retains its
//!   synchronization semantics on recovery.
//!
//! The paper's implementation pays a whole control collective for it
//! ("each such data `MPI_Allgather` is preceded by a command
//! `MPI_Allgather`" — its dominant overhead for fine-grained codes like
//! Neurosys). Here the word is encoded so that simmpi's half-wise `max`
//! *is* the fold (`control_word`) and travels as its sideband
//! ([`Mpi::with_sideband`]) on frames that are sent anyway, in one of
//! three forms by kind (`form`), never by configuration:
//!
//! * **fused** — `allgather`, `allreduce` and `alltoall` already make
//!   every rank's output depend on every rank's input, so the word rides
//!   on the data collective's own frames: no extra frame, no extra round;
//! * **answered** — `gather` and `reduce` reach the root from everyone,
//!   so the root holds the full fold once its frames are in. Each
//!   contributor's frame carries its word and an *ask* flag, set exactly
//!   when it is logging; the root answers every asker with one frame
//!   holding the fold ([`Mpi::with_answered_sideband`]), and a
//!   contributor that did not ask leaves as soon as its frame is sent.
//!   Only a logging participant reads the fold (`conclude_collective`),
//!   and the answer carries the same words at entry a preceding exchange
//!   would, so every log and stop-logging decision is unchanged; with
//!   nobody logging the call costs exactly its data frames;
//! * **preceding** — `bcast`, `scatter` and `scan` move data one way
//!   without a rank that hears from everyone, and `barrier` must know the
//!   maximum epoch *before* it enters; these run an empty barrier on the
//!   shadow control communicator first, carrying the same sideband.
//!
//! When a call returns, every *informed* participant — all of them in
//! the fused and preceding forms; the root and the askers in the answered
//! one — holds the same fold of every participant's word at entry.
//!
//! While logging, results are appended to the recovery log; during
//! recovery, re-executed collective calls return the logged result without
//! touching the library — participants that do not re-execute the call are
//! simply absent, which is why the log, not communication, must supply the
//! value.

use bytes::Bytes;
use ckptstore::codec::CodecError;
use simmpi::collective::{
    chunks_to_vecs, frame_chunks, unframe_chunks, unframe_flat_t,
};
use simmpi::{Comm, DType, Mpi, MpiResult, MpiType, ReduceOp};
use statesave::snapshot::SaveState;

use super::Process;
use crate::error::C3Result;
use crate::logrec::coll_kind;
use crate::pending::CommHandle;
use crate::trace::TraceEvent;

/// The participants' agreement, decoded from the folded control word.
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
    /// Minimum epoch among participants at entry: below `max_epoch`
    /// exactly when the call straddles the line.
    min_epoch: u32,
}

/// One rank's control word. The low half is `(epoch << 1) | !amLogging`:
/// the epoch dominates and, within an epoch, "stopped" beats "logging",
/// so its `max` over all participants is `(max_epoch << 1) |
/// stopped_at_max`. The high half is `!epoch`, whose `max` is
/// `!min_epoch`. simmpi folds the halves separately
/// ([`simmpi::collective::fold_words`]).
fn control_word(epoch: u32, logging: bool) -> u64 {
    assert!(epoch < 1 << 31, "epoch {epoch} overflows the control word");
    (u64::from(!epoch) << 32) | (u64::from(epoch) << 1) | u64::from(!logging)
}

impl CollControl {
    fn from_fold(fold: u64) -> Self {
        let low = fold as u32;
        CollControl {
            stopped_at_max: low & 1 == 1,
            max_epoch: low >> 1,
            min_epoch: !((fold >> 32) as u32),
        }
    }
}

/// How a collective's participants reach their agreement (module docs).
enum Form {
    Fused,
    Answered,
    Preceding,
}

/// The form of each kind: fused where the simmpi algorithm makes every
/// rank's output depend on every rank's input (gather/reduce-to-root +
/// broadcast, pairwise exchange), answered where a root hears from
/// everyone, preceding for the rest.
fn form(kind: u8) -> Form {
    match kind {
        coll_kind::ALLGATHER | coll_kind::ALLREDUCE | coll_kind::ALLTOALL => {
            Form::Fused
        }
        coll_kind::GATHER | coll_kind::REDUCE => Form::Answered,
        _ => Form::Preceding,
    }
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
    /// The preceding form of the agreement: an empty barrier on `comm`'s
    /// shadow control communicator, carrying the control word.
    fn preceding_fold(&mut self, comm: CommHandle) -> C3Result<u64> {
        let ctrl = self.pair(comm)?.ctrl.clone();
        let word = control_word(self.epoch(), self.is_logging());
        let ((), fold) =
            self.mpi.with_sideband(word, |mpi| mpi.barrier(&ctrl))?;
        Ok(fold)
    }

    /// The conjunction- and straddle-gated logging step shared by every
    /// collective, and its trace record. `ctl` is `None` for an
    /// answered-form contributor that did not ask: it is not logging, so
    /// it reads no fold and logs nothing.
    fn conclude_collective(
        &mut self,
        kind: u8,
        comm: CommHandle,
        ctl: Option<&CollControl>,
        result: &Bytes,
    ) -> C3Result<()> {
        let was_logging = self.is_logging();
        let Some(ctl) = ctl else {
            debug_assert!(!was_logging, "a logging contributor asks");
            self.trace_event(TraceEvent::CollectiveUninformed {
                comm: comm.0 as u64,
                kind,
                epoch: self.epoch(),
                logging: was_logging,
            });
            return Ok(());
        };
        let mut logged = false;
        if was_logging {
            if ctl.stopped_at_max {
                // A same-epoch participant has terminated logging: do not
                // log the result, and stop logging ourselves (Section
                // 4.5's conjunction rule, Figure 5's call B).
                self.finalize_log()?;
            } else if ctl.min_epoch < ctl.max_epoch {
                // A participant is behind the line and will not re-execute
                // the call (the straddle rule). Refcount clone: the log
                // and the caller share the buffer.
                self.log_collective(comm, kind, result.clone());
                logged = true;
            }
        }
        self.trace_event(TraceEvent::CollectiveControl {
            comm: comm.0 as u64,
            kind,
            epoch: self.epoch(),
            logging: was_logging,
            max_epoch: ctl.max_epoch,
            min_epoch: ctl.min_epoch,
            stopped_at_max: ctl.stopped_at_max,
            logged,
        });
        Ok(())
    }

    /// Common wrapper for every data collective: replay from the log if
    /// recovering; otherwise run the data call in its kind's form and the
    /// conjunction- and straddle-gated logging.
    fn run_collective<F>(
        &mut self,
        kind: u8,
        comm: CommHandle,
        f: F,
    ) -> C3Result<Bytes>
    where
        F: FnOnce(&mut Mpi, &Comm) -> MpiResult<Bytes>,
    {
        self.pump()?;
        let app = self.pair(comm)?.app.clone();
        if !self.cfg.level.piggybacks() {
            return f(self.mpi, &app).map_err(Into::into);
        }
        if let Some(result) = self.replay_collective(comm, kind)? {
            return Ok(result);
        }
        let logging = self.is_logging();
        let word = control_word(self.epoch(), logging);
        let (result, fold) = match form(kind) {
            Form::Fused => {
                let (result, fold) =
                    self.mpi.with_sideband(word, |mpi| f(mpi, &app))?;
                (result, Some(fold))
            }
            Form::Answered => {
                self.mpi.with_answered_sideband(word, logging, |mpi| {
                    f(mpi, &app)
                })?
            }
            Form::Preceding => {
                let fold = self.preceding_fold(comm)?;
                (f(self.mpi, &app)?, Some(fold))
            }
        };
        let ctl = fold.map(CollControl::from_fold);
        self.conclude_collective(kind, comm, ctl.as_ref(), &result)?;
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Barrier (the special case)
    // ------------------------------------------------------------------

    /// Barrier with the paper's epoch-alignment rule: the preceding
    /// control exchange runs first; any participant behind the maximum
    /// epoch takes its local checkpoint (`state` is what gets saved)
    /// before entering the data barrier, so every participant executes the
    /// barrier in the same epoch.
    pub fn barrier<S: SaveState>(
        &mut self,
        comm: CommHandle,
        state: &S,
    ) -> C3Result<()> {
        self.pump()?;
        let app = self.pair(comm)?.app.clone();
        if !self.cfg.level.piggybacks() {
            self.mpi.barrier(&app)?;
            return Ok(());
        }
        if self.replay_collective(comm, coll_kind::BARRIER)?.is_some() {
            return Ok(());
        }
        let ctl = CollControl::from_fold(self.preceding_fold(comm)?);
        if ctl.max_epoch > self.epoch() {
            // The "precompiler-inserted" potential checkpoint before the
            // barrier: catch up to the epoch of the furthest participant.
            self.trace_event(TraceEvent::BarrierAligned {
                from_epoch: self.epoch(),
                to_epoch: ctl.max_epoch,
            });
            self.take_local_checkpoint(state)?;
        }
        self.mpi.barrier(&app)?;
        let done = Bytes::new();
        self.conclude_collective(coll_kind::BARRIER, comm, Some(&ctl), &done)
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
        data: Bytes,
    ) -> C3Result<Bytes> {
        self.run_collective(coll_kind::BCAST, comm, move |mpi, app| {
            mpi.bcast(app, root, data)
        })
    }

    /// Typed broadcast.
    pub fn bcast_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        root: usize,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        let bytes = self.bcast(comm, root, T::slice_to_bytes(data).into())?;
        T::bytes_to_vec(&bytes).map_err(Into::into)
    }

    /// Element-wise reduction delivered to every member.
    pub fn allreduce(
        &mut self,
        comm: CommHandle,
        op: ReduceOp,
        dtype: DType,
        data: Bytes,
    ) -> C3Result<Bytes> {
        self.run_collective(coll_kind::ALLREDUCE, comm, move |mpi, app| {
            mpi.allreduce_bytes(app, op, dtype, data)
        })
    }

    /// Typed allreduce.
    pub fn allreduce_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        op: ReduceOp,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        let data = T::slice_to_bytes(data).into();
        let bytes = self.allreduce(comm, op, T::DTYPE, data)?;
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
        let data = T::slice_to_bytes(data).into();
        let framed =
            self.run_collective(coll_kind::REDUCE, comm, move |mpi, app| {
                let out = mpi.reduce_bytes(app, root, op, T::DTYPE, data)?;
                Ok(frame_option(&out))
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
        data: Bytes,
    ) -> C3Result<Option<Vec<Bytes>>> {
        let framed =
            self.run_collective(coll_kind::GATHER, comm, move |mpi, app| {
                let out = mpi.gather(app, root, data)?;
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
        let chunks =
            self.gather(comm, root, T::slice_to_bytes(data).into())?;
        Ok(chunks.as_deref().map(chunks_to_vecs).transpose()?)
    }

    /// Gather every member's payload at every member (ragged allowed).
    /// Each returned chunk is a refcounted slice of simmpi's one broadcast
    /// buffer (which is also what the recovery log stores).
    pub fn allgather(
        &mut self,
        comm: CommHandle,
        data: Bytes,
    ) -> C3Result<Vec<Bytes>> {
        unframe_chunks(&self.allgather_framed(comm, data)?).map_err(Into::into)
    }

    /// The allgather's one broadcast buffer, live or replayed from the log.
    fn allgather_framed(
        &mut self,
        comm: CommHandle,
        data: Bytes,
    ) -> C3Result<Bytes> {
        self.run_collective(coll_kind::ALLGATHER, comm, move |mpi, app| {
            mpi.allgather_framed(app, data)
        })
    }

    /// Typed allgather (per-rank vectors).
    pub fn allgather_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        data: &[T],
    ) -> C3Result<Vec<Vec<T>>> {
        let chunks = self.allgather(comm, T::slice_to_bytes(data).into())?;
        Ok(chunks_to_vecs(&chunks)?)
    }

    /// Typed allgather, concatenated in rank order and decoded straight
    /// from the broadcast buffer.
    pub fn allgather_flat_t<T: MpiType>(
        &mut self,
        comm: CommHandle,
        data: &[T],
    ) -> C3Result<Vec<T>> {
        let framed =
            self.allgather_framed(comm, T::slice_to_bytes(data).into())?;
        unframe_flat_t(&framed).map_err(Into::into)
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
        let data = T::slice_to_bytes(data).into();
        let bytes =
            self.run_collective(coll_kind::SCAN, comm, move |mpi, app| {
                mpi.scan_bytes(app, op, T::DTYPE, data)
            })?;
        T::bytes_to_vec(&bytes).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_max_is_the_conjunction_fold() {
        // The per-rank loop the word's encoding replaces: one half-wise
        // max gives the conjunction's `(max_epoch, stopped_at_max)` and
        // the straddle rule's `min_epoch`.
        let reference = |ranks: &[(u32, bool)]| {
            let max_epoch = ranks.iter().map(|r| r.0).max().unwrap();
            let min_epoch = ranks.iter().map(|r| r.0).min().unwrap();
            let stopped =
                ranks.iter().any(|&(e, logging)| e == max_epoch && !logging);
            (max_epoch, min_epoch, stopped)
        };
        let states = [(0, false), (3, true), (3, false), (4, true)];
        for a in states {
            for b in states {
                for c in states {
                    let ranks = [a, b, c];
                    let fold = ranks
                        .iter()
                        .map(|&(e, l)| control_word(e, l))
                        .reduce(simmpi::collective::fold_words)
                        .unwrap();
                    let ctl = CollControl::from_fold(fold);
                    assert_eq!(
                        (ctl.max_epoch, ctl.min_epoch, ctl.stopped_at_max),
                        reference(&ranks),
                        "{ranks:?}"
                    );
                }
            }
        }
        let top = u32::MAX >> 1;
        let ctl = CollControl::from_fold(control_word(top, false));
        assert_eq!(
            (ctl.max_epoch, ctl.min_epoch, ctl.stopped_at_max),
            (top, top, true)
        );
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

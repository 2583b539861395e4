//! Collective operations and communicator creation.
//!
//! All collectives are implemented with internal point-to-point messages on
//! the communicator's collective plane (context bit set), so they are
//! invisible to application receives — and, crucially for the paper's
//! architecture, the checkpointing protocol layer above intercepts
//! collectives as *whole calls*, never seeing these internals (Section 4.5:
//! "Had the layer been implemented between MPI and the operating
//! system/hardware layer, the protocol would have had to deal with all
//! these low-level point-to-point messages").
//!
//! Algorithms are chosen for determinism and simplicity at simulator scale
//! (≤ 64 ranks): binomial-tree broadcast, linear gather/reduce with
//! ascending-rank combination order (deterministic floating-point results),
//! dissemination barrier, pairwise all-to-all, linear-chain scan.
//! `allgather` and `allreduce` are gather/reduce to an internal root
//! followed by a broadcast from it, and that root is the communicator's
//! *last* rank. The root is the first rank out of such a collective (it
//! sends the broadcast and leaves; everyone else waits for it), so it is
//! the first into the next one and whatever it contributes there is the
//! stalest contribution. Rank 0 is where protocols above put their
//! coordinator; rooting at the far end makes rank 0 the last rank the
//! broadcast reaches and so the last to enter the next collective, which
//! lets a decision it has just taken travel with its sideband word (below)
//! to every participant in that same collective, not the one after, and
//! so fewer calls have participants on both sides of that decision.
//! Results do not depend on the root: chunks are indexed, and reductions
//! combined, by ascending rank.
//!
//! A caller may attach one 8-byte *sideband* word to a collective
//! ([`Mpi::with_sideband`]): it rides in the inline header segment of the
//! frames the algorithm sends anyway and comes back folded over every
//! rank the call's output depends on. The fold is [`fold_words`]: the
//! `max` of each 32-bit half on its own, so one word can carry one
//! maximum in its low half and, complemented, one minimum in its high
//! half. The protocol layer uses it to agree on `(epoch, amLogging)`
//! and the participants' minimum epoch without a control round of its
//! own.
//!
//! A gather (and so a reduce) can also run *answered*
//! ([`Mpi::with_answered_sideband`]): each contributor's frame carries
//! its word and an *ask* flag, the root — which hears from everyone —
//! answers every contributor that asked with one empty frame headed by
//! the full fold, and a contributor that did not ask leaves as soon as
//! its frame is sent, as `MPI_Gather` allows. Only the askers and the
//! root come out holding the fold; the others learn that they do not.

use bytes::Bytes;

use crate::comm::{Comm, COLLECTIVE_BIT};
use crate::datatype::{DType, MpiType, ReduceOp};
use crate::envelope::{HeaderBytes, RecvMsg};
use crate::error::{MpiError, MpiResult};
use crate::rank::{Mpi, Plane};

/// Opcode nibble mixed into internal collective tags.
#[derive(Clone, Copy)]
enum CollOp {
    Barrier = 0,
    Bcast = 1,
    Gather = 2,
    Scatter = 3,
    // 4 reserved: reductions ride on Gather/Bcast internally.
    Alltoall = 5,
    Scan = 6,
    CtxAgree = 7,
}

fn coll_tag(seq: u32, op: CollOp, round: u32) -> i32 {
    // seq: 20 bits, round: 8 bits, op: 4 bits — all positive i32 values.
    (((seq & 0xF_FFFF) << 12) | ((round & 0xFF) << 4) | (op as u32)) as i32
}

/// Internal root of the gather-then-broadcast collectives (why the last
/// rank: module docs).
fn internal_root(comm: &Comm) -> usize {
    comm.size() - 1
}

/// The sideband fold of two words: the `max` of each 32-bit half on its
/// own (module docs).
pub fn fold_words(a: u64, b: u64) -> u64 {
    let half = |w: u64, shift: u32| (w >> shift) as u32;
    (u64::from(half(a, 32).max(half(b, 32))) << 32)
        | u64::from(half(a, 0).max(half(b, 0)))
}

/// Frame a list of byte chunks into one byte string: a little-endian
/// `u64` count followed by `u64`-length-prefixed chunks. This is the
/// allgather broadcast buffer's format, and the one the protocol layer
/// above logs ragged collective results in.
pub fn frame_chunks(chunks: &[Bytes]) -> Bytes {
    let total: usize = 8 + chunks.iter().map(|c| 8 + c.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
    for c in chunks {
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        out.extend_from_slice(c);
    }
    Bytes::from(out)
}

/// Split a framed byte string back into its chunks. Each chunk is a
/// refcounted slice of `payload` — no per-chunk allocation or copy.
pub fn unframe_chunks(payload: &Bytes) -> MpiResult<Vec<Bytes>> {
    let err = || MpiError::BadPayload("malformed framed chunks".into());
    let mut pos = 0usize;
    let read_len = |pos: &mut usize| -> MpiResult<usize> {
        if payload.len() - *pos < 8 {
            return Err(err());
        }
        let n = u64::from_le_bytes(payload[*pos..*pos + 8].try_into().unwrap())
            as usize;
        *pos += 8;
        Ok(n)
    };
    let count = read_len(&mut pos)?;
    // Every chunk costs at least its 8-byte length prefix, so a count
    // beyond that is corrupt; refusing it here also bounds the
    // reservation by the payload's own size.
    if count > (payload.len() - pos) / 8 {
        return Err(err());
    }
    let mut chunks = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_len(&mut pos)?;
        if payload.len() - pos < len {
            return Err(err());
        }
        chunks.push(payload.slice(pos..pos + len));
        pos += len;
    }
    if pos != payload.len() {
        return Err(err());
    }
    Ok(chunks)
}

/// Decode each chunk into its own typed vector.
pub fn chunks_to_vecs<T: MpiType>(chunks: &[Bytes]) -> MpiResult<Vec<Vec<T>>> {
    chunks.iter().map(|c| T::bytes_to_vec(c)).collect()
}

/// Decode a framed byte string of typed chunks into their concatenation:
/// every chunk is decoded straight from `payload` onto the end of one
/// vector reserved once for all of them.
pub fn unframe_flat_t<T: MpiType>(payload: &Bytes) -> MpiResult<Vec<T>> {
    let chunks = unframe_chunks(payload)?;
    let bytes: usize = chunks.iter().map(Bytes::len).sum();
    let mut out = Vec::with_capacity(bytes / T::DTYPE.width());
    for c in &chunks {
        T::extend_from_bytes(&mut out, c)?;
    }
    Ok(out)
}

/// Split an answered gather contributor's header into its word and its
/// ask flag; `None` unless it is exactly 8 word bytes and a 0/1 byte.
fn asking_header(header: &[u8]) -> Option<(u64, bool)> {
    match header {
        [word @ .., ask @ (0 | 1)] => {
            Some((u64::from_le_bytes(word.try_into().ok()?), *ask == 1))
        }
        _ => None,
    }
}

/// Decode a little-endian `u32` context id from the first four bytes of a
/// context-agreement payload.
fn ctx_word(payload: &[u8]) -> MpiResult<u32> {
    payload
        .get(..4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| MpiError::BadPayload("short context id".into()))
}

/// An open sideband scope (module docs).
#[derive(Clone, Copy)]
pub(crate) struct Sideband {
    /// Running [`fold_words`] fold of the words this rank has seen.
    fold: u64,
    /// `None` in a plain scope; in an answered one, whether this rank
    /// asks the gather's root for the full fold.
    ask: Option<bool>,
    /// False once an answered gather has let this rank leave without
    /// the full fold.
    informed: bool,
}

impl Mpi {
    /// Open `scope` for the duration of `f` and hand it back closed, on
    /// every exit path, errors included.
    fn scoped<R>(
        &mut self,
        scope: Sideband,
        f: impl FnOnce(&mut Mpi) -> MpiResult<R>,
    ) -> MpiResult<(R, Sideband)> {
        self.sideband = Some(scope);
        let result = f(self);
        let scope = self.sideband.take().unwrap_or(scope);
        Ok((result?, scope))
    }

    /// Run `f` with an 8-byte *sideband* word riding on every internal
    /// collective frame this rank sends and receives inside it, and
    /// return `f`'s result with the fold.
    ///
    /// Each frame carries its sender's running fold in the inline header
    /// segment — no extra frame, no extra round — and each receive folds
    /// the incoming word in with [`fold_words`]. The fold therefore covers
    /// exactly the ranks whose input the call's *output* already depends
    /// on: every rank for `barrier`, `allgather`, `allreduce` and
    /// `alltoall`; only those upstream of the caller for the one-way
    /// kinds (`bcast`, `scatter`, `gather`, `reduce`, `scan`), whose fold
    /// is partial. Every participant of a collective must open the scope
    /// or none may: a frame with a word where none is expected, or the
    /// reverse, is [`MpiError::BadPayload`]. The scope is closed on every
    /// exit path, errors included.
    pub fn with_sideband<R>(
        &mut self,
        word: u64,
        f: impl FnOnce(&mut Mpi) -> MpiResult<R>,
    ) -> MpiResult<(R, u64)> {
        let scope = Sideband {
            fold: word,
            ask: None,
            informed: true,
        };
        let (result, scope) = self.scoped(scope, f)?;
        Ok((result, scope.fold))
    }

    /// [`Mpi::with_sideband`] for the one gather (or reduce) `f` runs, in
    /// the answered form: this rank's frame carries `word` and `ask`; the
    /// root answers every contributor that asked with the fold of every
    /// rank's word, and a contributor that did not ask leaves as soon as
    /// its frame is sent. Returns the full fold where this rank holds it
    /// (the root, and every contributor that asked) and `None` where it
    /// left without it. Every participant must open the same kind of
    /// scope; the header checks of [`Mpi::with_sideband`] apply.
    pub fn with_answered_sideband<R>(
        &mut self,
        word: u64,
        ask: bool,
        f: impl FnOnce(&mut Mpi) -> MpiResult<R>,
    ) -> MpiResult<(R, Option<u64>)> {
        let scope = Sideband {
            fold: word,
            ask: Some(ask),
            informed: true,
        };
        let (result, scope) = self.scoped(scope, f)?;
        Ok((result, scope.informed.then_some(scope.fold)))
    }

    fn csend(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> MpiResult<()> {
        let header = match &self.sideband {
            None => HeaderBytes::empty(),
            Some(scope) => HeaderBytes::new(&scope.fold.to_le_bytes()),
        };
        self.send_segments_on(comm, Plane::Coll, dst, tag, header, payload)
    }

    fn crecv(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Bytes> {
        let msg = self.recv_on(comm, Plane::Coll, src, tag)?;
        self.cfold(msg)
    }

    /// Fold a received collective frame's sideband word into the open
    /// scope and hand back its payload. The header must be exactly the
    /// word when a scope is open and exactly empty when none is: anything
    /// else did not come from a peer making the same call.
    fn cfold(&mut self, msg: RecvMsg) -> MpiResult<Bytes> {
        let word = <[u8; 8]>::try_from(msg.header.as_slice());
        match (self.sideband.as_mut(), word) {
            (None, _) if msg.header.is_empty() => {}
            (Some(scope), Ok(word)) => {
                scope.fold = fold_words(scope.fold, u64::from_le_bytes(word));
            }
            (scope, _) => {
                return Err(MpiError::BadPayload(format!(
                    "collective frame from rank {} has a {}-byte header, \
                     expected {}",
                    msg.src,
                    msg.header.len(),
                    if scope.is_some() {
                        "the 8-byte sideband word"
                    } else {
                        "none"
                    }
                )));
            }
        }
        Ok(msg.payload)
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Synchronize all members (the `MPI_Barrier` analogue); dissemination
    /// algorithm, ⌈log₂ n⌉ rounds.
    pub fn barrier(&mut self, comm: &Comm) -> MpiResult<()> {
        let n = comm.size();
        if n == 1 {
            return Ok(());
        }
        let me = comm.rank();
        let seq = comm.next_coll_seq();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            let tag = coll_tag(seq, CollOp::Barrier, round);
            self.csend(comm, dst, tag, Bytes::new())?;
            self.crecv(comm, src, tag)?;
            dist *= 2;
            round += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcast `root`'s payload to all members (the `MPI_Bcast`
    /// analogue). Non-root callers' `data` is ignored; everyone receives
    /// the root's bytes. Binomial tree.
    pub fn bcast(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Bytes,
    ) -> MpiResult<Bytes> {
        let n = comm.size();
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        if n == 1 {
            return Ok(data);
        }
        let me = comm.rank();
        let vr = (me + n - root) % n; // rank relative to root
        let seq = comm.next_coll_seq();
        let tag = coll_tag(seq, CollOp::Bcast, 0);

        let mut buf = if me == root { data } else { Bytes::new() };

        // Receive phase: find the bit where our subtree was reached.
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let src = (vr - mask + root) % n;
                buf = self.crecv(comm, src, tag)?;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to subtrees below our bit.
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let dst = (vr + mask + root) % n;
                self.csend(comm, dst, tag, buf.clone())?;
            }
            mask >>= 1;
        }
        Ok(buf)
    }

    /// Typed broadcast; returns the root's slice at every rank.
    pub fn bcast_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[T],
    ) -> MpiResult<Vec<T>> {
        let payload = if comm.rank() == root {
            Bytes::from(T::slice_to_bytes(data))
        } else {
            Bytes::new()
        };
        let out = self.bcast(comm, root, payload)?;
        T::bytes_to_vec(&out)
    }

    // ------------------------------------------------------------------
    // Gather / Scatter
    // ------------------------------------------------------------------

    /// Gather every member's payload at `root` (the `MPI_Gather` analogue,
    /// ragged payloads allowed). Returns `Some(chunks)` — indexed by
    /// communicator rank — at the root, `None` elsewhere. Every chunk, the
    /// root's own included, is its contributor's buffer by refcount.
    pub fn gather(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Bytes,
    ) -> MpiResult<Option<Vec<Bytes>>> {
        let n = comm.size();
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        let me = comm.rank();
        let seq = comm.next_coll_seq();
        let tag = coll_tag(seq, CollOp::Gather, 0);
        if let Some(Sideband {
            fold,
            ask: Some(ask),
            ..
        }) = self.sideband
        {
            return self.answered_gather(comm, root, seq, data, fold, ask);
        }
        if me == root {
            let mut chunks = vec![Bytes::new(); n];
            chunks[me] = data;
            for (src, chunk) in chunks.iter_mut().enumerate() {
                if src != me {
                    *chunk = self.crecv(comm, src, tag)?;
                }
            }
            Ok(Some(chunks))
        } else {
            self.csend(comm, root, tag, data)?;
            Ok(None)
        }
    }

    /// The gather of an answered scope, entered with its running `fold`:
    /// a contributor's header is that fold and its ask byte, and the root
    /// answers each asker on round 1 of the same sequence number once
    /// every frame is in.
    fn answered_gather(
        &mut self,
        comm: &Comm,
        root: usize,
        seq: u32,
        data: Bytes,
        mut fold: u64,
        ask: bool,
    ) -> MpiResult<Option<Vec<Bytes>>> {
        let me = comm.rank();
        let tag = coll_tag(seq, CollOp::Gather, 0);
        let answer = coll_tag(seq, CollOp::Gather, 1);
        if me != root {
            let mut header = [u8::from(ask); 9];
            header[..8].copy_from_slice(&fold.to_le_bytes());
            let header = HeaderBytes::new(&header);
            self.send_segments_on(comm, Plane::Coll, root, tag, header, data)?;
            if ask {
                self.crecv(comm, root, answer)?;
            } else if let Some(scope) = self.sideband.as_mut() {
                scope.informed = false;
            }
            return Ok(None);
        }
        let mut chunks = vec![Bytes::new(); comm.size()];
        chunks[me] = data;
        let mut askers = Vec::new();
        for (src, chunk) in chunks.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            let msg = self.recv_on(comm, Plane::Coll, src, tag)?;
            let Some((word, asked)) = asking_header(&msg.header) else {
                return Err(MpiError::BadPayload(format!(
                    "answered gather frame from rank {src} has a {}-byte \
                     header, expected a word and an ask byte",
                    msg.header.len()
                )));
            };
            fold = fold_words(fold, word);
            if asked {
                askers.push(src);
            }
            *chunk = msg.payload;
        }
        if let Some(scope) = self.sideband.as_mut() {
            scope.fold = fold;
        }
        for dst in askers {
            self.csend(comm, dst, answer, Bytes::new())?;
        }
        Ok(Some(chunks))
    }

    /// Typed gather.
    pub fn gather_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        root: usize,
        data: &[T],
    ) -> MpiResult<Option<Vec<Vec<T>>>> {
        let chunks =
            self.gather(comm, root, T::slice_to_bytes(data).into())?;
        chunks.as_deref().map(chunks_to_vecs).transpose()
    }

    /// Gather every member's payload at every member (the `MPI_Allgather`
    /// analogue, ragged payloads allowed) and return the one broadcast
    /// buffer itself, in [`frame_chunks`] format: gather to the internal
    /// root, broadcast from it.
    pub fn allgather_framed(
        &mut self,
        comm: &Comm,
        data: Bytes,
    ) -> MpiResult<Bytes> {
        let root = internal_root(comm);
        let framed = match self.gather(comm, root, data)? {
            Some(chunks) => frame_chunks(&chunks),
            None => Bytes::new(),
        };
        self.bcast(comm, root, framed)
    }

    /// [`Mpi::allgather_framed`] split per rank: `chunks[r]` is rank `r`'s
    /// data, a refcounted slice of the one broadcast buffer.
    pub fn allgather(
        &mut self,
        comm: &Comm,
        data: Bytes,
    ) -> MpiResult<Vec<Bytes>> {
        unframe_chunks(&self.allgather_framed(comm, data)?)
    }

    /// Typed allgather returning per-rank vectors.
    pub fn allgather_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        data: &[T],
    ) -> MpiResult<Vec<Vec<T>>> {
        chunks_to_vecs(&self.allgather(comm, T::slice_to_bytes(data).into())?)
    }

    /// Typed allgather returning the concatenation in rank order (the
    /// contiguous-buffer shape of `MPI_Allgather`), decoded straight from
    /// the broadcast buffer.
    pub fn allgather_flat_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        data: &[T],
    ) -> MpiResult<Vec<T>> {
        let framed =
            self.allgather_framed(comm, T::slice_to_bytes(data).into())?;
        unframe_flat_t(&framed)
    }

    /// Distribute `root`'s per-rank chunks (the `MPI_Scatter` analogue,
    /// ragged chunks allowed). Non-roots pass `None` for `chunks`. Every
    /// chunk travels — and is returned — by refcount.
    pub fn scatter(
        &mut self,
        comm: &Comm,
        root: usize,
        chunks: Option<&[Bytes]>,
    ) -> MpiResult<Bytes> {
        let n = comm.size();
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        let me = comm.rank();
        // Validate arguments *before* consuming a collective sequence
        // number: a local error must not desynchronize this rank's
        // sequence counter from its peers'.
        if me == root {
            let chunks = chunks.ok_or_else(|| {
                MpiError::CollectiveMismatch(
                    "scatter root must supply chunks".into(),
                )
            })?;
            if chunks.len() != n {
                return Err(MpiError::CollectiveMismatch(format!(
                    "scatter root supplied {} chunks for {n} ranks",
                    chunks.len()
                )));
            }
        }
        let seq = comm.next_coll_seq();
        let tag = coll_tag(seq, CollOp::Scatter, 0);
        if me == root {
            let chunks = chunks.expect("validated above");
            for (dst, chunk) in chunks.iter().enumerate() {
                if dst != me {
                    self.csend(comm, dst, tag, chunk.clone())?;
                }
            }
            Ok(chunks[me].clone())
        } else {
            self.crecv(comm, root, tag)
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Element-wise reduction to `root` (the `MPI_Reduce` analogue).
    /// Contributions are combined in ascending communicator-rank order, so
    /// floating-point results are deterministic. Returns `Some` at root.
    pub fn reduce_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        root: usize,
        op: ReduceOp,
        data: &[T],
    ) -> MpiResult<Option<Vec<T>>> {
        let bytes = self.reduce_bytes(
            comm,
            root,
            op,
            T::DTYPE,
            T::slice_to_bytes(data).into(),
        )?;
        bytes.map(|b| T::bytes_to_vec(&b)).transpose()
    }

    /// Byte-level reduction to `root`.
    pub fn reduce_bytes(
        &mut self,
        comm: &Comm,
        root: usize,
        op: ReduceOp,
        dtype: DType,
        data: Bytes,
    ) -> MpiResult<Option<Vec<u8>>> {
        dtype.check(&data)?;
        let chunks = self.gather(comm, root, data)?;
        match chunks {
            None => Ok(None),
            Some(chunks) => {
                let mut iter = chunks.into_iter();
                let first = iter.next().ok_or_else(|| {
                    MpiError::CollectiveMismatch("empty reduce group".into())
                })?;
                let mut acc = first.to_vec();
                for chunk in iter {
                    op.combine(dtype, &mut acc, &chunk)?;
                }
                Ok(Some(acc))
            }
        }
    }

    /// Element-wise reduction delivered to every member (the
    /// `MPI_Allreduce` analogue). Reduce to the internal root, broadcast
    /// from it.
    pub fn allreduce_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        op: ReduceOp,
        data: &[T],
    ) -> MpiResult<Vec<T>> {
        let bytes = self.allreduce_bytes(
            comm,
            op,
            T::DTYPE,
            T::slice_to_bytes(data).into(),
        )?;
        T::bytes_to_vec(&bytes)
    }

    /// Byte-level allreduce. The result is the broadcast buffer itself,
    /// shared by refcount at every rank.
    pub fn allreduce_bytes(
        &mut self,
        comm: &Comm,
        op: ReduceOp,
        dtype: DType,
        data: Bytes,
    ) -> MpiResult<Bytes> {
        let root = internal_root(comm);
        let reduced = self.reduce_bytes(comm, root, op, dtype, data)?;
        let payload = reduced.map(Bytes::from).unwrap_or_default();
        self.bcast(comm, root, payload)
    }

    /// Inclusive prefix reduction (the `MPI_Scan` analogue): rank `r`
    /// receives `op(data_0, …, data_r)`. Linear chain.
    pub fn scan_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        op: ReduceOp,
        data: &[T],
    ) -> MpiResult<Vec<T>> {
        let bytes = self.scan_bytes(
            comm,
            op,
            T::DTYPE,
            T::slice_to_bytes(data).into(),
        )?;
        T::bytes_to_vec(&bytes)
    }

    /// Byte-level scan. The result is the buffer sent down the chain,
    /// shared by refcount with the next rank.
    pub fn scan_bytes(
        &mut self,
        comm: &Comm,
        op: ReduceOp,
        dtype: DType,
        data: Bytes,
    ) -> MpiResult<Bytes> {
        dtype.check(&data)?;
        let n = comm.size();
        let me = comm.rank();
        let seq = comm.next_coll_seq();
        let tag = coll_tag(seq, CollOp::Scan, 0);
        let mut acc = data;
        if me > 0 {
            let mut combined = self.crecv(comm, me - 1, tag)?.to_vec();
            op.combine(dtype, &mut combined, &acc)?;
            acc = combined.into();
        }
        if me + 1 < n {
            self.csend(comm, me + 1, tag, acc.clone())?;
        }
        Ok(acc)
    }

    // ------------------------------------------------------------------
    // All-to-all
    // ------------------------------------------------------------------

    /// Personalized all-to-all exchange (the `MPI_Alltoall` analogue,
    /// ragged chunks allowed). `chunks[d]` goes to rank `d`; the result's
    /// entry `s` came from rank `s`. Chunks travel by refcount in both
    /// directions.
    pub fn alltoall(
        &mut self,
        comm: &Comm,
        chunks: &[Bytes],
    ) -> MpiResult<Vec<Bytes>> {
        let n = comm.size();
        let me = comm.rank();
        if chunks.len() != n {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall supplied {} chunks for {n} ranks",
                chunks.len()
            )));
        }
        let seq = comm.next_coll_seq();
        let tag = coll_tag(seq, CollOp::Alltoall, 0);
        // Post every receive first, then send — deadlock-free regardless of
        // transport buffering.
        let mut reqs = Vec::with_capacity(n - 1);
        for src in (0..n).filter(|&s| s != me) {
            reqs.push((src, self.irecv_on(comm, Plane::Coll, src, tag)?));
        }
        for dst in (0..n).filter(|&d| d != me) {
            self.csend(comm, dst, tag, chunks[dst].clone())?;
        }
        let mut out = vec![Bytes::new(); n];
        out[me] = chunks[me].clone();
        for (src, mut req) in reqs {
            let msg = self.wait_recv(comm, &mut req)?;
            out[src] = self.cfold(msg)?;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Communicator creation (collective context agreement)
    // ------------------------------------------------------------------

    /// Agree on a fresh context id across the members of `comm`.
    fn agree_context(&mut self, comm: &Comm) -> MpiResult<u32> {
        let n = comm.size();
        let me = comm.rank();
        let seq = comm.next_coll_seq();
        let tag = coll_tag(seq, CollOp::CtxAgree, 0);
        // Small hand-rolled max-allreduce (cannot reuse reduce_bytes: that
        // would recurse through gather's own seq accounting — fine, but the
        // explicit version keeps context agreement independent and simple).
        let mut max = self.next_ctx_hint;
        if me == 0 {
            for src in 1..n {
                max = max.max(ctx_word(&self.crecv(comm, src, tag)?)?);
            }
        } else {
            self.csend(
                comm,
                0,
                tag,
                Bytes::copy_from_slice(&self.next_ctx_hint.to_le_bytes()),
            )?;
        }
        let agreed =
            self.bcast(comm, 0, Bytes::copy_from_slice(&max.to_le_bytes()))?;
        let ctx = ctx_word(&agreed)?;
        assert!(ctx < COLLECTIVE_BIT, "communicator context space exhausted");
        self.next_ctx_hint = ctx + 1;
        Ok(ctx)
    }

    /// Duplicate a communicator: same membership, fresh isolated context
    /// (the `MPI_Comm_dup` analogue). Collective over `comm`.
    pub fn comm_dup(&mut self, comm: &Comm) -> MpiResult<Comm> {
        let ctx = self.agree_context(comm)?;
        Comm::from_parts(ctx, comm.members().to_vec(), self.rank())
    }

    /// Partition a communicator by `color` (the `MPI_Comm_split`
    /// analogue). Members passing the same non-negative color form a new
    /// communicator, ordered by `(key, old rank)`; a negative color opts
    /// out and yields `None`. Collective over `comm`.
    pub fn comm_split(
        &mut self,
        comm: &Comm,
        color: i32,
        key: i32,
    ) -> MpiResult<Option<Comm>> {
        let ctx = self.agree_context(comm)?;
        // Exchange (color, key, world_rank) triples.
        let mine = [color as i64, key as i64, self.rank() as i64];
        let all = self.allgather_t::<i64>(comm, &mine)?;
        if color < 0 {
            return Ok(None);
        }
        let mut group: Vec<(i64, i64, i64)> = all
            .iter()
            .filter(|t| t.len() == 3 && t[0] == color as i64)
            .map(|t| (t[1], t[2], t[0]))
            .collect();
        group.sort();
        let members: Vec<usize> =
            group.iter().map(|&(_, w, _)| w as usize).collect();
        Ok(Some(Comm::from_parts(ctx, members, self.rank())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(data: &'static [u8]) -> Bytes {
        Bytes::from_static(data)
    }

    #[test]
    fn frame_round_trip() {
        let chunks = vec![
            chunk(&[1, 2, 3]),
            chunk(&[]),
            Bytes::copy_from_slice(&[9u8; 100]),
            chunk(&[42]),
        ];
        assert_eq!(unframe_chunks(&frame_chunks(&chunks)).unwrap(), chunks);
    }

    #[test]
    fn unframed_chunks_share_the_framed_buffer() {
        let framed = frame_chunks(&[chunk(&[1, 2, 3]), chunk(&[4])]);
        let parts = unframe_chunks(&framed).unwrap();
        // Each part is a slice of `framed`'s backing allocation.
        let base = framed.as_slice().as_ptr() as usize;
        for p in &parts {
            if p.is_empty() {
                continue;
            }
            let at = p.as_slice().as_ptr() as usize;
            assert!(at >= base && at < base + framed.len());
        }
    }

    #[test]
    fn unframe_rejects_garbage() {
        assert!(unframe_chunks(&Bytes::from_static(&[1, 2, 3])).is_err());
        let framed = frame_chunks(&[chunk(&[1, 2, 3])]);
        assert!(unframe_chunks(&framed.slice(..framed.len() - 1)).is_err());
        // Trailing junk is also rejected.
        let mut junk = framed.to_vec();
        junk.push(0);
        assert!(unframe_chunks(&Bytes::from(junk)).is_err());
        // A corrupted count must be refused before anything is reserved
        // for it: here it claims more chunks than the payload has room
        // for length prefixes.
        for count in [3u64, u64::MAX] {
            let mut hostile = count.to_le_bytes().to_vec();
            hostile.extend_from_slice(&[0u8; 16]);
            assert!(unframe_chunks(&Bytes::from(hostile)).is_err());
        }
    }

    #[test]
    fn flat_decode_refuses_a_ragged_chunk() {
        let framed =
            frame_chunks(&[chunk(&[0; 8]), chunk(&[]), chunk(&[1; 7])]);
        assert!(matches!(
            unframe_flat_t::<f64>(&framed),
            Err(MpiError::BadPayload(_))
        ));
        let octets = unframe_flat_t::<u8>(&framed).unwrap();
        assert_eq!(octets, [[0u8; 8].as_slice(), &[1; 7]].concat());
    }

    #[test]
    fn short_context_id_is_rejected_not_a_panic() {
        assert_eq!(ctx_word(&7u32.to_le_bytes()).unwrap(), 7);
        for short in [&[][..], &[1, 2, 3]] {
            assert!(matches!(ctx_word(short), Err(MpiError::BadPayload(_))));
        }
    }

    /// A collective frame's header is the sideband word exactly when a
    /// scope is open at the receiver: rank 0 forges the root's bcast
    /// frame with each wrong header, rank 1 must refuse it and leave no
    /// scope behind.
    #[test]
    fn mis_headed_collective_frames_are_rejected() {
        use crate::world::World;
        // (forged header length, receiver opens a scope)
        let cases = [(3usize, false), (3, true), (8, false), (0, true)];
        World::run(2, |mpi| {
            let comm = mpi.world();
            for (k, &(hdr_len, scoped)) in cases.iter().enumerate() {
                if mpi.rank() == 0 {
                    let tag = coll_tag(comm.next_coll_seq(), CollOp::Bcast, 0);
                    let hdr = HeaderBytes::new(&[0xAB; 8][..hdr_len]);
                    mpi.send_segments_on(
                        &comm,
                        Plane::Coll,
                        1,
                        tag,
                        hdr,
                        Bytes::new(),
                    )?;
                    continue;
                }
                let out = if scoped {
                    mpi.with_sideband(1, |m| m.bcast(&comm, 0, Bytes::new()))
                        .map(|(b, _)| b)
                } else {
                    mpi.bcast(&comm, 0, Bytes::new())
                };
                assert!(
                    matches!(out, Err(MpiError::BadPayload(_))),
                    "case {k}: {out:?}"
                );
                assert!(mpi.sideband.is_none(), "case {k} left a scope open");
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn coll_tags_are_positive_and_distinct_across_ops() {
        let t1 = coll_tag(0, CollOp::Barrier, 0);
        let t2 = coll_tag(0, CollOp::Bcast, 0);
        let t3 = coll_tag(1, CollOp::Barrier, 0);
        let t4 = coll_tag(0, CollOp::Barrier, 1);
        assert!(t1 >= 0 && t2 >= 0 && t3 >= 0 && t4 >= 0);
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
        assert_ne!(t1, t4);
    }
}

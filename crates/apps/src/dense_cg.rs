//! Dense conjugate gradient with block-row distribution (Section 6.1).
//!
//! Solves `A x = b` for a dense SPD matrix. Each rank owns a block of rows
//! of `A` plus the matching slices of the CG vectors. Per iteration:
//!
//! * an **allgather** of the direction vector `p` (the matvec needs all of
//!   it), and
//! * two **allreduces** for the dot products `pᵀAp` and `rᵀr`,
//!
//! both implemented as point-to-point butterflies ([`crate::butterfly`]),
//! exactly like the paper's code ("communication coming from an allReduce
//! and an allGather, which are implemented in terms of point-to-point
//! messages along a butterfly tree").
//!
//! The checkpointed state is dominated by the per-rank matrix block
//! (`rows × n` doubles), so checkpoint cost scales with the square of the
//! problem size — the effect behind Figure 8's dense-CG bars.

use crate::butterfly::{allgather_flat, allreduce_scalar};
use crate::digest_f64;
use crate::linalg::{axpy, block_matvec, block_range, dot, spd_entry, xpby};
use c3_core::{C3App, C3Result, Process, Tracked};

/// Dense CG configuration.
#[derive(Debug, Clone)]
pub struct DenseCg {
    /// Matrix dimension `n` (the paper ran 4096/8192/16384; scaled sizes
    /// like 256/512/1024 reproduce the same shape on a laptop).
    pub n: usize,
    /// CG iterations to run (the paper ran 500).
    pub iters: u64,
    /// §7 "recomputation checkpointing" ablation: when set, the read-only
    /// matrix block is *excluded* from checkpoints ("if the description of
    /// this recomputation requires less space than storing their data, we
    /// should store the description") and regenerated deterministically on
    /// restart. Checkpoints shrink from O(n²/P) to O(n/P) bytes.
    pub exclude_readonly: bool,
}

impl DenseCg {
    /// Standard configuration (full state saved, as the paper's
    /// instrumented code does).
    pub fn new(n: usize, iters: u64) -> Self {
        DenseCg {
            n,
            iters,
            exclude_readonly: false,
        }
    }

    /// Recomputation-checkpointing configuration (§7 ablation).
    pub fn recompute(n: usize, iters: u64) -> Self {
        DenseCg {
            n,
            iters,
            exclude_readonly: true,
        }
    }
}

/// Per-rank CG state — everything needed to resume, including the matrix
/// block (the paper's instrumented code "saves the entire state") unless
/// recomputation checkpointing is on, in which case `persist_matrix` is
/// false, the block is skipped by `save`, and `run` regenerates it after a
/// restore (it comes back empty).
///
/// The matrix block is written once, in `init`, and only read afterwards,
/// so it is [`Tracked`]: every line after a rank's first names it by
/// reference instead of serializing it again. The vectors change every
/// iteration and stay plain.
pub struct CgState {
    /// Completed iterations.
    pub iter: u64,
    /// Whether `a_block` is written into checkpoints.
    pub persist_matrix: bool,
    /// This rank's rows of `A`, row-major (`rows × n`).
    pub a_block: Tracked<Vec<f64>>,
    /// Local slice of the iterate `x`.
    pub x: Vec<f64>,
    /// Local slice of the residual `r`.
    pub r: Vec<f64>,
    /// Local slice of the direction `p`.
    pub p: Vec<f64>,
    /// Current `rᵀr` (global).
    pub rho: f64,
}

impl ckptstore::SaveLoad for CgState {
    fn save(&self, enc: &mut ckptstore::Encoder) {
        enc.put_u64(self.iter);
        enc.put_bool(self.persist_matrix);
        if self.persist_matrix {
            self.a_block.save_with(enc, |a, enc| enc.put_f64_slice(a));
        }
        enc.put_f64_slice(&self.x);
        enc.put_f64_slice(&self.r);
        enc.put_f64_slice(&self.p);
        enc.put_f64(self.rho);
    }
    fn load(
        dec: &mut ckptstore::Decoder<'_>,
    ) -> Result<Self, ckptstore::codec::CodecError> {
        let iter = dec.get_u64()?;
        let persist_matrix = dec.get_bool()?;
        let a_block = if persist_matrix {
            Tracked::load_with(dec, |dec| dec.get_f64_vec())?
        } else {
            Tracked::new(Vec::new())
        };
        Ok(CgState {
            iter,
            persist_matrix,
            a_block,
            x: dec.get_f64_vec()?,
            r: dec.get_f64_vec()?,
            p: dec.get_f64_vec()?,
            rho: dec.get_f64()?,
        })
    }
}

/// Per-rank output: digest of the local solution slice plus the final
/// global residual bits.
pub type CgOutput = (u64, u64);

/// Rows `lo..hi` of the `n`×`n` test matrix, row-major: a rank's block in
/// `init`, the same block again when a restore brought none back, and
/// the whole matrix for the sequential reference.
fn matrix_rows(n: usize, lo: usize, hi: usize) -> Vec<f64> {
    let mut a = Vec::with_capacity((hi - lo) * n);
    for i in lo..hi {
        for j in 0..n {
            a.push(spd_entry(n, i, j));
        }
    }
    a
}

impl DenseCg {
    /// Bytes of checkpointable state per rank (for reporting).
    pub fn state_bytes_per_rank(&self, nranks: usize) -> usize {
        let rows = self.n / nranks + 1;
        (rows * self.n + 3 * rows) * 8 + 16
    }
}

impl C3App for DenseCg {
    type State = CgState;
    type Output = CgOutput;

    fn init(&self, p: &mut Process<'_>) -> C3Result<CgState> {
        let (lo, hi) = block_range(self.n, p.size(), p.rank());
        let rows = hi - lo;
        // b_i = 1 + i/n, x0 = 0 ⇒ r0 = b, p0 = r0.
        let b: Vec<f64> =
            (lo..hi).map(|i| 1.0 + i as f64 / self.n as f64).collect();
        let rho_local = dot(&b, &b);
        // The initial rho is a global dot product.
        let rho = {
            let world = p.world();
            allreduce_scalar(p, world, rho_local)?
        };
        Ok(CgState {
            iter: 0,
            persist_matrix: !self.exclude_readonly,
            a_block: Tracked::new(matrix_rows(self.n, lo, hi)),
            x: vec![0.0; rows],
            r: b.clone(),
            p: b,
            rho,
        })
    }

    fn run(
        &self,
        proc: &mut Process<'_>,
        s: &mut CgState,
    ) -> C3Result<CgOutput> {
        let world = proc.world();
        let n = self.n;
        let rows = s.x.len();
        // Recomputation checkpointing (§7): a restored state carries no
        // matrix block; rebuild it from its deterministic description.
        if s.a_block.is_empty() && rows > 0 {
            let (lo, hi) = block_range(n, proc.size(), proc.rank());
            debug_assert_eq!(hi - lo, rows);
            s.a_block = Tracked::new(matrix_rows(n, lo, hi));
        }
        let mut w = vec![0.0; rows];
        while s.iter < self.iters {
            // w = A p  (needs the full direction vector).
            let p_full = allgather_flat(proc, world, &s.p)?;
            debug_assert_eq!(p_full.len(), n);
            block_matvec(&s.a_block, n, &p_full, &mut w);

            // alpha = rho / (p · w). Long benchmark runs iterate past
            // convergence (the paper ran a fixed 500 iterations); once the
            // residual underflows to zero the updates become no-ops, and
            // the guards keep the arithmetic NaN-free while every
            // iteration still performs identical communication and flops.
            let pw = allreduce_scalar(proc, world, dot(&s.p, &w))?;
            let alpha = if pw != 0.0 { s.rho / pw } else { 0.0 };

            axpy(alpha, &s.p, &mut s.x);
            axpy(-alpha, &w, &mut s.r);

            // rho' = r · r ; beta = rho' / rho ; p = r + beta p.
            let rho_new = allreduce_scalar(proc, world, dot(&s.r, &s.r))?;
            let beta = if s.rho != 0.0 { rho_new / s.rho } else { 0.0 };
            s.rho = rho_new;
            xpby(&s.r, beta, &mut s.p);

            s.iter += 1;
            proc.potential_checkpoint(s)?;
        }
        Ok((digest_f64(&s.x), s.rho.to_bits()))
    }
}

/// Reference implementations used by correctness tests and benchmarks.
pub mod test_support {
    use super::*;

    /// Sequential reference CG with exactly the operation order a
    /// single-rank parallel run performs.
    pub fn sequential_cg(n: usize, iters: u64) -> (Vec<f64>, f64) {
        let a = matrix_rows(n, 0, n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let mut p = b;
        let mut rho = dot(&r, &r);
        let mut w = vec![0.0; n];
        for _ in 0..iters {
            block_matvec(&a, n, &p, &mut w);
            let alpha = rho / dot(&p, &w);
            axpy(alpha, &p, &mut x);
            axpy(-alpha, &w, &mut r);
            let rho_new = dot(&r, &r);
            let beta = rho_new / rho;
            rho = rho_new;
            xpby(&r, beta, &mut p);
        }
        (x, rho)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_cg_converges() {
        let (_, rho) = test_support::sequential_cg(32, 25);
        assert!(rho < 1e-18, "residual should be tiny, got {rho}");
    }

    #[test]
    fn envelope_is_the_untracked_format_and_round_trips() {
        use statesave::snapshot::{restore_from_bytes, snapshot_to_bytes};
        let s = CgState {
            iter: 3,
            persist_matrix: true,
            a_block: Tracked::new(
                (0..32).map(|i| i as f64 * 0.5 - 3.0).collect(),
            ),
            x: vec![1.0, 2.0],
            r: vec![-0.25, 0.125],
            p: vec![3.5, -7.0],
            rho: 1e-3,
        };
        let bytes = snapshot_to_bytes(&s);
        // Golden: length, CRC-32 and hash128 of the envelope the commit
        // before `a_block` became `Tracked` produced for this state, when
        // the field was a plain `Vec<f64>`. Stores written then must
        // restore now.
        assert_eq!(bytes.len(), 357);
        assert_eq!(ckptstore::crc32(&bytes), 0xadb0_c059);
        assert_eq!(
            ckptstore::hash128(&bytes),
            0x27dd_0fc9_3368_3a63_dbdd_11c5_aacb_0d80
        );
        let back: CgState = restore_from_bytes(&bytes).unwrap();
        assert_eq!(snapshot_to_bytes(&back), bytes);
        assert!(back.a_block == s.a_block && back.p == s.p);
    }

    #[test]
    fn lz4_stores_the_matrix_block_at_under_0_75_of_raw() {
        // Rank 0's block of a two-rank `DenseCg::new(1024, _)`, in the
        // pipeline's 4 KiB chunks, each in the smallest of its stored
        // forms: 0.738 of raw, where plain LZ4 alone reads 0.789 and LZ4
        // over byte planes alone 0.818. The near-diagonal chunks carry
        // each value twice, mirrored, and keep plain LZ4; planes win on
        // 399 of the 1 024 chunks.
        let (lo, hi) = block_range(1024, 2, 0);
        let block: Vec<u8> = matrix_rows(1024, lo, hi)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let mut trials = ckptstore::Trials::default();
        let stored: usize = block
            .chunks(4096)
            .map(|c| ckptstore::Form::encode(c, &mut trials).1.len())
            .sum();
        let ratio = stored as f64 / block.len() as f64;
        assert!(ratio <= 0.75, "stored at {ratio:.3} of raw");
    }

    #[test]
    fn state_bytes_estimate_scales_quadratically() {
        let cfg = DenseCg::new(256, 1);
        let small = cfg.state_bytes_per_rank(4);
        let cfg = DenseCg::new(512, 1);
        let big = cfg.state_bytes_per_rank(4);
        assert!(big > 3 * small, "roughly 4x expected: {small} -> {big}");
    }
}

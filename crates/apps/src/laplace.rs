//! Laplace solver: Jacobi iteration on a block-row-distributed grid
//! (Section 6.1).
//!
//! Each cell is replaced by the average of its four neighbors every
//! iteration ("during each iteration every grid cell is updated to be the
//! average of the numbers contained by the neighboring cells"). Each rank
//! owns a band of rows; per iteration it exchanges one boundary row with
//! the rank above and one with the rank below — large messages relative to
//! the piggybacked word, and state that is tiny compared to dense CG,
//! which is why the paper measures ≤ 2.1% checkpoint overhead here.

use c3_core::{C3App, C3Result, Process};
use ckptstore::impl_saveload_struct;
use simmpi::MpiType;

use crate::digest_f64;
use crate::linalg::block_range;

/// Boundary-exchange tags.
const TAG_UP: i32 = 11; // row sent upward (to rank-1)
const TAG_DOWN: i32 = 12; // row sent downward (to rank+1)

/// Laplace configuration.
#[derive(Debug, Clone)]
pub struct Laplace {
    /// Grid dimension (paper: 512/1024/2048; scaled: 128/256/512).
    pub n: usize,
    /// Jacobi iterations (paper: 40 000).
    pub iters: u64,
}

/// Per-rank solver state: the owned band of rows (without halos) and the
/// iteration counter.
pub struct LaplaceState {
    /// Completed iterations.
    pub iter: u64,
    /// `rows × n` row-major local band.
    pub grid: Vec<f64>,
}
impl_saveload_struct!(LaplaceState { iter: u64, grid: Vec<f64> });

impl Laplace {
    fn initial_cell(&self, i: usize, j: usize) -> f64 {
        // Hot left edge, cold right edge, sinusoidal top/bottom flavor —
        // any fixed deterministic boundary works.
        if j == 0 {
            100.0
        } else if j == self.n - 1 {
            -20.0
        } else if i == 0 || i == self.n - 1 {
            25.0
        } else {
            0.0
        }
    }
}

impl C3App for Laplace {
    type State = LaplaceState;
    type Output = u64;

    fn init(&self, p: &mut Process<'_>) -> C3Result<LaplaceState> {
        let (lo, hi) = block_range(self.n, p.size(), p.rank());
        let mut grid = Vec::with_capacity((hi - lo) * self.n);
        for i in lo..hi {
            for j in 0..self.n {
                grid.push(self.initial_cell(i, j));
            }
        }
        Ok(LaplaceState { iter: 0, grid })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut LaplaceState) -> C3Result<u64> {
        let world = p.world();
        let n = self.n;
        let size = p.size();
        let me = p.rank();
        let (lo, hi) = block_range(n, size, me);
        let rows = hi - lo;
        debug_assert_eq!(s.grid.len(), rows * n);
        let mut next = vec![0.0; rows * n];
        // The neighbours' boundary rows, decoded in place every
        // iteration. An edge rank never receives into its outer one and
        // the sweep never reads it: the row beside it is a global edge.
        let mut top_halo = vec![0.0f64; n];
        let mut bottom_halo = vec![0.0f64; n];

        while s.iter < self.iters {
            // Halo exchange with the rank above ("up" = smaller row
            // indices) and below.
            if me > 0 {
                let first_row = &s.grid[0..n];
                let msg = p.sendrecv(
                    world,
                    me - 1,
                    TAG_UP,
                    &f64::slice_to_bytes(first_row),
                    me - 1,
                    TAG_DOWN,
                )?;
                top_halo.clear();
                f64::extend_from_bytes(&mut top_halo, &msg.payload)?;
            }
            if me + 1 < size {
                let last_row = &s.grid[(rows - 1) * n..rows * n];
                let msg = p.sendrecv(
                    world,
                    me + 1,
                    TAG_DOWN,
                    &f64::slice_to_bytes(last_row),
                    me + 1,
                    TAG_UP,
                )?;
                bottom_halo.clear();
                f64::extend_from_bytes(&mut bottom_halo, &msg.payload)?;
            }

            sweep(n, lo, &s.grid, &top_halo, &bottom_halo, &mut next);
            std::mem::swap(&mut s.grid, &mut next);
            s.iter += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(digest_f64(&s.grid))
    }
}

/// Jacobi sweep over interior cells of the band `grid` (rows `lo..` of
/// the `n`×`n` problem); global edges keep their boundary values.
///
/// Row by row on slices: a global-edge row is copied; an interior row
/// copies its two end cells and averages the rest in one branch-free
/// pass over four equally long slices, which vectorizes. Each cell's sum
/// is still `up + down + left + right` in that order, as every reference
/// digest expects.
///
/// Out of line on purpose: inlined into `run`, this loop's code moved
/// with whatever the halo exchange around it inlined (EXPERIMENTS.md
/// M10).
#[inline(never)]
fn sweep(
    n: usize,
    lo: usize,
    grid: &[f64],
    top_halo: &[f64],
    bottom_halo: &[f64],
    next: &mut [f64],
) {
    let rows = grid.len() / n;
    let row = |r: usize| &grid[r * n..(r + 1) * n];
    for (r, out) in next.chunks_exact_mut(n).enumerate() {
        let cur = row(r);
        let gi = lo + r;
        // For n < 3 every row is a global edge.
        if gi == 0 || gi == n - 1 {
            out.copy_from_slice(cur);
            continue;
        }
        let up = if r == 0 { top_halo } else { row(r - 1) };
        let down = if r == rows - 1 {
            bottom_halo
        } else {
            row(r + 1)
        };
        out[0] = cur[0];
        out[n - 1] = cur[n - 1];
        let cells = out[1..n - 1]
            .iter_mut()
            .zip(&up[1..n - 1])
            .zip(&down[1..n - 1])
            .zip(&cur[..n - 2])
            .zip(&cur[2..]);
        for ((((cell, up), down), left), right) in cells {
            *cell = 0.25 * (up + down + left + right);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values() {
        let l = Laplace { n: 8, iters: 1 };
        assert_eq!(l.initial_cell(3, 0), 100.0);
        assert_eq!(l.initial_cell(3, 7), -20.0);
        assert_eq!(l.initial_cell(0, 3), 25.0);
        assert_eq!(l.initial_cell(3, 3), 0.0);
    }

    /// The sweep as it was written before the row-sliced form: one cell
    /// at a time, four boundary tests per cell. The oracle.
    fn sweep_per_cell(
        n: usize,
        lo: usize,
        grid: &[f64],
        top_halo: &[f64],
        bottom_halo: &[f64],
        next: &mut [f64],
    ) {
        let rows = grid.len() / n;
        for r in 0..rows {
            let gi = lo + r;
            for j in 0..n {
                let idx = r * n + j;
                if gi == 0 || gi == n - 1 || j == 0 || j == n - 1 {
                    next[idx] = grid[idx];
                    continue;
                }
                let up = if r == 0 { top_halo[j] } else { grid[idx - n] };
                let down = if r == rows - 1 {
                    bottom_halo[j]
                } else {
                    grid[idx + n]
                };
                next[idx] = 0.25 * (up + down + grid[idx - 1] + grid[idx + 1]);
            }
        }
    }

    #[test]
    fn sliced_sweep_is_the_per_cell_sweep_bit_for_bit() {
        // Doubles over sixty orders of magnitude, both signs: a
        // reassociated four-term sum would round differently.
        let mut seed = 0x5eed_1a91_ace0_0001u64;
        let mut value = move || {
            let z = ckptstore::splitmix64(&mut seed);
            let mantissa = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            mantissa * 10f64.powi((z % 61) as i32 - 30)
        };
        let mut bands = 0;
        for n in [1usize, 2, 3, 4, 5, 33] {
            for size in 1..=5 {
                for rank in 0..size {
                    let (lo, hi) = block_range(n, size, rank);
                    let cells = (hi - lo) * n;
                    let grid: Vec<f64> = (0..cells).map(|_| value()).collect();
                    let top: Vec<f64> = (0..n).map(|_| value()).collect();
                    let bottom: Vec<f64> = (0..n).map(|_| value()).collect();
                    // Different fill on each side: a cell either form
                    // leaves unwritten shows.
                    let mut got = vec![1.0; cells];
                    let mut want = vec![2.0; cells];
                    sweep(n, lo, &grid, &top, &bottom, &mut got);
                    sweep_per_cell(n, lo, &grid, &top, &bottom, &mut want);
                    let bits = |v: &[f64]| -> Vec<u64> {
                        v.iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "n={n} rank {rank} of {size} (rows {lo}..{hi})"
                    );
                    bands += usize::from(hi - lo == 1);
                }
            }
        }
        assert!(bands > 10, "one-row bands must be among the cases");
    }

    #[test]
    fn lz4_stores_a_late_band_at_under_0_82_of_raw() {
        // Rank 0's band of a two-rank `Laplace { n: 384, .. }` after
        // 2 000 sweeps, in the pipeline's 4 KiB chunks, each in the
        // smallest of its stored forms: 0.805 of raw, every chunk as
        // planes, where plain LZ4 reads 0.989. The grid is symmetric
        // about its middle, bit for bit (`up + down` commutes), so the
        // row below the band is the band's own last row.
        let n = 384;
        let (lo, hi) = block_range(n, 2, 0);
        let l = Laplace { n, iters: 2000 };
        let mut grid: Vec<f64> = (lo..hi)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| l.initial_cell(i, j))
            .collect();
        let mut next = vec![0.0; grid.len()];
        for _ in 0..l.iters {
            let mirror = grid[grid.len() - n..].to_vec();
            sweep(n, lo, &grid, &[], &mirror, &mut next);
            std::mem::swap(&mut grid, &mut next);
        }
        let band: Vec<u8> =
            grid.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut trials = ckptstore::Trials::default();
        let stored: usize = band
            .chunks(4096)
            .map(|c| ckptstore::Form::encode(c, &mut trials).1.len())
            .sum();
        let ratio = stored as f64 / band.len() as f64;
        assert!(ratio <= 0.82, "stored at {ratio:.3} of raw");
    }
}

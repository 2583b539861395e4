//! Neurosys: a neuron-network simulator (Section 6.1).
//!
//! "Uses a graph of neurons which excite and inhibit each other via their
//! connections. ... The evolution of the neuron network through time is
//! computed via the Runge-Kutta method. ... Communication consists of 5
//! `MPI_Allgather`s and 1 `MPI_Gather` in each loop iteration."
//!
//! This implementation integrates FitzHugh-Nagumo dynamics on an `m × m`
//! neuron grid with nearest-neighbor coupling, using classic RK4. Each RK
//! stage needs every neuron's potential (the coupling term), so each stage
//! performs an allgather — four of them — plus a fifth allgather of the
//! committed potentials and a gather of per-rank activity to rank 0: the
//! paper's exact 5 + 1 collective mix. Because these are *library*
//! collectives (not app-level butterflies), the paper's protocol pays a
//! control collective in front of every call — the effect that costs
//! small Neurosys runs up to 160% in Figure 8 and fades as computation
//! grows. Here no call pays a round of its own: the allgathers carry the
//! control word on their own frames, and the gather's root answers only
//! the contributors that are logging (`c3_core::process::collective`).

use c3_core::{C3App, C3Result, Process};
use ckptstore::impl_saveload_struct;

use crate::digest_f64;
use crate::linalg::block_range;

/// Neurosys configuration.
#[derive(Debug, Clone)]
pub struct Neurosys {
    /// Grid side `m` (the network has `m × m` neurons; paper: 16..128).
    pub m: usize,
    /// Time steps (paper: 3000).
    pub iters: u64,
    /// Integration step.
    pub dt: f64,
}

impl Neurosys {
    /// A standard configuration with `dt` chosen for stability.
    pub fn new(m: usize, iters: u64) -> Self {
        Neurosys { m, iters, dt: 0.01 }
    }

    /// Bytes of checkpointable state per rank (for reporting).
    pub fn state_bytes_per_rank(&self, nranks: usize) -> usize {
        let local = self.m * self.m / nranks + 1;
        2 * local * 8 + 8
    }
}

/// Per-rank simulator state: membrane potentials `v` and recovery
/// variables `w` of the locally owned neurons.
pub struct NeuroState {
    /// Completed time steps.
    pub iter: u64,
    /// Membrane potentials of the locally owned neurons.
    pub v: Vec<f64>,
    /// Recovery variables of the locally owned neurons.
    pub w: Vec<f64>,
}
impl_saveload_struct!(NeuroState { iter: u64, v: Vec<f64>, w: Vec<f64> });

const COUPLING: f64 = 0.2;
const EPS: f64 = 0.08;
const A: f64 = 0.7;
const B: f64 = 0.8;
const I_EXT: f64 = 0.5;

/// Coupling sum for neuron `k` (global index) over its grid neighbors.
fn neighbor_sum(v_full: &[f64], m: usize, k: usize) -> f64 {
    let (row, col) = (k / m, k % m);
    let mut acc = 0.0;
    let mut cnt = 0.0;
    if row > 0 {
        acc += v_full[k - m];
        cnt += 1.0;
    }
    if row + 1 < m {
        acc += v_full[k + m];
        cnt += 1.0;
    }
    if col > 0 {
        acc += v_full[k - 1];
        cnt += 1.0;
    }
    if col + 1 < m {
        acc += v_full[k + 1];
        cnt += 1.0;
    }
    acc - cnt * v_full[k]
}

/// FHN derivative for the local slice, given the full potential vector.
fn derivs(
    v_full: &[f64],
    v: &[f64],
    w: &[f64],
    m: usize,
    lo: usize,
    dv: &mut [f64],
    dw: &mut [f64],
) {
    for (idx, ((&vi, &wi), (dvi, dwi))) in v
        .iter()
        .zip(w)
        .zip(dv.iter_mut().zip(dw.iter_mut()))
        .enumerate()
    {
        let k = lo + idx;
        *dvi = vi - vi * vi * vi / 3.0 - wi
            + I_EXT
            + COUPLING * neighbor_sum(v_full, m, k);
        *dwi = EPS * (vi + A - B * wi);
    }
}

impl C3App for Neurosys {
    type State = NeuroState;
    type Output = u64;

    fn init(&self, p: &mut Process<'_>) -> C3Result<NeuroState> {
        let total = self.m * self.m;
        let (lo, hi) = block_range(total, p.size(), p.rank());
        // Deterministic mixed initial conditions.
        let v: Vec<f64> = (lo..hi)
            .map(|k| -1.0 + 2.0 * ((k * 2_654_435_761) % 1000) as f64 / 1000.0)
            .collect();
        let w = vec![0.0; hi - lo];
        Ok(NeuroState { iter: 0, v, w })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut NeuroState) -> C3Result<u64> {
        let world = p.world();
        let m = self.m;
        let total = m * m;
        let (lo, hi) = block_range(total, p.size(), p.rank());
        let local = hi - lo;
        debug_assert_eq!(s.v.len(), local);
        let dt = self.dt;

        let mut k1v = vec![0.0; local];
        let mut k1w = vec![0.0; local];
        let mut k2v = vec![0.0; local];
        let mut k2w = vec![0.0; local];
        let mut k3v = vec![0.0; local];
        let mut k3w = vec![0.0; local];
        let mut k4v = vec![0.0; local];
        let mut k4w = vec![0.0; local];
        let mut tv = vec![0.0; local];
        let mut tw = vec![0.0; local];

        while s.iter < self.iters {
            // Four RK stages, each needing the full potential vector:
            // allgathers #1-#4.
            let v_full = p.allgather_flat_t::<f64>(world, &s.v)?;
            derivs(&v_full, &s.v, &s.w, m, lo, &mut k1v, &mut k1w);

            for i in 0..local {
                tv[i] = s.v[i] + 0.5 * dt * k1v[i];
                tw[i] = s.w[i] + 0.5 * dt * k1w[i];
            }
            let v_full = p.allgather_flat_t::<f64>(world, &tv)?;
            derivs(&v_full, &tv, &tw, m, lo, &mut k2v, &mut k2w);

            for i in 0..local {
                tv[i] = s.v[i] + 0.5 * dt * k2v[i];
                tw[i] = s.w[i] + 0.5 * dt * k2w[i];
            }
            let v_full = p.allgather_flat_t::<f64>(world, &tv)?;
            derivs(&v_full, &tv, &tw, m, lo, &mut k3v, &mut k3w);

            for i in 0..local {
                tv[i] = s.v[i] + dt * k3v[i];
                tw[i] = s.w[i] + dt * k3w[i];
            }
            let v_full = p.allgather_flat_t::<f64>(world, &tv)?;
            derivs(&v_full, &tv, &tw, m, lo, &mut k4v, &mut k4w);

            for i in 0..local {
                s.v[i] +=
                    dt / 6.0 * (k1v[i] + 2.0 * k2v[i] + 2.0 * k3v[i] + k4v[i]);
                s.w[i] +=
                    dt / 6.0 * (k1w[i] + 2.0 * k2w[i] + 2.0 * k3w[i] + k4w[i]);
            }

            // Allgather #5: publish committed potentials (a global
            // observable everyone keeps).
            let committed = p.allgather_flat_t::<f64>(world, &s.v)?;
            let mean: f64 =
                committed.iter().sum::<f64>() / committed.len() as f64;

            // Gather #1: per-rank activity summary to rank 0 (the paper's
            // output-recording gather).
            let activity = [s.v.iter().map(|x| x.abs()).sum::<f64>(), mean];
            let _ = p.gather_t::<f64>(world, 0, &activity)?;

            s.iter += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(digest_f64(&s.v) ^ digest_f64(&s.w).rotate_left(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_sum_interior_and_corner() {
        let m = 3;
        let v: Vec<f64> = (0..9).map(|k| k as f64).collect();
        // Center cell 4: neighbors 1,3,5,7 sum=16, minus 4*4 = 0.
        assert_eq!(neighbor_sum(&v, m, 4), 0.0);
        // Corner cell 0: neighbors 1,3 sum=4, minus 2*0 = 4.
        assert_eq!(neighbor_sum(&v, m, 0), 4.0);
    }

    #[test]
    fn derivative_is_finite_and_coupled() {
        let m = 2;
        let v_full = vec![0.1, -0.2, 0.3, 0.0];
        let v = v_full.clone();
        let w = vec![0.0; 4];
        let mut dv = vec![0.0; 4];
        let mut dw = vec![0.0; 4];
        derivs(&v_full, &v, &w, m, 0, &mut dv, &mut dw);
        assert!(dv.iter().all(|x| x.is_finite()));
        assert!(dw.iter().all(|x| x.is_finite()));
        // Coupling pulls neuron 0 toward its neighbors' mean.
        assert!(dv[0] > v[0] - v[0] * v[0] * v[0] / 3.0 - w[0] + I_EXT - 1.0);
    }

    #[test]
    fn state_bytes_scale_with_network_size() {
        let a = Neurosys::new(16, 1).state_bytes_per_rank(4);
        let b = Neurosys::new(32, 1).state_bytes_per_rank(4);
        assert!(b > 3 * a);
    }
}

//! Small dense linear-algebra helpers shared by the applications.

/// Deterministic SPD test matrix entry: strongly diagonally dominant with
/// smooth off-diagonal decay, so CG converges steadily at every size.
pub fn spd_entry(n: usize, i: usize, j: usize) -> f64 {
    let base = 1.0 / (1.0 + i.abs_diff(j) as f64);
    if i == j {
        n as f64 + base
    } else {
        base
    }
}

/// Dense row-block × vector product: `y = A[lo..hi) · x`.
///
/// `block` is stored row-major with `n` columns, rows `lo..hi`.
pub fn block_matvec(block: &[f64], n: usize, x: &[f64], y: &mut [f64]) {
    let rows = block.len() / n;
    assert_eq!(block.len(), rows * n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), rows);
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &block[r * n..(r + 1) * n];
        // One scalar accumulator, summed strictly left to right: the
        // compiler may not reassociate an `f64` reduction, so this loop
        // is not vectorized. Every reference digest depends on that
        // summation order; a faster kernel would change them all.
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(x.iter()) {
            acc += a * b;
        }
        *yr = acc;
    }
}

/// Local dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y`.
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi + beta * *yi;
    }
}

/// Split `n` items over `size` ranks: returns `(lo, hi)` for `rank`,
/// distributing the remainder to the lowest ranks.
pub fn block_range(n: usize, size: usize, rank: usize) -> (usize, usize) {
    let base = n / size;
    let rem = n % size;
    let lo = rank * base + rank.min(rem);
    let hi = lo + base + usize::from(rank < rem);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_matrix_is_symmetric_and_dominant() {
        let n = 8;
        for i in 0..n {
            let mut off = 0.0;
            for j in 0..n {
                assert_eq!(spd_entry(n, i, j), spd_entry(n, j, i));
                if i != j {
                    off += spd_entry(n, i, j).abs();
                }
            }
            assert!(spd_entry(n, i, i) > off, "row {i} not dominant");
        }
    }

    #[test]
    fn block_matvec_matches_full_matvec() {
        let n = 6;
        let full: Vec<f64> =
            (0..n * n).map(|k| spd_entry(n, k / n, k % n)).collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut y_full = vec![0.0; n];
        block_matvec(&full, n, &x, &mut y_full);

        // Same computation in two blocks.
        let mut y = vec![0.0; n];
        for (lo, hi) in [(0, 4), (4, 6)] {
            block_matvec(&full[lo * n..hi * n], n, &x, &mut y[lo..hi]);
        }
        assert_eq!(y, y_full);
    }

    #[test]
    fn vector_kernels() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, -5.0, 6.0];
        assert_eq!(dot(&a, &b), 4.0 - 10.0 + 18.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
        let mut y2 = [1.0, 1.0, 1.0];
        xpby(&a, 0.5, &mut y2);
        assert_eq!(y2, [1.5, 2.5, 3.5]);
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for n in [1usize, 7, 16, 100] {
            for size in [1usize, 2, 3, 5, 16] {
                let mut covered = 0;
                for rank in 0..size {
                    let (lo, hi) = block_range(n, size, rank);
                    assert_eq!(lo, covered);
                    covered = hi;
                    assert!(hi >= lo);
                }
                assert_eq!(covered, n);
            }
        }
    }
}

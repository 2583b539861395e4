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

/// Rows [`block_matvec`] carries side by side.
const R: usize = 8;

/// One row's dot product with `x`: one accumulator, summed strictly left
/// to right. Every reference digest depends on this order within a row.
fn row_dot(row: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in row.iter().zip(x) {
        acc += a * b;
    }
    acc
}

/// Dense row-block × vector product: `y = A[lo..hi) · x`.
///
/// `block` is stored row-major with `n` columns, rows `lo..hi`.
///
/// The compiler may not reassociate an `f64` reduction, so a row's sum
/// is a chain of dependent adds and one row at a time runs at add
/// latency. Rows are independent of each other: [`R`] of them advance
/// together, each with its own accumulator in [`row_dot`]'s order, so
/// every `y[r]` keeps its bits while the chains overlap and `x[j]` is
/// loaded once per `R` rows. The `rows % R` tail is `row_dot` itself.
///
/// Out of line, like `laplace::sweep`: the job spends its time here and
/// the code should not move with its caller's.
#[inline(never)]
pub fn block_matvec(block: &[f64], n: usize, x: &[f64], y: &mut [f64]) {
    let rows = block.len() / n;
    assert_eq!(block.len(), rows * n);
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), rows);
    let mut bands = block.chunks_exact(R * n);
    let mut ys = y.chunks_exact_mut(R);
    for (band, yb) in bands.by_ref().zip(ys.by_ref()) {
        let rows: [&[f64]; R] = std::array::from_fn(|k| &band[k * n..][..n]);
        let mut acc = [0.0; R];
        for (j, &xj) in x.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(rows) {
                *a += row[j] * xj;
            }
        }
        yb.copy_from_slice(&acc);
    }
    let tail = bands.remainder().chunks_exact(n);
    for (row, yr) in tail.zip(ys.into_remainder()) {
        *yr = row_dot(row, x);
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
    fn blocked_matvec_is_the_scalar_matvec_bit_for_bit() {
        // Magnitudes 1e-150..1e150 on both sides (products 1e-300..1e300,
        // sums below overflow), both signs, with `-0.0`, subnormals and
        // the smallest normal mixed in: a sum taken in any other order,
        // or split over two accumulators, rounds differently somewhere.
        const SPECIAL: [f64; 6] =
            [-0.0, 0.0, 5e-324, -3e-320, f64::MIN_POSITIVE, -1.0];
        let mut seed = 0x5eed_b10c_ed00_0001u64;
        let mut value = move || {
            let z = ckptstore::splitmix64(&mut seed);
            if z.is_multiple_of(16) {
                return SPECIAL[(z >> 8) as usize % SPECIAL.len()];
            }
            let mantissa = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            mantissa * 10f64.powi((z % 301) as i32 - 150)
        };
        for rows in [0, 1, R - 1, R, R + 1, 2 * R + 3] {
            for n in [1usize, 2, 7, 64, 1000] {
                let block: Vec<f64> = (0..rows * n).map(|_| value()).collect();
                let x: Vec<f64> = (0..n).map(|_| value()).collect();
                let mut y = vec![1.0; rows];
                block_matvec(&block, n, &x, &mut y);
                // The kernel as it was: one row, one accumulator, left
                // to right.
                for (r, yr) in y.iter().enumerate() {
                    let mut acc = 0.0;
                    for j in 0..n {
                        acc += block[r * n + j] * x[j];
                    }
                    assert!(acc.is_finite());
                    assert_eq!(
                        yr.to_bits(),
                        acc.to_bits(),
                        "row {r} of {rows}, n={n}: {yr:e} vs {acc:e}"
                    );
                }
            }
        }
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

//! Order statistics for small samples: median, quartiles and the
//! highest percentile that still has ten samples beyond it.

/// Median and quartiles of one sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles by the exclusive method, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the acceptance
/// check on this benchmark's spread uses that function). A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Exact integer position arithmetic; `delta` may exceed 4 or go
        // negative at the clamped ends, which extrapolates like Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Arithmetic mean of `values`; `None` when empty. For counts that take
/// one of a few values from job to job (bytes stored), where a median
/// would flip between the modes.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty())
        .then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Median, quartiles and count; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let (q1, _, q3) = quartiles(values)?;
    Some(Summary {
        median: median(values)?,
        q1,
        q3,
        n: values.len(),
    })
}

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, and its value (nearest rank). `None` below 40 samples, where only
/// the median and quartiles are reported.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    LADDER.iter().rev().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn mean_of_some_and_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: p75 would leave only 9 beyond it.
        assert_eq!(tail_percentile(&sample(39)), None);
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(tail_percentile(&sample(40)), Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90, exactly ten beyond; p95 leaves 5.
        assert_eq!(tail_percentile(&sample(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves ten beyond; p99.9 leaves one.
        assert_eq!(tail_percentile(&sample(1000)), Some((99.0, 990.0)));
    }
}

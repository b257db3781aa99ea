//! Statistics utilities for the characterization and channel evaluation:
//! sample summaries, confusion matrices and bit-error rates (Figure 14).
//!
//! [`summarize_samples`] is the one estimator every per-run distribution
//! goes through: the `*_cells.csv` cell rows, the figure summaries and
//! `analysis.jsonl`.
//! Percentiles are **nearest-rank** (`rank(p) = ⌈p/100·n⌉`, 1-based) and
//! the standard deviation is the sample (n−1) form. Bad input is a typed
//! [`StatsError`], so streaming consumers can reject a poisoned series
//! without unwinding.

/// Why a sample series cannot be summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// The series is empty.
    Empty,
    /// The series contains a NaN or infinity at the given index.
    NonFinite {
        /// Index of the first non-finite sample.
        index: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples to summarize"),
            StatsError::NonFinite { index } => {
                write!(f, "non-finite sample at index {index}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Summary statistics of one finite sample series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; `0` for n < 2).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

/// Nearest-rank percentile of an ascending-sorted series:
/// `sorted[⌈p/100·n⌉ - 1]`, clamped to the series.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples to summarize");
    let idx = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// Summarizes a sample series: mean, sample standard deviation,
/// min/median/p95/max with nearest-rank percentiles.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] for an empty series and
/// [`StatsError::NonFinite`] if any sample is NaN or infinite — a
/// NaN would silently poison every moment, so it is rejected rather
/// than propagated.
pub fn summarize_samples(samples: &[f64]) -> Result<Stats, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    if let Some(index) = samples.iter().position(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite { index });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let variance = if n < 2 {
        0.0
    } else {
        sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
    };
    Ok(Stats {
        n,
        mean,
        std_dev: variance.sqrt(),
        min: sorted[0],
        median: percentile_nearest_rank(&sorted, 50.0),
        p95: percentile_nearest_rank(&sorted, 95.0),
        max: sorted[n - 1],
    })
}

/// Smallest gap between adjacent values once sorted: the minimum level
/// separation of a channel's calibrated means, which the paper reports
/// above 2 000 TSC cycles on a low-noise system (§6.3). `f64::INFINITY`
/// for fewer than two values.
pub fn min_separation(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min)
}

/// A square confusion matrix over `k` symbol classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<u64>, // row-major: [sent][received]
}

impl ConfusionMatrix {
    /// Creates an empty `k × k` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "confusion matrix needs at least one class");
        ConfusionMatrix {
            k,
            counts: vec![0; k * k],
        }
    }

    /// Records one (sent, received) observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, sent: usize, received: usize) {
        assert!(sent < self.k && received < self.k, "class out of range");
        self.counts[sent * self.k + received] += 1;
    }

    /// Count for a (sent, received) cell.
    pub fn count(&self, sent: usize, received: usize) -> u64 {
        self.counts[sent * self.k + received]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Symbol error rate: fraction of off-diagonal observations.
    pub fn symbol_error_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.k).map(|i| self.count(i, i)).sum();
        (total - correct) as f64 / total as f64
    }

    /// Bit error rate for a 2-bit symbol mapping (symbols 0..4 encode the
    /// bit pairs 00/01/10/11): average fraction of wrong *bits*.
    ///
    /// # Panics
    ///
    /// Panics unless the matrix has exactly 4 classes.
    pub fn bit_error_rate_2bit(&self) -> f64 {
        assert_eq!(self.k, 4, "2-bit BER requires 4 symbol classes");
        let total_bits = self.total() * 2;
        if total_bits == 0 {
            return 0.0;
        }
        let mut wrong_bits = 0u64;
        for s in 0..4 {
            for r in 0..4 {
                let diff = u64::from(((s ^ r) as u32).count_ones());
                wrong_bits += diff * self.count(s, r);
            }
        }
        wrong_bits as f64 / total_bits as f64
    }

    /// Shannon capacity (bits/symbol) of the discrete memoryless channel
    /// estimated from the matrix, assuming uniform inputs: the mutual
    /// information `I(X;Y)`.
    fn mutual_information_bits(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let n = total as f64;
        // Joint p(x,y), marginals p(x), p(y).
        let mut px = vec![0.0; self.k];
        let mut py = vec![0.0; self.k];
        for (x, px_x) in px.iter_mut().enumerate() {
            for (y, py_y) in py.iter_mut().enumerate() {
                let p = self.count(x, y) as f64 / n;
                *px_x += p;
                *py_y += p;
            }
        }
        let mut mi = 0.0;
        for (x, &px_x) in px.iter().enumerate() {
            for (y, &py_y) in py.iter().enumerate() {
                let pxy = self.count(x, y) as f64 / n;
                if pxy > 0.0 && px_x > 0.0 && py_y > 0.0 {
                    mi += pxy * (pxy / (px_x * py_y)).log2();
                }
            }
        }
        mi.max(0.0)
    }

    /// Miller–Madow bias-corrected mutual information (bits/symbol).
    ///
    /// The naive plug-in MI estimate is biased upward by roughly
    /// `(m − r − c + 1) / (2N ln 2)` where `m`, `r`, `c` are the counts
    /// of non-zero joint/row/column cells — significant for small sample
    /// counts. This matters when deciding that a *mitigated* channel
    /// really carries (close to) zero information.
    pub fn mutual_information_bits_corrected(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        let mut nonzero_joint = 0i64;
        let mut row_nonzero = 0i64;
        let mut col_nonzero = 0i64;
        for x in 0..self.k {
            if (0..self.k).any(|y| self.count(x, y) > 0) {
                row_nonzero += 1;
            }
            if (0..self.k).any(|y| self.count(y, x) > 0) {
                col_nonzero += 1;
            }
            for y in 0..self.k {
                if self.count(x, y) > 0 {
                    nonzero_joint += 1;
                }
            }
        }
        let bias_terms = (nonzero_joint - row_nonzero - col_nonzero + 1).max(0) as f64;
        let bias = bias_terms / (2.0 * n as f64 * std::f64::consts::LN_2);
        (self.mutual_information_bits() - bias).max(0.0)
    }
}

/// Counts distinct "levels" among values: greedy clustering with the
/// given separation tolerance. Used to verify the "at least five
/// throttling levels" claim (Key Conclusion 4).
pub fn distinct_levels(values: &[f64], tolerance: f64) -> usize {
    let mut out: Vec<f64> = Vec::new();
    for &v in values {
        if !out.iter().any(|c| (c - v).abs() <= tolerance) {
            out.push(v);
        }
    }
    out.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_basics() {
        let s = summarize_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - 1.2909944487358056).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn percentile_takes_nearest_rank() {
        // No interpolation: an even-sized series has the lower middle
        // sample as its median.
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_nearest_rank(&v, 0.0), 10.0);
        assert_eq!(percentile_nearest_rank(&v, 100.0), 40.0);
        assert_eq!(percentile_nearest_rank(&v, 50.0), 20.0);
        assert_eq!(percentile_nearest_rank(&v, 51.0), 30.0);
    }

    #[test]
    fn min_separation_is_the_smallest_adjacent_gap() {
        assert_eq!(min_separation(&[9.0, 1.0, 4.0, 6.0]), 2.0);
        assert_eq!(min_separation(&[5.0]), f64::INFINITY);
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        assert_eq!(summarize_samples(&[]), Err(StatsError::Empty));
        assert_eq!(StatsError::Empty.to_string(), "no samples to summarize");
    }

    #[test]
    fn single_sample_degenerates_cleanly() {
        let s = summarize_samples(&[7.0]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn constant_series_has_zero_spread() {
        let s = summarize_samples(&[3.25; 9]).unwrap();
        assert_eq!(s.n, 9);
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!((s.min, s.median, s.p95, s.max), (3.25, 3.25, 3.25, 3.25));
    }

    #[test]
    fn nan_and_infinity_are_rejected_with_position() {
        assert_eq!(
            summarize_samples(&[1.0, f64::NAN, 2.0]),
            Err(StatsError::NonFinite { index: 1 })
        );
        assert_eq!(
            summarize_samples(&[f64::INFINITY]),
            Err(StatsError::NonFinite { index: 0 })
        );
        assert_eq!(
            summarize_samples(&[0.0, 1.0, f64::NEG_INFINITY]),
            Err(StatsError::NonFinite { index: 2 })
        );
    }

    #[test]
    fn matches_the_historical_bench_convention() {
        // 1..=20: mean 10.5, nearest-rank median 10, p95 19, sample
        // stddev √35.
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize_samples(&samples).unwrap();
        assert_eq!(s.mean, 10.5);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.p95, 19.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 20.0);
        assert!((s.std_dev - 35.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn order_does_not_matter() {
        let a = summarize_samples(&[5.0, 1.0, 3.0]).unwrap();
        let b = summarize_samples(&[3.0, 5.0, 1.0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.median, 3.0);
    }

    #[test]
    fn confusion_ber() {
        let mut m = ConfusionMatrix::new(4);
        // 3 correct, 1 error of Hamming distance 2 (00 → 11).
        m.record(0, 0);
        m.record(1, 1);
        m.record(2, 2);
        m.record(0, 3);
        assert!((m.symbol_error_rate() - 0.25).abs() < 1e-12);
        assert!((m.bit_error_rate_2bit() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perfect_channel_has_two_bits_of_mi() {
        let mut m = ConfusionMatrix::new(4);
        for s in 0..4 {
            for _ in 0..100 {
                m.record(s, s);
            }
        }
        assert!((m.mutual_information_bits() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn useless_channel_has_zero_mi() {
        let mut m = ConfusionMatrix::new(4);
        for s in 0..4 {
            for r in 0..4 {
                for _ in 0..25 {
                    m.record(s, r);
                }
            }
        }
        assert!(m.mutual_information_bits() < 1e-9);
    }

    #[test]
    fn corrected_mi_removes_small_sample_bias() {
        // Independent sender/receiver over few samples: naive MI is
        // biased upward, the corrected estimate stays near zero.
        let mut m = ConfusionMatrix::new(4);
        let pattern = [0usize, 1, 2, 3, 1, 3, 0, 2];
        for (i, &r) in pattern.iter().enumerate() {
            m.record(i % 4, r);
        }
        assert!(m.mutual_information_bits() > 0.2);
        assert!(m.mutual_information_bits_corrected() < m.mutual_information_bits());
        // And a perfect channel is not penalized.
        let mut p = ConfusionMatrix::new(4);
        for s in 0..4 {
            for _ in 0..10 {
                p.record(s, s);
            }
        }
        assert!((p.mutual_information_bits_corrected() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_levels_counts() {
        let vals = [1.0, 1.05, 3.0, 3.02, 5.0, 9.0, 9.1];
        assert_eq!(distinct_levels(&vals, 0.2), 4);
        assert_eq!(distinct_levels(&vals, 10.0), 1);
    }

    proptest! {
        #[test]
        fn ber_in_unit_interval(obs in proptest::collection::vec((0usize..4, 0usize..4), 1..200)) {
            let mut m = ConfusionMatrix::new(4);
            for (s, r) in obs {
                m.record(s, r);
            }
            let ber = m.bit_error_rate_2bit();
            prop_assert!((0.0..=1.0).contains(&ber));
            let ser = m.symbol_error_rate();
            prop_assert!((0.0..=1.0).contains(&ser));
            // SER bounds BER for 2-bit symbols: BER ≤ SER ≤ 2·BER.
            prop_assert!(ber <= ser + 1e-12);
            prop_assert!(ser <= 2.0 * ber + 1e-12);
        }

        #[test]
        fn mi_bounded_by_two_bits(obs in proptest::collection::vec((0usize..4, 0usize..4), 1..200)) {
            let mut m = ConfusionMatrix::new(4);
            for (s, r) in obs {
                m.record(s, r);
            }
            let mi = m.mutual_information_bits();
            prop_assert!((0.0..=2.0 + 1e-9).contains(&mi));
        }

        #[test]
        fn percentile_monotone(vals in proptest::collection::vec(-100.0f64..100.0, 2..50), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            let mut vals = vals;
            vals.sort_by(f64::total_cmp);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile_nearest_rank(&vals, lo) <= percentile_nearest_rank(&vals, hi));
        }
    }
}

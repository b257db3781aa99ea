//! Statistics utilities for the characterization and channel evaluation:
//! summaries, percentiles, confusion matrices and bit-error rates
//! (Figure 14).

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

/// Computes summary statistics.
///
/// # Panics
///
/// Panics on an empty slice or non-finite values.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarize an empty sample");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "non-finite value in sample"
    );
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    }
}

/// Linear-interpolation percentile (`p` ∈ [0, 100]).
///
/// # Panics
///
/// Panics on an empty slice or `p` outside [0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let t = rank - lo as f64;
        v[lo] * (1.0 - t) + v[hi] * t
    }
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
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - 1.2909944487358056).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
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
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&vals, lo) <= percentile(&vals, hi) + 1e-12);
        }
    }
}

//! Shannon capacity estimates from pooled error rates.
//!
//! Per-trial rows carry error *rates*, not the per-symbol
//! transmit/receive pairs a direct fig14-style confusion matrix needs,
//! so the estimator reconstructs the matrix a measured rate implies
//! under the symmetric-channel model and takes its mutual information:
//!
//! * **2-bit channels** (the paper's four-level modulation): a bit
//!   error rate `p` with independent bit flips implies the 4×4
//!   transition matrix `P(i→j) = p^d (1−p)^(2−d)` over the Hamming
//!   distance `d` of the 2-bit symbol labels; its uniform-input mutual
//!   information collapses to `2·(1 − H₂(p))` bits/symbol.
//! * **k-level alphabets** (the `-L6`/`-L7` extension channels): a
//!   symbol error rate `s` with errors spread uniformly over the k−1
//!   wrong symbols implies the k-ary symmetric matrix, giving
//!   `log₂k − H₂(s) − s·log₂(k−1)` bits/symbol.
//!
//! These are *model* capacities — what the measured error rate supports
//! if errors are symmetric — and sit alongside the measured per-trial
//! `capacity_bps` (bias-corrected MI × symbol rate), which needs no
//! model but is only available trial by trial. `docs/METHODOLOGY.md`
//! derives both.

/// Binary entropy `H₂(p)` in bits; `0` at `p ∈ {0, 1}`, `NaN` outside
/// `[0, 1]` or for a NaN input.
fn binary_entropy(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Model capacity (bits/symbol) of the paper's 2-bit modulation at bit
/// error rate `ber`: the mutual information of the 4×4 transition
/// matrix that `ber` implies under independent, symmetric bit flips,
/// which equals `2·(1 − H₂(ber))`.
/// `NaN` outside `[0, 1]`.
pub fn capacity_bits_2bit_from_ber(ber: f64) -> f64 {
    if !(0.0..=1.0).contains(&ber) {
        return f64::NAN;
    }
    2.0 * (1.0 - binary_entropy(ber))
}

/// Model capacity (bits/symbol) of a k-level alphabet at symbol error
/// rate `ser` under the k-ary symmetric channel:
/// `log₂k − H₂(ser) − ser·log₂(k−1)` — the exact uniform-input mutual
/// information of that channel, which is non-negative everywhere and
/// zero only at the uniform-output point `ser = (k−1)/k` (the `max`
/// guards against floating-point dust there). `NaN` for `k < 2` or
/// `ser` outside `[0, 1]`.
pub fn capacity_bits_kary_from_ser(ser: f64, k: usize) -> f64 {
    if k < 2 || !(0.0..=1.0).contains(&ser) {
        return f64::NAN;
    }
    let k_f = k as f64;
    (k_f.log2() - binary_entropy(ser) - ser * (k_f - 1.0).log2()).max(0.0)
}

/// Alphabet size encoded in a channel label: the `-L<k>` suffix of the
/// multi-level channels (`IccThreadCovert-L6` → 6). `None` for the
/// 2-bit channels, baselines, and probes.
pub fn alphabet_size(channel_label: &str) -> Option<usize> {
    let (_, suffix) = channel_label.rsplit_once("-L")?;
    suffix.parse().ok().filter(|&k| k >= 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference implementations the closed-form capacity is checked
    // against: the matrix a measured BER implies, and its mutual
    // information.

    /// The 4×4 transition matrix a bit error rate implies under
    /// independent, symmetric bit flips: `P(i→j) = p^d (1−p)^(2−d)` with
    /// `d` the Hamming distance between the 2-bit labels of `i` and `j` —
    /// the matrix a fig14 error-matrix plot of such a channel would show.
    fn implied_confusion_2bit(ber: f64) -> [[f64; 4]; 4] {
        let mut m = [[f64::NAN; 4]; 4];
        if !(0.0..=1.0).contains(&ber) {
            return m;
        }
        for (tx, row) in m.iter_mut().enumerate() {
            for (rx, cell) in row.iter_mut().enumerate() {
                let d = ((tx ^ rx) as u32).count_ones();
                *cell = ber.powi(d as i32) * (1.0 - ber).powi(2 - d as i32);
            }
        }
        m
    }

    /// Mutual information (bits) of a row-stochastic transition matrix
    /// under uniform inputs: `I(X;Y)` of the joint `p(i,j) = P(i→j)/k`.
    /// Returns `NaN` for an empty or non-finite matrix.
    fn transition_mutual_information_bits(transition: &[Vec<f64>]) -> f64 {
        let k = transition.len();
        if k == 0 {
            return f64::NAN;
        }
        let p_in = 1.0 / k as f64;
        // Output marginals under uniform inputs.
        let mut p_out = vec![0.0f64; transition.iter().map(Vec::len).max().unwrap_or(0)];
        for row in transition {
            for (j, &p) in row.iter().enumerate() {
                if !p.is_finite() {
                    return f64::NAN;
                }
                p_out[j] += p * p_in;
            }
        }
        let mut mi = 0.0;
        for row in transition {
            for (j, &p) in row.iter().enumerate() {
                let joint = p * p_in;
                if joint > 0.0 {
                    mi += joint * (joint / (p_in * p_out[j])).log2();
                }
            }
        }
        mi
    }

    #[test]
    fn binary_entropy_endpoints_and_peak() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(-0.1).is_nan());
        assert!(binary_entropy(f64::NAN).is_nan());
    }

    #[test]
    fn implied_matrix_rows_are_stochastic() {
        let m = implied_confusion_2bit(0.07);
        for row in &m {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row sums to {sum}");
        }
        // Diagonal dominates at a small BER; double flips are rarest.
        assert!(m[0][0] > m[0][1] && m[0][1] > m[0][3]);
        assert!((m[0][3] - 0.07 * 0.07).abs() < 1e-12);
    }

    #[test]
    fn matrix_mi_matches_the_closed_form() {
        for ber in [0.0, 0.01, 0.07, 0.19, 0.5] {
            let m = implied_confusion_2bit(ber);
            let rows: Vec<Vec<f64>> = m.iter().map(|r| r.to_vec()).collect();
            let mi = transition_mutual_information_bits(&rows);
            let closed = capacity_bits_2bit_from_ber(ber);
            assert!(
                (mi - closed).abs() < 1e-9,
                "ber {ber}: matrix MI {mi} vs closed form {closed}"
            );
        }
    }

    #[test]
    fn capacity_endpoints() {
        assert_eq!(capacity_bits_2bit_from_ber(0.0), 2.0);
        assert!(capacity_bits_2bit_from_ber(0.5).abs() < 1e-12);
        assert!(capacity_bits_2bit_from_ber(f64::NAN).is_nan());
        // Perfect 7-level channel carries log2(7) bits.
        assert!((capacity_bits_kary_from_ser(0.0, 7) - 7f64.log2()).abs() < 1e-12);
        // At SER = (k-1)/k (uniform output) the channel carries nothing.
        assert!(capacity_bits_kary_from_ser(6.0 / 7.0, 7).abs() < 1e-12);
        // Beyond the uniform-output point the symmetric-channel MI
        // rises again (errors become informative), so it stays >= 0.
        assert!(capacity_bits_kary_from_ser(0.95, 7) > 0.0);
        assert!(capacity_bits_kary_from_ser(0.1, 1).is_nan());
    }

    #[test]
    fn alphabet_sizes_parse_from_labels() {
        assert_eq!(alphabet_size("IccThreadCovert-L6"), Some(6));
        assert_eq!(alphabet_size("IccCoresCovert-L7"), Some(7));
        assert_eq!(alphabet_size("IccThreadCovert-L4"), Some(4));
        assert_eq!(alphabet_size("IccThreadCovert"), None);
        assert_eq!(alphabet_size("turbo_ratio_baseline"), None);
        assert_eq!(alphabet_size("x-L1"), None);
    }
}

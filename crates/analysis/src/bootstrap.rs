//! Seeded percentile-bootstrap confidence intervals.
//!
//! The campaign engine's reproducibility contract extends to its
//! statistics: every resample is drawn from a [`SmallRng`] seeded by
//! `seed ^ fnv1a(label)`, so the interval for a cell depends only on
//! the analysis seed, the cell's label, and its sample values — never
//! on processing order, thread count, or which shard the rows came
//! from.
//!
//! A sample set whose values all share one bit pattern (BER 0 in a
//! quiet cell) has one possible resample mean, so its interval is that
//! mean, found without drawing; the bits are the same as resampling's.

use ichannels_meter::stats::percentile_nearest_rank;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64-bit hash — the same construction the campaign engine uses
/// to derive per-trial seeds from cell keys, reused here to give every
/// cell an independent, order-free bootstrap stream.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A two-sided percentile-bootstrap confidence interval on a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Lower bound (the `α/2` percentile of the resampled means).
    pub lo: f64,
    /// Upper bound (the `1 − α/2` percentile of the resampled means).
    pub hi: f64,
    /// Number of bootstrap resamples drawn.
    pub resamples: usize,
}

/// Percentile-bootstrap CI on the mean of `samples` at confidence
/// `1 − alpha`: draws `resamples` with-replacement resamples from a
/// generator seeded by `seed ^ fnv1a(label)` and takes nearest-rank
/// percentiles of the resampled means.
///
/// Returns `None` when `samples` is empty or `resamples` is zero; a
/// single sample yields the degenerate interval `[x, x]`.
pub fn bootstrap_mean_ci(
    label: &str,
    samples: &[f64],
    resamples: usize,
    seed: u64,
    alpha: f64,
) -> Option<BootstrapCi> {
    if samples.is_empty() || resamples == 0 {
        return None;
    }
    let n = samples.len();
    let first = samples[0].to_bits();
    if samples.iter().all(|v| v.to_bits() == first) {
        // Every resample is `n` copies of one value, summed in draw
        // order from `-0.0` as `Sum` does — the very sum of `samples`.
        let mean = samples.iter().sum::<f64>() / n as f64;
        return Some(BootstrapCi {
            lo: mean,
            hi: mean,
            resamples,
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a(label.as_bytes()));
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let sum: f64 = (0..n).map(|_| samples[rng.gen_range(0..n)]).sum();
        means.push(sum / n as f64);
    }
    means.sort_unstable_by(f64::total_cmp);
    Some(BootstrapCi {
        lo: percentile_nearest_rank(&means, 100.0 * alpha / 2.0),
        hi: percentile_nearest_rank(&means, 100.0 * (1.0 - alpha / 2.0)),
        resamples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_label_and_seed() {
        let samples = [0.1, 0.2, 0.05, 0.3, 0.15];
        let a = bootstrap_mean_ci("cell_a", &samples, 200, 42, 0.05).unwrap();
        let b = bootstrap_mean_ci("cell_a", &samples, 200, 42, 0.05).unwrap();
        assert_eq!(a, b);
        // A different label draws an independent stream.
        let c = bootstrap_mean_ci("cell_b", &samples, 200, 42, 0.05).unwrap();
        assert_ne!((a.lo, a.hi), (c.lo, c.hi));
        // And a different seed moves the interval too.
        let d = bootstrap_mean_ci("cell_a", &samples, 200, 43, 0.05).unwrap();
        assert_ne!((a.lo, a.hi), (d.lo, d.hi));
    }

    #[test]
    fn interval_brackets_the_mean() {
        let samples = [0.1, 0.2, 0.05, 0.3, 0.15, 0.12, 0.18, 0.25];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let ci = bootstrap_mean_ci("cell", &samples, 500, 7, 0.05).unwrap();
        assert!(ci.lo <= mean && mean <= ci.hi, "{ci:?} vs mean {mean}");
        assert!(ci.lo >= 0.05 && ci.hi <= 0.3);
        assert_eq!(ci.resamples, 500);
    }

    /// The interval as drawn before the constant-sample shortcut:
    /// `gen_range` per draw, whatever the samples.
    fn resampled(samples: &[f64], resamples: usize, seed: u64) -> BootstrapCi {
        let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a(b"cell"));
        let mut means: Vec<f64> = (0..resamples)
            .map(|_| {
                let sum: f64 = (0..samples.len())
                    .map(|_| samples[rng.gen_range(0..samples.len())])
                    .sum();
                sum / samples.len() as f64
            })
            .collect();
        means.sort_unstable_by(f64::total_cmp);
        BootstrapCi {
            lo: percentile_nearest_rank(&means, 2.5),
            hi: percentile_nearest_rank(&means, 97.5),
            resamples,
        }
    }

    #[test]
    fn constant_samples_match_resampling_bit_for_bit() {
        let bits = |ci: BootstrapCi| (ci.lo.to_bits(), ci.hi.to_bits(), ci.resamples);
        for samples in [
            vec![0.0; 9],
            vec![-0.0; 4],
            vec![-0.0],
            vec![0.1],
            vec![0.1; 7],
            vec![1e300; 3],
            vec![0.0, -0.0, 0.0],
            vec![0.1, 0.2, 0.05, 0.3, 0.15],
            (0..97).map(|i| f64::from(i % 5) / 3.0).collect(),
        ] {
            for seed in [0, 7, u64::MAX] {
                let fast = bootstrap_mean_ci("cell", &samples, 300, seed, 0.05).unwrap();
                assert_eq!(
                    bits(fast),
                    bits(resampled(&samples, 300, seed)),
                    "{samples:?}"
                );
            }
        }
        // A `-0.0` sample set keeps its sign, as the resampled sums do.
        let neg = bootstrap_mean_ci("cell", &[-0.0; 3], 10, 1, 0.05).unwrap();
        assert!(neg.lo.is_sign_negative() && neg.hi.is_sign_negative());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(bootstrap_mean_ci("c", &[], 100, 0, 0.05), None);
        assert_eq!(bootstrap_mean_ci("c", &[0.5], 0, 0, 0.05), None);
        let one = bootstrap_mean_ci("c", &[0.5], 100, 0, 0.05).unwrap();
        assert_eq!((one.lo, one.hi), (0.5, 0.5));
        let constant = bootstrap_mean_ci("c", &[0.25; 6], 100, 1, 0.05).unwrap();
        assert_eq!((constant.lo, constant.hi), (0.25, 0.25));
    }
}

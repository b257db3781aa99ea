//! Offline stand-in for the subset of the `criterion` API this workspace
//! uses. The build environment has no access to crates.io, so this local
//! crate takes the `criterion` package name.
//!
//! Benchmarks run a short warm-up, then time `sample_size` batches and
//! print mean/median/stddev/p95/best per-iteration durations over the
//! batch samples. No outlier rejection, no HTML reports — just enough
//! statistics to keep `cargo bench` useful offline.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub use std::hint::black_box;

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            criterion: self,
            sample_size: None,
        }
    }

    /// Runs one benchmark function.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(name, self.sample_size, &mut f);
        self
    }
}

/// A group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let n = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_bench(name, n, &mut f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Statistics over one benchmark's timed samples: what the driver
/// prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Nearest-rank median.
    pub median: Duration,
    /// Sample standard deviation.
    pub std_dev: Duration,
    /// Nearest-rank 95th percentile.
    pub p95: Duration,
    /// Fastest sample.
    pub best: Duration,
}

/// Summarizes sample durations: mean, median, sample standard
/// deviation, 95th percentile (nearest-rank), and best.
///
/// The statistics themselves live in
/// [`ichannels_meter::stats::summarize_samples`] — the shared f64
/// core this stand-in's seed grew into — and this wrapper only maps
/// `Duration` nanoseconds through it. Order statistics (median, p95,
/// best) round-trip exactly: integer nanoseconds are lossless in f64
/// at benchmark time scales.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn summarize_samples(samples: &[Duration]) -> Stats {
    assert!(!samples.is_empty(), "no samples to summarize");
    let nanos: Vec<f64> = samples.iter().map(Duration::as_nanos_f64).collect();
    let s = ichannels_meter::stats::summarize_samples(&nanos).expect("duration samples are finite");
    let duration = |ns: f64| Duration::from_nanos(ns.round() as u64);
    Stats {
        mean: duration(s.mean),
        median: duration(s.median),
        std_dev: duration(s.std_dev),
        p95: duration(s.p95),
        best: duration(s.min),
    }
}

/// `Duration::as_nanos` as f64 (the u128 → f64 cast is lossless at
/// benchmark time scales).
trait AsNanosF64 {
    fn as_nanos_f64(&self) -> f64;
}

impl AsNanosF64 for Duration {
    fn as_nanos_f64(&self) -> f64 {
        self.as_nanos() as f64
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, samples: usize, f: &mut F) {
    // Warm-up.
    let mut bencher = Bencher {
        elapsed: Duration::ZERO,
        iters: 0,
    };
    f(&mut bencher);
    let mut iters = 0u64;
    let mut per_iter = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        if b.iters > 0 {
            per_iter.push(b.elapsed / u32::try_from(b.iters).unwrap_or(u32::MAX));
        }
        iters += b.iters;
    }
    if per_iter.is_empty() {
        println!("  {name}: no iterations recorded");
        return;
    }
    let stats = summarize_samples(&per_iter);
    println!(
        "  {name}: mean {:?}/iter, median {:?}, stddev {:?}, p95 {:?}, best {:?} \
         ({iters} iters, {} samples)",
        stats.mean,
        stats.median,
        stats.std_dev,
        stats.p95,
        stats.best,
        per_iter.len()
    );
}

/// Times closures handed to it by a benchmark function.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `f`, preventing the result from being optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        black_box(f());
        self.elapsed += start.elapsed();
        self.iters += 1;
    }
}

/// Declares a benchmark group function invoking each target.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_known_samples() {
        let us = |n: u64| Duration::from_micros(n);
        // 1..=20 µs: mean 10.5, median (nearest-rank p50) 10, p95 19.
        let samples: Vec<Duration> = (1..=20).map(us).collect();
        let stats = summarize_samples(&samples);
        assert_eq!(stats.mean, Duration::from_nanos(10_500));
        assert_eq!(stats.median, us(10));
        assert_eq!(stats.p95, us(19));
        assert_eq!(stats.best, us(1));
        // Sample stddev of 1..=20 is √35 ≈ 5.916 µs.
        let nanos = stats.std_dev.as_nanos() as f64;
        assert!((nanos - 5_916.0).abs() < 1.0, "stddev {nanos} ns");
    }

    #[test]
    fn stats_degenerate_cases() {
        let one = [Duration::from_micros(7)];
        let stats = summarize_samples(&one);
        assert_eq!(stats.mean, one[0]);
        assert_eq!(stats.median, one[0]);
        assert_eq!(stats.p95, one[0]);
        assert_eq!(stats.std_dev, Duration::ZERO);
        // Order does not matter.
        let us = |n: u64| Duration::from_micros(n);
        let shuffled = [us(5), us(1), us(3)];
        assert_eq!(summarize_samples(&shuffled).median, us(3));
        assert_eq!(summarize_samples(&shuffled).best, us(1));
    }

    #[test]
    fn bencher_records_iterations() {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        b.iter(|| std::hint::black_box(2 + 2));
        b.iter(|| std::hint::black_box(2 + 2));
        assert_eq!(b.iters, 2);
    }
}

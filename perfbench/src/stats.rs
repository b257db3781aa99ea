//! Small measurement helpers: order statistics, the outside layer
//! timers, peak RSS, and the seed mixer.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of `values` (0 for an
/// empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64 step: derives independent seeds from one workload seed.
/// The same function the lab uses for per-trial seed streams.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One outside timer: every call the benchmark made into a layer.
#[derive(Debug, Default, Clone)]
pub struct Span {
    /// Wall time of each call, in nanoseconds.
    pub samples_ns: Vec<f64>,
}

impl Span {
    /// Total time over all calls, in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.samples_ns.iter().sum()
    }
}

/// The benchmark's outside timers: wall time around the calls it makes
/// into each layer. Disabled timers run the call and record nothing, so
/// the untraced run pays one branch per call.
#[derive(Debug, Default)]
pub struct Timers {
    on: bool,
    spans: BTreeMap<&'static str, Span>,
}

impl Timers {
    /// Timers that record (`on`) or only run the calls.
    pub fn new(on: bool) -> Self {
        Timers {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording its wall time under `name` while on.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as f64;
        self.spans.entry(name).or_default().samples_ns.push(ns);
        out
    }

    /// The span recorded under `name` (empty if never called).
    pub fn span(&self, name: &str) -> Span {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// Total time recorded under `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, Span::total_ns)
    }

    /// Names of the timers that recorded a call.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.spans.keys().copied()
    }

    /// Appends every sample `other` recorded.
    pub fn absorb(&mut self, other: &Timers) {
        for (name, span) in &other.spans {
            let mine = self.spans.entry(name).or_default();
            mine.samples_ns.extend_from_slice(&span.samples_ns);
        }
    }
}

/// Times `op` in a loop and returns the median cost of one call in
/// nanoseconds: `batches` batches of `per_batch` calls each.
pub fn unit_cost_ns(batches: usize, per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut costs = Vec::with_capacity(batches);
    let mut i = 0;
    for _ in 0..batches {
        let started = Instant::now();
        for _ in 0..per_batch {
            op(i);
            i += 1;
        }
        costs.push(started.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn disabled_timers_record_nothing() {
        let mut t = Timers::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert!(t.span("x").samples_ns.is_empty());
        let mut t = Timers::new(true);
        t.time("x", || ());
        assert_eq!(t.span("x").samples_ns.len(), 1);
    }
}

//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms with cheap atomic recording.
//!
//! Name lookup takes a short mutex-guarded map access; the returned
//! handles ([`Counter`], [`Gauge`], `Arc<Histogram>`) record through
//! relaxed atomics only, so hot paths can resolve a handle once and
//! record lock-free afterwards. Instrumentation sites that fire a few
//! times per trial (the common case here) simply use the name-based
//! convenience methods.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// A monotonically increasing counter (merges by summation).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-watermark gauge (keeps its maximum; merges by maximum).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raises the gauge to at least `v`.
    fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Buckets per histogram: value `v` lands in bucket
/// `64 - v.leading_zeros()`, i.e. bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly zero).
const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (span histograms record
/// nanoseconds). Tracks count, sum, min, max, and per-bucket counts —
/// everything needed for totals, means, and order-of-magnitude
/// distributions, all merging associatively.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        write!(
            f,
            "Histogram(count={}, sum={}, min={}, max={})",
            snap.count, snap.sum, snap.min, snap.max
        )
    }
}

fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Exports the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = BTreeMap::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.insert(i as u32, n);
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Locks one of the registry's maps, poisoned or not. A thread that
/// panics while holding the lock leaves the map whole: every critical
/// section is one lookup, one insert of a fresh metric, a clear, or a
/// read, so the next caller can go on using it, and telemetry never
/// turns one failed trial into a second panic.
fn locked<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cell(map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>, name: &str) -> Arc<AtomicU64> {
    let mut map = locked(map);
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(AtomicU64::new(0));
    map.insert(name.to_string(), Arc::clone(&fresh));
    fresh
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The named counter, created at zero on first use. The handle
    /// records lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(cell(&self.counters, name))
    }

    /// The named gauge, created at zero on first use.
    fn gauge(&self, name: &str) -> Gauge {
        Gauge(cell(&self.gauges, name))
    }

    /// The named histogram, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = locked(&self.histograms);
        if let Some(existing) = map.get(name) {
            return Arc::clone(existing);
        }
        let fresh = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// Adds `v` to the named counter.
    pub fn add_counter(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// Raises the named gauge to at least `v`.
    pub fn gauge_max(&self, name: &str, v: u64) {
        self.gauge(name).set_max(v);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Drops every metric.
    pub fn clear(&self) {
        locked(&self.counters).clear();
        locked(&self.gauges).clear();
        locked(&self.histograms).clear();
    }

    /// Exports the current state of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>| {
            locked(map)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect::<BTreeMap<String, u64>>()
        };
        let histograms = locked(&self.histograms)
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters: load(&self.counters),
            gauges: load(&self.gauges),
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(1);
        assert_eq!(r.counter("x").get(), 3);
        r.add_counter("x", 4);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn gauges_keep_their_maximum() {
        let r = MetricsRegistry::new();
        r.gauge_max("g", 3);
        r.gauge_max("g", 9);
        r.gauge_max("g", 5);
        assert_eq!(r.gauge("g").get(), 9);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_and_buckets() {
        let r = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 1024] {
            r.observe("h", v);
        }
        let snap = r.histogram("h").snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1030);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
        // 0 → bucket 0, 1 → bucket 1, 2..3 → bucket 2, 1024 → bucket 11.
        assert_eq!(snap.buckets.get(&0), Some(&1));
        assert_eq!(snap.buckets.get(&1), Some(&1));
        assert_eq!(snap.buckets.get(&2), Some(&2));
        assert_eq!(snap.buckets.get(&11), Some(&1));
    }

    #[test]
    fn empty_histogram_snapshot_is_identity_shaped() {
        let r = MetricsRegistry::new();
        let snap = r.histogram("h").snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0, "empty min renders as 0, not u64::MAX");
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let r = MetricsRegistry::new();
        r.add_counter("c", 1);
        r.observe("h", 1);
        r.clear();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn a_panic_while_holding_the_lock_does_not_poison_the_registry() {
        let r = MetricsRegistry::new();
        r.add_counter("c", 1);
        r.observe("h", 4);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = r.counters.lock();
                    let _histograms = r.histograms.lock();
                    panic!("telemetry site failed while holding the lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(r.counters.is_poisoned() && r.histograms.is_poisoned());
        r.add_counter("c", 2);
        r.add_counter("fresh", 5);
        r.observe("h", 8);
        r.gauge_max("g", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.counters["fresh"], 5);
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.gauges["g"], 3);
        r.clear();
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        r.add_counter("c", 1);
                        r.observe("h", i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 4_000);
        assert_eq!(snap.histograms["h"].count, 4_000);
    }
}

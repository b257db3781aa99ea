//! # `ichannels-obs` — the telemetry layer
//!
//! A zero-dependency, **deterministic-safe** instrumentation substrate
//! for the simulation and campaign engine: counters, gauges, and
//! log₂-bucketed histograms recorded through cheap atomics, phase
//! spans that time code regions with the wall clock, and a JSON
//! snapshot format whose merge is associative (shard snapshots merge
//! into exactly the snapshot one unsharded process would have
//! produced, mirroring `merge_streams`).
//!
//! **Deterministic-safe** means the layer is strictly out-of-band:
//! nothing recorded here is ever read back by the simulation, so
//! enabling or disabling telemetry cannot change a single output byte
//! of any trial stream, CSV, or golden artifact (the repo's
//! telemetry-invariance tests pin this down). Wall-clock timestamps —
//! the only nondeterministic values in the system — exist *only* in
//! telemetry snapshots, never in results.
//!
//! * [`MetricsRegistry`] — named counters / gauges / histograms with
//!   atomic recording and a [`MetricsRegistry::snapshot`] export;
//! * [`MetricsSnapshot`] — the exported state: renders to one-line
//!   JSON ([`MetricsSnapshot::to_json`]), parses back
//!   ([`MetricsSnapshot::parse`]), and merges associatively
//!   ([`MetricsSnapshot::merge`]);
//! * [`json`] — the workspace's one JSON reader ([`json::parse`] into
//!   a [`json::Value`] tree) and the string escaper every JSON writer
//!   shares ([`json::escape`]);
//! * [`Span`] — an RAII guard that records the elapsed nanoseconds of
//!   a code region into a histogram when dropped;
//! * the process-global registry ([`global`]) behind an on/off switch
//!   ([`set_enabled`]) — recording through the top-level helpers
//!   ([`counter_add`], [`gauge_max`], [`observe`], [`span()`]) is a
//!   no-op while telemetry is off, so instrumented hot paths cost one
//!   relaxed atomic load in the default configuration.
//!
//! # Conventions
//!
//! Metric names are dotted lowercase paths (`trial.transmit`,
//! `calibration.requests`). Span histograms record **nanoseconds**.
//! Counters merge by summation, gauges by maximum, histograms
//! bucket-wise — all associative and commutative, so shard snapshots
//! can be merged in any grouping.
//!
//! # Example
//!
//! ```
//! use ichannels_obs as obs;
//!
//! let registry = obs::MetricsRegistry::new();
//! registry.add_counter("trial.runs", 3);
//! registry.observe("trial.transmit", 1_500);
//! let snap = registry.snapshot();
//! let reparsed = obs::MetricsSnapshot::parse(&snap.to_json()).unwrap();
//! assert_eq!(snap, reparsed);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
mod registry;
mod snapshot;
mod span;

pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry every instrumented crate records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// True while telemetry recording is on (off by default — the
/// simulation pays one relaxed atomic load per instrumentation site).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off. Toggling never changes any
/// simulated result — telemetry is strictly out-of-band.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Drops every metric recorded so far in the global registry.
pub fn reset() {
    global().clear();
}

/// Adds `v` to the named global counter (no-op while disabled).
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        global().add_counter(name, v);
    }
}

/// Raises the named global gauge to at least `v` (no-op while
/// disabled). Gauges keep their maximum, which is what merges
/// associatively across shards.
pub fn gauge_max(name: &str, v: u64) {
    if enabled() {
        global().gauge_max(name, v);
    }
}

/// Records one sample into the named global histogram (no-op while
/// disabled).
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global().observe(name, value);
    }
}

/// Starts a phase span: an RAII guard that, when dropped, records the
/// elapsed wall-clock nanoseconds into the global histogram `name`.
/// Returns a disarmed no-op guard while telemetry is off.
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Span::start(name)
    } else {
        Span::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_helpers_record_nothing() {
        // The global switch defaults to off; helpers must not touch
        // the registry. (Runs first alphabetically-independent: use a
        // dedicated name so other tests cannot interfere.)
        set_enabled(false);
        counter_add("lib.test.disabled", 5);
        observe("lib.test.disabled_hist", 5);
        let snap = global().snapshot();
        assert!(!snap.counters.contains_key("lib.test.disabled"));
        assert!(!snap.histograms.contains_key("lib.test.disabled_hist"));
    }

    #[test]
    fn enabled_helpers_record_into_the_global_registry() {
        set_enabled(true);
        counter_add("lib.test.enabled", 2);
        counter_add("lib.test.enabled", 3);
        gauge_max("lib.test.gauge", 7);
        gauge_max("lib.test.gauge", 4);
        {
            let _span = span("lib.test.span");
        }
        set_enabled(false);
        let snap = global().snapshot();
        assert_eq!(snap.counters.get("lib.test.enabled"), Some(&5));
        assert_eq!(snap.gauges.get("lib.test.gauge"), Some(&7));
        let hist = snap.histograms.get("lib.test.span").expect("span recorded");
        assert_eq!(hist.count, 1);
    }
}

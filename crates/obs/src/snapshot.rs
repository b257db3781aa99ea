//! The exported telemetry state: a [`MetricsSnapshot`] renders to
//! one-line JSON, parses back, and merges associatively — N shard
//! snapshots merge (in any grouping and order) into exactly the
//! snapshot one unsharded process would have produced, the same
//! contract `merge_streams` gives trial rows.
//!
//! Merge semantics per metric class:
//!
//! * **counters** — summed;
//! * **gauges** — maximum (high-watermark semantics);
//! * **histograms** — count/sum summed, min/max combined, buckets
//!   added index-wise.
//!
//! All three are associative and commutative with the empty snapshot
//! as identity, which the workspace pins with a proptest over shard
//! splits (`tests/telemetry_invariance.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, escape, Value};

/// Schema tag written into (and required from) every snapshot file.
const SCHEMA: &str = "ichannels-telemetry-v1";

/// One exported histogram: count, sum, min, max, and sparse log₂
/// bucket counts (bucket `i` holds values in `[2^(i-1), 2^i)`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sparse bucket counts: log₂ bucket index → samples.
    pub buckets: BTreeMap<u32, u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` (associative, commutative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
    }
}

/// The exported state of a [`crate::MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The empty snapshot (the merge identity).
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Folds `other` into `self`: counters sum, gauges take the
    /// maximum, histograms merge bucket-wise. Associative and
    /// commutative — shard snapshots merge in any grouping.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Renders the snapshot as one line of JSON (deterministic: keys
    /// in sorted order, no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",\"counters\":{{");
        render_u64_map(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        render_u64_map(&mut out, &self.gauges);
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{idx},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot back from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns a readable description when the text is not a
    /// `ichannels-telemetry-v1` snapshot (wrong schema tag, malformed
    /// JSON, unexpected value types).
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let mut schema = None;
        let mut snap = MetricsSnapshot::new();
        for (key, value) in object(&doc, "snapshot")? {
            match key.as_str() {
                "schema" => {
                    schema = Some(value.as_str().ok_or("snapshot schema is not a string")?);
                }
                "counters" => snap.counters = named(value, key, uint)?,
                "gauges" => snap.gauges = named(value, key, uint)?,
                "histograms" => snap.histograms = named(value, key, histogram)?,
                other => return Err(format!("unknown snapshot field {other:?}")),
            }
        }
        match schema {
            Some(SCHEMA) => Ok(snap),
            Some(other) => Err(format!(
                "snapshot schema {other:?} is not the supported {SCHEMA:?}"
            )),
            None => Err(format!("snapshot has no \"schema\" tag ({SCHEMA:?})")),
        }
    }
}

fn render_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape(name));
    }
}

fn object<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    value
        .as_object()
        .ok_or_else(|| format!("{what:?} is not an object"))
}

fn uint(value: &Value, what: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("{what:?} is not an unsigned integer"))
}

/// Reads an object of named entries, each through `read`.
fn named<T>(
    value: &Value,
    what: &str,
    read: fn(&Value, &str) -> Result<T, String>,
) -> Result<BTreeMap<String, T>, String> {
    object(value, what)?
        .iter()
        .map(|(name, v)| Ok((name.clone(), read(v, name)?)))
        .collect()
}

fn histogram(value: &Value, name: &str) -> Result<HistogramSnapshot, String> {
    let mut h = HistogramSnapshot::default();
    for (key, value) in object(value, name)? {
        match key.as_str() {
            "count" => h.count = uint(value, key)?,
            "sum" => h.sum = uint(value, key)?,
            "min" => h.min = uint(value, key)?,
            "max" => h.max = uint(value, key)?,
            "buckets" => {
                let pairs = value
                    .as_array()
                    .ok_or_else(|| format!("buckets of {name:?} are not an array"))?;
                for pair in pairs {
                    let Some([idx, n]) = pair.as_array() else {
                        return Err(format!("bucket of {name:?} is not an [index, count] pair"));
                    };
                    let idx = uint(idx, "bucket index")?;
                    let idx = u32::try_from(idx)
                        .map_err(|_| format!("bucket index {idx} out of range"))?;
                    h.buckets.insert(idx, uint(n, "bucket count")?);
                }
            }
            other => return Err(format!("unknown histogram field {other:?}")),
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.add_counter("trial.runs", 7);
        r.add_counter("calibration.requests", 3);
        r.gauge_max("exec.threads", 4);
        for v in [0u64, 1, 900, 1_500, 2_000_000] {
            r.observe("trial.transmit", v);
        }
        r.snapshot()
    }

    #[test]
    fn json_round_trips_byte_exactly() {
        let snap = sample();
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"ichannels-telemetry-v1\""));
        assert_eq!(json.lines().count(), 1, "one-line rendering");
        let reparsed = MetricsSnapshot::parse(&json).expect("parses");
        assert_eq!(reparsed, snap);
        assert_eq!(reparsed.to_json(), json, "re-render is byte-identical");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = MetricsSnapshot::new();
        assert!(empty.is_empty());
        let reparsed = MetricsSnapshot::parse(&empty.to_json()).expect("parses");
        assert_eq!(reparsed, empty);
    }

    #[test]
    fn whitespace_between_tokens_still_parses() {
        let snap = sample();
        let spaced = snap
            .to_json()
            .replace('{', "{\n  ")
            .replace('}', " \n}")
            .replace('[', "[ ")
            .replace(']', " ]")
            .replace(':', " :\t")
            .replace(',', " ,\r\n");
        assert_eq!(MetricsSnapshot::parse(&format!(" {spaced}\n")), Ok(snap));
    }

    #[test]
    fn parse_rejects_malformed_values() {
        for bad in [
            "{\"schema\":\"ichannels-telemetry-v1\",\"counters\":{\"a\":-1}}",
            "{\"schema\":\"ichannels-telemetry-v1\",\"counters\":{\"a\":1.5}}",
            "{\"schema\":\"ichannels-telemetry-v1\",\"counters\":[]}",
            "{\"schema\":\"ichannels-telemetry-v1\",\"histograms\":{\"h\":{\"buckets\":[[4294967296,1]]}}}",
            "{\"schema\":\"ichannels-telemetry-v1\",\"histograms\":{\"h\":{\"buckets\":[[1,2,3]]}}}",
            "{\"schema\":\"ichannels-telemetry-v1\",\"histograms\":{\"h\":{\"mean\":1}}}",
            "{\"schema\":\"ichannels-telemetry-v1\",\"extra\":{}}",
            "{\"schema\":7}",
        ] {
            assert!(MetricsSnapshot::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schemas() {
        assert!(MetricsSnapshot::parse("").is_err());
        assert!(MetricsSnapshot::parse("not json").is_err());
        assert!(
            MetricsSnapshot::parse("{\"counters\":{}}").is_err(),
            "no schema tag"
        );
        let wrong =
            "{\"schema\":\"something-else\",\"counters\":{},\"gauges\":{},\"histograms\":{}}";
        let err = MetricsSnapshot::parse(wrong).unwrap_err();
        assert!(err.contains("something-else"), "{err}");
        let torn = sample().to_json();
        assert!(MetricsSnapshot::parse(&torn[..torn.len() / 2]).is_err());
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_and_folds_histograms() {
        let a = sample();
        let r = MetricsRegistry::new();
        r.add_counter("trial.runs", 2);
        r.add_counter("trial.errors", 1);
        r.gauge_max("exec.threads", 2);
        r.observe("trial.transmit", 10);
        let b = r.snapshot();

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("trial.runs"), 9);
        assert_eq!(merged.counter("trial.errors"), 1);
        assert_eq!(merged.gauges["exec.threads"], 4, "gauge keeps max");
        let h = merged.histogram("trial.transmit");
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 2_000_000);

        // Commutativity on this pair.
        let mut swapped = b.clone();
        swapped.merge(&a);
        assert_eq!(swapped, merged);

        // Empty is the identity on both sides.
        let mut left = MetricsSnapshot::new();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&MetricsSnapshot::new());
        assert_eq!(right, a);
    }

    #[test]
    fn metric_names_with_special_characters_survive() {
        let r = MetricsRegistry::new();
        r.add_counter("weird \"name\"\\with\tescapes", 1);
        let snap = r.snapshot();
        let reparsed = MetricsSnapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(reparsed, snap);
    }
}

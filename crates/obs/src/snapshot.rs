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

/// Schema tag written into (and required from) every snapshot file.
pub const SCHEMA: &str = "ichannels-telemetry-v1";

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
        let mut p = Parser {
            bytes: text.trim().as_bytes(),
            pos: 0,
        };
        let snap = p.parse_snapshot()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(snap)
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

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal recursive-descent parser for exactly the JSON subset
/// [`MetricsSnapshot::to_json`] emits (objects, arrays, strings,
/// unsigned integers), tolerant of interstitial whitespace.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape {:?}",
                                other.map(|b| *b as char)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through intact:
                    // copy the raw bytes of one scalar value.
                    let text =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = text.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                    let _ = b;
                }
            }
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected an unsigned integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are UTF-8")
            .parse()
            .map_err(|e| format!("integer at byte {start}: {e}"))
    }

    /// Parses `{"k":v,...}` invoking `visit` per entry; the callback
    /// parses the value.
    fn parse_object(
        &mut self,
        mut visit: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            visit(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn parse_u64_map(&mut self) -> Result<BTreeMap<String, u64>, String> {
        let mut map = BTreeMap::new();
        self.parse_object(|p, key| {
            let v = p.parse_u64()?;
            map.insert(key, v);
            Ok(())
        })?;
        Ok(map)
    }

    fn parse_histogram(&mut self) -> Result<HistogramSnapshot, String> {
        let mut h = HistogramSnapshot::default();
        self.parse_object(|p, key| {
            match key.as_str() {
                "count" => h.count = p.parse_u64()?,
                "sum" => h.sum = p.parse_u64()?,
                "min" => h.min = p.parse_u64()?,
                "max" => h.max = p.parse_u64()?,
                "buckets" => {
                    p.expect(b'[')?;
                    if p.peek() == Some(b']') {
                        p.pos += 1;
                        return Ok(());
                    }
                    loop {
                        p.expect(b'[')?;
                        let idx = p.parse_u64()?;
                        p.expect(b',')?;
                        let n = p.parse_u64()?;
                        p.expect(b']')?;
                        let idx = u32::try_from(idx)
                            .map_err(|_| format!("bucket index {idx} out of range"))?;
                        h.buckets.insert(idx, n);
                        match p.peek() {
                            Some(b',') => p.pos += 1,
                            Some(b']') => {
                                p.pos += 1;
                                break;
                            }
                            other => {
                                return Err(format!(
                                    "expected ',' or ']' in buckets, found {:?}",
                                    other.map(|b| b as char)
                                ))
                            }
                        }
                    }
                }
                other => return Err(format!("unknown histogram field {other:?}")),
            }
            Ok(())
        })?;
        Ok(h)
    }

    fn parse_snapshot(&mut self) -> Result<MetricsSnapshot, String> {
        let mut schema: Option<String> = None;
        let mut snap = MetricsSnapshot::new();
        self.parse_object(|p, key| {
            match key.as_str() {
                "schema" => schema = Some(p.parse_string()?),
                "counters" => snap.counters = p.parse_u64_map()?,
                "gauges" => snap.gauges = p.parse_u64_map()?,
                "histograms" => {
                    let mut hists = BTreeMap::new();
                    p.parse_object(|p, name| {
                        let h = p.parse_histogram()?;
                        hists.insert(name, h);
                        Ok(())
                    })?;
                    snap.histograms = hists;
                }
                other => return Err(format!("unknown snapshot field {other:?}")),
            }
            Ok(())
        })?;
        match schema.as_deref() {
            Some(SCHEMA) => Ok(snap),
            Some(other) => Err(format!(
                "snapshot schema {other:?} is not the supported {SCHEMA:?}"
            )),
            None => Err(format!("snapshot has no \"schema\" tag ({SCHEMA:?})")),
        }
    }
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

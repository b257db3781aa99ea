//! Constant-memory streaming aggregation over campaign trial streams.
//!
//! An [`Analysis`] consumes [`TrialRow`]s one at a time — from a merged
//! stream, an unsharded run, or shard by shard via [`Analysis::merge`]
//! — and holds per-cell state bounded by the reservoir capacity, never
//! by the trial count. Every statistic it reports is computed at
//! [`Analysis::finish`] from data in a canonical order (cells sorted by
//! key, reservoir samples sorted by their trial hash), so the report
//! bytes depend only on the row *set* and the [`AnalysisConfig`]:
//! feeding rows in a different order, from a different thread count's
//! output, or grouped into different shards cannot move a byte.
//!
//! Sampling contract: a cell's reservoir keeps the **bottom-k trials
//! by FNV-1a hash** of their `cell#trial` key. Bottom-k-by-hash is a
//! uniform subsample that is order-independent and associative under
//! merge — the same k trials win no matter how the stream was split.
//! Campaigns whose cells stay within the capacity (every catalog
//! campaign does, by orders of magnitude) are summarized exactly; past
//! it, order statistics and bootstrap CIs come from the deterministic
//! subsample while counts remain exact, and the report flags the cell
//! as sampled.

use std::collections::BTreeMap;

use ichannels_lab::shard::header_from_fields;
use ichannels_lab::TrialRow;
use ichannels_meter::parse::parse_jsonl_line;

use crate::bootstrap::fnv1a;
use crate::report::{AxisSensitivity, AxisValueReport, CampaignAnalysis, CellReport, MetricReport};
use crate::AnalysisConfig;

/// The grid axes a sensitivity summary sweeps, in report order. Each
/// is a [`TrialRow`] label column (the trial/seed columns are not
/// axes).
pub const AXES: [&str; 6] = [
    "platform",
    "channel",
    "noise",
    "mitigations",
    "app",
    "payload",
];

/// A bounded, order-independent sample reservoir: keeps the bottom
/// `cap` samples ranked by `(hash, value bits)`, so membership is a
/// pure function of the sample set.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    /// Ascending by `(key, value bits)`.
    entries: Vec<(u64, f64)>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    fn rank(entry: &(u64, f64)) -> (u64, u64) {
        (entry.0, entry.1.to_bits())
    }

    /// Inserts a keyed sample, evicting the largest-ranked entry if the
    /// reservoir is full.
    pub fn add(&mut self, key: u64, value: f64) {
        let entry = (key, value);
        let pos = self
            .entries
            .partition_point(|e| Self::rank(e) <= Self::rank(&entry));
        if self.entries.len() < self.cap {
            self.entries.insert(pos, entry);
        } else if pos < self.entries.len() {
            self.entries.pop();
            self.entries.insert(pos, entry);
        }
    }

    /// Merges another reservoir (same ranking) into this one.
    pub fn merge(&mut self, other: &Reservoir) {
        for &(key, value) in &other.entries {
            self.add(key, value);
        }
    }

    /// Retained samples in canonical (hash) order.
    pub fn values(&self) -> Vec<f64> {
        self.entries.iter().map(|&(_, v)| v).collect()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One metric's streaming state: an exact count of finite samples plus
/// the bounded reservoir order statistics are computed from.
#[derive(Debug, Clone)]
pub struct MetricStream {
    /// Finite samples seen (exact, never sampled).
    pub count: u64,
    /// The retained samples.
    pub reservoir: Reservoir,
}

impl MetricStream {
    fn new(cap: usize) -> Self {
        MetricStream {
            count: 0,
            reservoir: Reservoir::new(cap),
        }
    }

    fn add(&mut self, key: u64, value: f64) {
        if value.is_finite() {
            self.count += 1;
            self.reservoir.add(key, value);
        }
    }

    fn merge(&mut self, other: &MetricStream) {
        self.count += other.count;
        self.reservoir.merge(&other.reservoir);
    }

    /// True when the reservoir overflowed and order statistics are
    /// computed from the deterministic subsample.
    pub fn sampled(&self) -> bool {
        self.count > self.reservoir.len() as u64
    }
}

/// Streaming state of one grid cell.
#[derive(Debug, Clone)]
pub struct CellAccumulator {
    /// Cell key.
    pub cell: String,
    /// The cell's axis labels, in [`AXES`] order.
    pub labels: [String; 6],
    /// Rows seen (including errored ones).
    pub trials: u64,
    /// Rows carrying an error message.
    pub errored: u64,
    /// Bit error rate samples.
    pub ber: MetricStream,
    /// Symbol error rate samples.
    pub ser: MetricStream,
    /// Per-trial error rate: BER when defined, else SER (the fuzz
    /// oracle's convention) — what the sensitivity sweep pools.
    pub error_rate: MetricStream,
    /// Gross throughput samples (b/s).
    pub throughput: MetricStream,
    /// Measured effective capacity samples (b/s).
    pub capacity_bps: MetricStream,
    /// Bias-corrected MI samples (bits/symbol).
    pub mi: MetricStream,
}

impl CellAccumulator {
    fn new(row: &TrialRow, cap: usize) -> Self {
        CellAccumulator {
            cell: row.cell.clone(),
            labels: [
                row.platform.clone(),
                row.channel.clone(),
                row.noise.clone(),
                row.mitigations.clone(),
                row.app.clone(),
                row.payload.clone(),
            ],
            trials: 0,
            errored: 0,
            ber: MetricStream::new(cap),
            ser: MetricStream::new(cap),
            error_rate: MetricStream::new(cap),
            throughput: MetricStream::new(cap),
            capacity_bps: MetricStream::new(cap),
            mi: MetricStream::new(cap),
        }
    }

    fn add(&mut self, row: &TrialRow) {
        let key = fnv1a(row.trial_key().as_bytes());
        self.trials += 1;
        if row.error.is_some() {
            self.errored += 1;
        }
        let m = &row.metrics;
        self.ber.add(key, m.ber);
        self.ser.add(key, m.ser);
        let error_rate = if m.ber.is_finite() { m.ber } else { m.ser };
        self.error_rate.add(key, error_rate);
        self.throughput.add(key, m.throughput_bps);
        self.capacity_bps.add(key, m.capacity_bps);
        self.mi.add(key, m.mi_bits_per_symbol);
    }

    fn merge(&mut self, other: &CellAccumulator) {
        self.trials += other.trials;
        self.errored += other.errored;
        self.ber.merge(&other.ber);
        self.ser.merge(&other.ser);
        self.error_rate.merge(&other.error_rate);
        self.throughput.merge(&other.throughput);
        self.capacity_bps.merge(&other.capacity_bps);
        self.mi.merge(&other.mi);
    }
}

/// A line the streaming reader refuses to aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The line is a shard header: the stream is one shard of a
    /// campaign, and aggregating a lone shard would silently report a
    /// slice as the whole.
    ShardHeader {
        /// The campaign the header records.
        campaign: String,
        /// The `I/N` spec the header records, rendered.
        shard: String,
    },
    /// The line is not a trial row (message from [`TrialRow::parse`]).
    BadRow(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::ShardHeader { campaign, shard } => write!(
                f,
                "stream is shard {shard} of campaign {campaign:?} — reassemble the shards \
                 with `campaign merge` and analyze the merged stream"
            ),
            StreamError::BadRow(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Streaming analysis of one campaign's trial stream.
#[derive(Debug, Clone)]
pub struct Analysis {
    config: AnalysisConfig,
    campaign: String,
    cells: BTreeMap<String, CellAccumulator>,
    rows: u64,
    errored: u64,
}

impl Analysis {
    /// An empty analysis for the named campaign.
    pub fn new(campaign: &str, config: AnalysisConfig) -> Self {
        Analysis {
            config,
            campaign: campaign.to_string(),
            cells: BTreeMap::new(),
            rows: 0,
            errored: 0,
        }
    }

    /// Rows aggregated so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Aggregates one trial row.
    pub fn add_row(&mut self, row: &TrialRow) {
        self.rows += 1;
        if row.error.is_some() {
            self.errored += 1;
        }
        // Look the cell up by reference: its key is cloned only when the
        // cell is new.
        match self.cells.get_mut(&row.cell) {
            Some(acc) => acc.add(row),
            None => {
                let mut acc = CellAccumulator::new(row, self.config.reservoir);
                acc.add(row);
                self.cells.insert(row.cell.clone(), acc);
            }
        }
    }

    /// Parses and aggregates one JSONL line.
    ///
    /// # Errors
    ///
    /// Rejects shard header lines (a lone shard is a slice, not a
    /// campaign — merge first) and lines that are not trial rows. The
    /// line is parsed once; the header check and the trial row read the
    /// same fields, with the messages [`TrialRow::parse`] gives.
    pub fn add_jsonl_line(&mut self, line: &str) -> Result<(), StreamError> {
        let fields = parse_jsonl_line(line).map_err(|e| StreamError::BadRow(e.to_string()))?;
        if let Some((campaign, spec, _)) = header_from_fields(&fields) {
            return Err(StreamError::ShardHeader {
                campaign,
                shard: spec.to_string(),
            });
        }
        let row = TrialRow::from_fields(&fields).map_err(StreamError::BadRow)?;
        self.add_row(&row);
        Ok(())
    }

    /// Merges another analysis of the **same campaign over disjoint
    /// rows** (e.g. built shard by shard) into this one. The merged
    /// state — and therefore the finished report — is byte-identical
    /// to aggregating the union of rows directly, in any order.
    pub fn merge(&mut self, other: &Analysis) {
        self.rows += other.rows;
        self.errored += other.errored;
        for (key, acc) in &other.cells {
            match self.cells.get_mut(key) {
                Some(mine) => mine.merge(acc),
                None => {
                    self.cells.insert(key.clone(), acc.clone());
                }
            }
        }
    }

    /// Finishes the stream: per-cell summaries with bootstrap CIs,
    /// model capacity estimates, per-axis pools, and the sensitivity
    /// ranking. The analysis itself is unchanged and can keep
    /// aggregating.
    pub fn finish(&self) -> CampaignAnalysis {
        let cfg = &self.config;
        let cells: Vec<CellReport> = self
            .cells
            .values()
            .map(|acc| CellReport::from_accumulator(acc, cfg))
            .collect();

        // Campaign-level pools across every cell (canonical cell-key
        // merge order, so the result is independent of input order).
        let mut pooled_error = MetricStream::new(cfg.reservoir);
        let mut pooled_capacity = MetricStream::new(cfg.reservoir);
        for acc in self.cells.values() {
            pooled_error.merge(&acc.error_rate);
            pooled_capacity.merge(&acc.capacity_bps);
        }
        let model: Vec<f64> = cells
            .iter()
            .filter_map(|c| c.capacity_model_bits_per_symbol)
            .filter(|v| v.is_finite())
            .collect();
        let capacity_model_mean_bits_per_symbol =
            (!model.is_empty()).then(|| model.iter().sum::<f64>() / model.len() as f64);

        // Per-axis pools: merge the error-rate reservoirs of every
        // cell sharing an axis value (reservoir merge is associative,
        // and BTreeMap iteration fixes a canonical merge order).
        let mut axes = Vec::new();
        let mut sensitivity = Vec::new();
        for (axis_idx, axis) in AXES.iter().enumerate() {
            let mut pools: BTreeMap<&str, (MetricStream, u64, u64)> = BTreeMap::new();
            for acc in self.cells.values() {
                let value = acc.labels[axis_idx].as_str();
                let (pool, cells_n, trials) = pools
                    .entry(value)
                    .or_insert_with(|| (MetricStream::new(cfg.reservoir), 0, 0));
                pool.merge(&acc.error_rate);
                *cells_n += 1;
                *trials += acc.trials;
            }
            let values: Vec<AxisValueReport> = pools
                .iter()
                .map(|(value, (pool, cells_n, trials))| {
                    AxisValueReport::from_pool(axis, value, pool, *cells_n, *trials, cfg)
                })
                .collect();
            if let Some(s) = AxisSensitivity::from_values(axis, &values) {
                sensitivity.push(s);
            }
            axes.extend(values);
        }
        // Most-sensitive axis first; ties fall back to the fixed axis
        // order (stable sort), keeping the ranking deterministic.
        sensitivity.sort_by(|a, b| b.range.total_cmp(&a.range));

        CampaignAnalysis {
            campaign: self.campaign.clone(),
            trials: self.rows,
            errored: self.errored,
            config: *cfg,
            error_rate: MetricReport::from_stream(&pooled_error, Some("campaign/error_rate"), cfg),
            capacity_bps: MetricReport::from_stream(&pooled_capacity, None, cfg),
            capacity_model_mean_bits_per_symbol,
            cells,
            axes,
            sensitivity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_order_independent_and_associative() {
        let samples: Vec<(u64, f64)> = (0..40u64)
            .map(|i| (fnv1a(&i.to_le_bytes()), i as f64))
            .collect();
        let mut forward = Reservoir::new(16);
        let mut backward = Reservoir::new(16);
        for &(k, v) in &samples {
            forward.add(k, v);
        }
        for &(k, v) in samples.iter().rev() {
            backward.add(k, v);
        }
        assert_eq!(forward.values(), backward.values());
        assert_eq!(forward.len(), 16);
        // Split-and-merge retains exactly the same bottom-k set.
        let mut left = Reservoir::new(16);
        let mut right = Reservoir::new(16);
        for (i, &(k, v)) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.add(k, v);
            } else {
                right.add(k, v);
            }
        }
        left.merge(&right);
        assert_eq!(left.values(), forward.values());
    }

    #[test]
    fn reservoir_under_capacity_is_lossless() {
        let mut r = Reservoir::new(64);
        for i in 0..10u64 {
            r.add(fnv1a(&i.to_le_bytes()), i as f64);
        }
        assert_eq!(r.len(), 10);
        let mut values = r.values();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(values, (0..10).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn metric_stream_counts_exactly_past_capacity() {
        let mut m = MetricStream::new(8);
        for i in 0..20u64 {
            m.add(fnv1a(&i.to_le_bytes()), i as f64);
        }
        m.add(999, f64::NAN); // NaN (undefined metric) never counts.
        assert_eq!(m.count, 20);
        assert_eq!(m.reservoir.len(), 8);
        assert!(m.sampled());
    }

    #[test]
    fn shard_headers_are_rejected_with_the_merge_pointer() {
        let mut analysis = Analysis::new("unit", AnalysisConfig::default());
        let spec = ichannels_lab::ShardSpec::new(1, 3).unwrap();
        let header = spec.header_row("noise_robustness", 9).to_json();
        let err = analysis.add_jsonl_line(&header).unwrap_err();
        assert!(matches!(err, StreamError::ShardHeader { .. }));
        let msg = err.to_string();
        assert!(msg.contains("campaign merge"), "{msg}");
        assert!(msg.contains("noise_robustness"), "{msg}");
        assert!(analysis.add_jsonl_line("{not json").is_err());
        assert_eq!(analysis.rows(), 0);
    }

    #[test]
    fn add_jsonl_line_errors_are_pinned() {
        // A header, a torn line, and a header-shaped line that is not a
        // valid header (0 shards) and so is read as a trial row: the
        // header check and the row read share one parse, and each case
        // keeps its own error.
        let mut analysis = Analysis::new("unit", AnalysisConfig::default());
        let header = ichannels_lab::ShardSpec::new(1, 3)
            .unwrap()
            .header_row("noise_robustness", 9)
            .to_json();
        assert_eq!(
            analysis.add_jsonl_line(&header),
            Err(StreamError::ShardHeader {
                campaign: "noise_robustness".to_string(),
                shard: "1/3".to_string(),
            })
        );
        let truncated = "{\"cell\":\"cannon_lake/IccThreadCovert/quiet\",\"trial\":3,\"pla";
        assert_eq!(
            analysis.add_jsonl_line(truncated),
            Err(StreamError::BadRow(
                "unterminated string at byte 58".to_string()
            ))
        );
        let zero_shards = "{\"shard_campaign\":\"noise_robustness\",\"shard_index\":0,\
                           \"shard_count\":0,\"shard_total\":9}";
        assert_eq!(
            analysis.add_jsonl_line(zero_shards),
            Err(StreamError::BadRow(
                "missing string field `cell`".to_string()
            ))
        );
        assert_eq!(analysis.rows(), 0);
    }
}

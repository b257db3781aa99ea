//! Finished analysis reports and their byte-stable JSONL rendering.
//!
//! A [`CampaignAnalysis`] renders as flat JSONL through the same
//! [`JsonlRow`] path the trial streams use — insertion-ordered fields,
//! shortest-round-trip floats, `NaN` as `null` — so `analysis.jsonl`
//! inherits the byte-stability contract of every other artifact and
//! parses back with [`ichannels_meter::parse`] (the flat-row rule over
//! the shared `ichannels_obs::json` reader). Four record kinds share
//! the file, discriminated by the leading `record` field: `campaign`,
//! `cell`, `axis`, and `sensitivity`.

use ichannels_meter::export::{jsonl_to_string, JsonlRow};

use crate::bootstrap::{bootstrap_mean_ci, BootstrapCi};
use crate::capacity::{alphabet_size, capacity_bits_2bit_from_ber, capacity_bits_kary_from_ser};
use crate::stats::{summarize_samples, Stats};
use crate::stream::{CellAccumulator, MetricStream};
use crate::AnalysisConfig;

/// One metric's finished summary: exact sample count, order statistics
/// over the retained samples, and (where requested) a bootstrap CI on
/// the mean.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricReport {
    /// Finite samples seen (exact even when the reservoir sampled).
    pub n: u64,
    /// Summary statistics (`None` when no finite sample arrived).
    pub stats: Option<Stats>,
    /// Bootstrap CI on the mean (`None` when not computed or no data).
    pub ci: Option<BootstrapCi>,
    /// True when statistics come from the bottom-k-by-hash subsample
    /// rather than every sample.
    pub sampled: bool,
}

impl MetricReport {
    /// Summarizes a metric stream; `ci_label` keys the bootstrap
    /// stream (pass `None` to skip the CI).
    pub fn from_stream(
        stream: &MetricStream,
        ci_label: Option<&str>,
        config: &AnalysisConfig,
    ) -> Self {
        let values = stream.reservoir.values();
        let stats = summarize_samples(&values).ok();
        let ci = ci_label.and_then(|label| {
            bootstrap_mean_ci(label, &values, config.resamples, config.seed, config.alpha)
        });
        MetricReport {
            n: stream.count,
            stats,
            ci,
            sampled: stream.sampled(),
        }
    }
}

/// Finished summary of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell key.
    pub cell: String,
    /// Axis labels in [`crate::stream::AXES`] order.
    pub labels: [String; 6],
    /// Rows aggregated (including errored ones).
    pub trials: u64,
    /// Rows carrying an error message.
    pub errored: u64,
    /// Symbol alphabet size implied by the channel label (4 for the
    /// paper's 2-bit channels).
    pub alphabet: usize,
    /// Bit error rate (with bootstrap CI).
    pub ber: MetricReport,
    /// Symbol error rate.
    pub ser: MetricReport,
    /// Pooled error rate (BER when defined, else SER; with CI).
    pub error_rate: MetricReport,
    /// Gross throughput (b/s).
    pub throughput: MetricReport,
    /// Measured effective capacity (b/s).
    pub capacity_bps: MetricReport,
    /// Bias-corrected MI (bits/symbol).
    pub mi: MetricReport,
    /// Model capacity (bits/symbol) from the cell's mean error rate —
    /// `2(1−H₂(BER))` for 2-bit cells, the k-ary symmetric form for
    /// `-L<k>` cells, `None` for probes.
    pub capacity_model_bits_per_symbol: Option<f64>,
}

impl CellReport {
    /// Summarizes one cell accumulator.
    pub fn from_accumulator(acc: &CellAccumulator, config: &AnalysisConfig) -> Self {
        let metric = |stream: &MetricStream, tag: Option<&str>| {
            let label = tag.map(|t| format!("{}/{t}", acc.cell));
            MetricReport::from_stream(stream, label.as_deref(), config)
        };
        let ber = metric(&acc.ber, Some("ber"));
        let ser = metric(&acc.ser, Some("ser"));
        let channel = acc.labels[1].as_str();
        let alphabet = alphabet_size(channel).unwrap_or(4);
        let capacity_model_bits_per_symbol = match (&ber.stats, &ser.stats) {
            (Some(b), _) if alphabet_size(channel).is_none() => {
                Some(capacity_bits_2bit_from_ber(b.mean))
            }
            (_, Some(s)) if alphabet_size(channel).is_some() => {
                Some(capacity_bits_kary_from_ser(s.mean, alphabet))
            }
            (Some(b), _) => Some(capacity_bits_2bit_from_ber(b.mean)),
            _ => None,
        };
        CellReport {
            cell: acc.cell.clone(),
            labels: acc.labels.clone(),
            trials: acc.trials,
            errored: acc.errored,
            alphabet,
            ber,
            ser,
            error_rate: metric(&acc.error_rate, Some("error_rate")),
            throughput: metric(&acc.throughput, None),
            capacity_bps: metric(&acc.capacity_bps, None),
            mi: metric(&acc.mi, None),
            capacity_model_bits_per_symbol,
        }
    }
}

/// Pooled error rate of one axis value across every cell carrying it.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisValueReport {
    /// Axis name (a [`crate::stream::AXES`] entry).
    pub axis: String,
    /// The value's label on that axis.
    pub value: String,
    /// Cells carrying this value.
    pub cells: u64,
    /// Trials pooled.
    pub trials: u64,
    /// Pooled per-trial error rate (with bootstrap CI).
    pub error_rate: MetricReport,
}

impl AxisValueReport {
    /// Summarizes one axis-value pool.
    pub fn from_pool(
        axis: &str,
        value: &str,
        pool: &MetricStream,
        cells: u64,
        trials: u64,
        config: &AnalysisConfig,
    ) -> Self {
        let label = format!("axis/{axis}/{value}");
        AxisValueReport {
            axis: axis.to_string(),
            value: value.to_string(),
            cells,
            trials,
            error_rate: MetricReport::from_stream(pool, Some(&label), config),
        }
    }
}

/// How much one grid axis moves the pooled error rate: the spread
/// between its best and worst value means.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSensitivity {
    /// Axis name.
    pub axis: String,
    /// Values with a defined pooled error rate.
    pub values: usize,
    /// Value with the lowest mean error rate.
    pub min_value: String,
    /// That value's mean error rate.
    pub min_mean: f64,
    /// Value with the highest mean error rate.
    pub max_value: String,
    /// That value's mean error rate.
    pub max_mean: f64,
    /// `max_mean − min_mean` — the sensitivity ranking key.
    pub range: f64,
}

impl AxisSensitivity {
    /// Ranks an axis from its value reports; `None` when no value has
    /// a defined error rate (e.g. a probe-only sweep).
    pub fn from_values(axis: &str, values: &[AxisValueReport]) -> Option<Self> {
        let defined: Vec<(&str, f64)> = values
            .iter()
            .filter_map(|v| {
                v.error_rate
                    .stats
                    .as_ref()
                    .map(|s| (v.value.as_str(), s.mean))
            })
            .collect();
        let (min_value, min_mean) = defined.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1))?;
        let (max_value, max_mean) = defined.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))?;
        Some(AxisSensitivity {
            axis: axis.to_string(),
            values: defined.len(),
            min_value: min_value.to_string(),
            min_mean,
            max_value: max_value.to_string(),
            max_mean,
            range: max_mean - min_mean,
        })
    }
}

/// The finished analysis of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAnalysis {
    /// Campaign name.
    pub campaign: String,
    /// Rows aggregated.
    pub trials: u64,
    /// Rows carrying an error message.
    pub errored: u64,
    /// The configuration the statistics were computed under (echoed
    /// into the report for provenance).
    pub config: AnalysisConfig,
    /// Campaign-pooled error rate (with bootstrap CI).
    pub error_rate: MetricReport,
    /// Campaign-pooled measured capacity (b/s).
    pub capacity_bps: MetricReport,
    /// Mean of the per-cell model capacities (bits/symbol), over cells
    /// where the model applies.
    pub capacity_model_mean_bits_per_symbol: Option<f64>,
    /// Per-cell summaries, sorted by cell key.
    pub cells: Vec<CellReport>,
    /// Per-axis value pools, in axis then value order.
    pub axes: Vec<AxisValueReport>,
    /// Axis sensitivity ranking, most-sensitive first.
    pub sensitivity: Vec<AxisSensitivity>,
}

/// Appends `<prefix>_n/mean/std/median/p95` fields (and
/// `<prefix>_ci_lo/_ci_hi` when a CI was computed) for one metric;
/// undefined statistics render as `null`.
fn metric_fields(mut row: JsonlRow, prefix: &str, m: &MetricReport) -> JsonlRow {
    let s = m.stats.as_ref();
    let get = |f: fn(&Stats) -> f64| s.map_or(f64::NAN, f);
    row = row
        .int(&format!("{prefix}_n"), m.n)
        .num(&format!("{prefix}_mean"), get(|s| s.mean))
        .num(&format!("{prefix}_std"), get(|s| s.std_dev))
        .num(&format!("{prefix}_median"), get(|s| s.median))
        .num(&format!("{prefix}_p95"), get(|s| s.p95));
    if let Some(ci) = &m.ci {
        row = row
            .num(&format!("{prefix}_ci_lo"), ci.lo)
            .num(&format!("{prefix}_ci_hi"), ci.hi);
    }
    row
}

impl CampaignAnalysis {
    /// Renders the analysis as its JSONL records (campaign, cells,
    /// axes, sensitivity — in that order).
    fn jsonl_rows(&self) -> Vec<JsonlRow> {
        let mut rows = Vec::with_capacity(1 + self.cells.len() + self.axes.len());
        let mut campaign = JsonlRow::new()
            .str("record", "campaign")
            .str("campaign", &self.campaign)
            .int("trials", self.trials)
            .int("cells", self.cells.len() as u64)
            .int("errored", self.errored)
            .int("seed", self.config.seed)
            .int("resamples", self.config.resamples as u64)
            .num("alpha", self.config.alpha)
            .int("reservoir", self.config.reservoir as u64);
        campaign = metric_fields(campaign, "error_rate", &self.error_rate);
        campaign = metric_fields(campaign, "capacity_bps", &self.capacity_bps);
        campaign = campaign.num(
            "capacity_model_mean_bits_per_symbol",
            self.capacity_model_mean_bits_per_symbol.unwrap_or(f64::NAN),
        );
        rows.push(campaign);

        for cell in &self.cells {
            let mut row = JsonlRow::new()
                .str("record", "cell")
                .str("campaign", &self.campaign)
                .str("cell", &cell.cell);
            for (axis, label) in crate::stream::AXES.iter().zip(&cell.labels) {
                row = row.str(axis, label);
            }
            row = row
                .int("trials", cell.trials)
                .int("errored", cell.errored)
                .int("alphabet", cell.alphabet as u64)
                .bool("sampled", cell.ber.sampled || cell.error_rate.sampled);
            row = metric_fields(row, "ber", &cell.ber);
            row = metric_fields(row, "ser", &cell.ser);
            row = metric_fields(row, "error_rate", &cell.error_rate);
            row = metric_fields(row, "throughput_bps", &cell.throughput);
            row = metric_fields(row, "capacity_bps", &cell.capacity_bps);
            row = metric_fields(row, "mi_bits_per_symbol", &cell.mi);
            row = row.num(
                "capacity_model_bits_per_symbol",
                cell.capacity_model_bits_per_symbol.unwrap_or(f64::NAN),
            );
            rows.push(row);
        }

        for axis in &self.axes {
            let mut row = JsonlRow::new()
                .str("record", "axis")
                .str("campaign", &self.campaign)
                .str("axis", &axis.axis)
                .str("value", &axis.value)
                .int("cells", axis.cells)
                .int("trials", axis.trials);
            row = metric_fields(row, "error_rate", &axis.error_rate);
            rows.push(row);
        }

        for s in &self.sensitivity {
            rows.push(
                JsonlRow::new()
                    .str("record", "sensitivity")
                    .str("campaign", &self.campaign)
                    .str("axis", &s.axis)
                    .int("values", s.values as u64)
                    .str("min_value", &s.min_value)
                    .num("min_mean", s.min_mean)
                    .str("max_value", &s.max_value)
                    .num("max_mean", s.max_mean)
                    .num("range", s.range),
            );
        }
        rows
    }

    /// Renders the analysis as one JSONL document.
    pub fn to_jsonl(&self) -> String {
        jsonl_to_string(self.jsonl_rows().iter())
    }
}

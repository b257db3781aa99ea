//! # `ichannels-analysis` — streaming capacity statistics over merged campaigns
//!
//! The statistics layer of the IChannels reproduction: consumes the
//! per-trial JSONL streams the campaign engine writes (unsharded runs
//! or `campaign merge` output) and produces the information-theoretic
//! summaries the paper reports — per-cell error rates with bootstrap
//! confidence intervals, Shannon capacity estimates from the error
//! matrices those rates imply, and a per-axis sensitivity ranking of
//! which grid knob moves the error rate most. `docs/METHODOLOGY.md`
//! documents every estimator. Order statistics come from
//! [`ichannels_meter::stats::summarize_samples`], the same nearest-rank
//! estimator the engine's `*_cells.csv` rows use, so a cell has one
//! median in both files.
//!
//! * [`bootstrap`] — seeded, label-keyed percentile-bootstrap CIs;
//! * [`capacity`] — capacity estimators from implied confusion
//!   matrices (2-bit symmetric and k-ary symmetric);
//! * [`stream`] — [`Analysis`]: the constant-memory streaming
//!   aggregator (bounded bottom-k-by-hash reservoirs, mergeable shard
//!   by shard, canonical-order statistics);
//! * [`report`] — [`CampaignAnalysis`] and its byte-stable JSONL
//!   rendering.
//!
//! The same reproducibility contract as the engine: the report bytes
//! are a pure function of the trial-row set and the
//! [`AnalysisConfig`] — independent of row order, thread counts, and
//! shard grouping.
//!
//! ```
//! use ichannels_analysis::{Analysis, AnalysisConfig};
//! use ichannels_lab::{campaigns, Executor, Grid};
//! use ichannels_lab::scenario::NoiseSpec;
//!
//! let grid = Grid::new()
//!     .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
//!     .trials(2)
//!     .payload_symbols(6);
//! let report = campaigns::run("demo", &grid, Executor::serial());
//! let mut analysis = Analysis::new("demo", AnalysisConfig::default());
//! for record in &report.records {
//!     analysis.add_row(&ichannels_lab::TrialRow::from_record(record));
//! }
//! let finished = analysis.finish();
//! assert_eq!(finished.trials, 4);
//! assert_eq!(finished.cells.len(), 2);
//! // Every cell reports a BER with a bootstrap CI around its mean.
//! for cell in &finished.cells {
//!     let stats = cell.ber.stats.as_ref().unwrap();
//!     let ci = cell.ber.ci.as_ref().unwrap();
//!     assert!(ci.lo <= stats.mean && stats.mean <= ci.hi);
//! }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod capacity;
pub mod report;
pub mod stream;

pub use report::{AxisSensitivity, AxisValueReport, CampaignAnalysis, CellReport, MetricReport};
pub use stream::{Analysis, StreamError};

/// Configuration of one analysis pass: the bootstrap seed/shape and
/// the reservoir capacity. Echoed into the report for provenance —
/// two reports are only comparable under the same configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Base seed of the bootstrap streams (each label derives its own
    /// independent stream from it).
    pub seed: u64,
    /// Bootstrap resamples per interval.
    pub resamples: usize,
    /// Two-sided miscoverage: intervals are at confidence `1 − alpha`.
    pub alpha: f64,
    /// Per-metric reservoir capacity (samples kept per cell).
    pub reservoir: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            seed: 0x0A11_A712,
            resamples: 256,
            alpha: 0.05,
            reservoir: 512,
        }
    }
}

/// Analyzes one complete (headerless) trial stream: every line must be
/// a trial row.
///
/// # Errors
///
/// Returns the 1-based line number and the [`StreamError`] of the
/// first line that is not a trial row — including the
/// merge-the-shards-first rejection of shard headers.
pub fn analyze_stream(
    campaign: &str,
    text: &str,
    config: AnalysisConfig,
) -> Result<Analysis, (usize, StreamError)> {
    let mut analysis = Analysis::new(campaign, config);
    for (i, line) in text.lines().enumerate() {
        analysis.add_jsonl_line(line).map_err(|e| (i + 1, e))?;
    }
    Ok(analysis)
}

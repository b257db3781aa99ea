//! # `ichannels-meter` — measurement substrate
//!
//! The statistics, series and export used throughout the evaluation.
//!
//! * [`stats`] — the one sample estimator ([`stats::summarize_samples`]:
//!   mean, σ, nearest-rank percentiles) behind cell CSVs, figures,
//!   `analysis.jsonl` and bench timings; minimum level separation;
//!   confusion matrices / BER / mutual information (Figure 14, channel
//!   capacity).
//! * [`series`] — time series with automatic step detection for the
//!   Figure 6 voltage staircase.
//! * [`export`] — CSV tables for `results/*.csv` and the JSONL trial
//!   stream writer.
//! * [`parse`] — the JSONL read side: the flat-row rule on top of the
//!   shared `ichannels_obs::json` reader, to reload campaign trial
//!   streams for shard merging and resume.
//!
//! # Example
//!
//! ```
//! use ichannels_meter::stats::ConfusionMatrix;
//!
//! let mut m = ConfusionMatrix::new(4);
//! for s in 0..4 {
//!     m.record(s, s); // a perfect 2-bit channel
//! }
//! assert_eq!(m.bit_error_rate_2bit(), 0.0);
//! assert!((m.mutual_information_bits_corrected() - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod parse;
pub mod series;
pub mod stats;

pub use export::CsvTable;
pub use parse::parse_jsonl_line;
pub use series::{Series, Step};
pub use stats::ConfusionMatrix;

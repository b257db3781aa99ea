//! # `ichannels-bench` — the paper-regeneration harness
//!
//! One module per evaluation artifact of the IChannels paper. Each
//! module exposes `run(quick)`, which returns a `Result` and which the
//! `repro_all` binary calls in sequence, stopping at the first error
//! (`cargo run -p ichannels-bench --bin repro_all`). An error is a
//! `String`: a CSV that could not be written, or a grid cell the
//! harness needs that the grid did not run. `quick = true` shrinks
//! trial counts for smoke tests; the binary defaults to full fidelity.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`figs::fig06`] | Fig. 6 — Vcc steps under multi-core AVX2 / calculix |
//! | [`figs::fig07`] | Fig. 7 — Vccmax/Iccmax protection, 3-phase timeline |
//! | [`figs::fig08`] | Fig. 8 — TP distributions, AVX power-gate wake |
//! | [`figs::fig09`] | Fig. 9 — throttling timelines (guardband & P-state) |
//! | [`figs::fig10`] | Fig. 10 — multi-level throttling periods |
//! | [`figs::fig11`] | Fig. 11 — IDQ undelivered-uops distributions |
//! | [`figs::fig12`] | Fig. 12 — channel throughput vs state of the art |
//! | [`figs::fig13`] | Fig. 13 — receiver TP distribution per level |
//! | [`figs::fig14`] | Fig. 14 — BER under noise / concurrent apps |
//! | [`figs::table1`] | Table 1 — mitigation effectiveness & overhead |
//! | [`figs::table2`] | Table 2 — comparison with NetSpectre/TurboCC |

#![warn(missing_docs)]

pub mod figs;

use ichannels_analysis::AnalysisConfig;
use ichannels_lab::{Scenario, TrialRecord};
use ichannels_meter::export::CsvTable;
use std::path::{Path, PathBuf};

/// Directory where harness binaries write `*.csv` (default `results/`,
/// overridable via `ICHANNELS_RESULTS`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("ICHANNELS_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes a table under the results dir and logs the path. A missing
/// results directory is created by [`CsvTable::write_to`] (it creates
/// every parent of the target path).
///
/// # Errors
///
/// The `io::Error` of the write, with the path it failed on.
pub fn write_csv(table: &CsvTable, name: &str) -> Result<(), String> {
    let path = results_dir().join(name);
    table
        .write_to(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  wrote {} ({} rows)", path.display(), table.len());
    Ok(())
}

/// The first record whose scenario `matches`. A grid drops the cells
/// its platform cannot host, so a harness treats a cell it needs as
/// possibly missing.
///
/// # Errors
///
/// Names the missing `cell` when no record matches.
pub(crate) fn find_cell<'r>(
    records: &'r [TrialRecord],
    cell: &str,
    matches: impl Fn(&Scenario) -> bool,
) -> Result<&'r TrialRecord, String> {
    records
        .iter()
        .find(|r| matches(&r.scenario))
        .ok_or_else(|| format!("the grid ran no {cell} cell"))
}

/// Prints a banner for one artifact.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Runs the `ichannels-analysis` statistics layer over each
/// `(campaign, trial stream)`, prints one summary per campaign, and
/// writes the concatenated report to `out`. Returns the report.
/// `campaign analyze` and the `repro_all` analysis stage both call
/// this, so their `analysis.jsonl` bytes are identical.
///
/// Campaigns are analyzed in name order, so the report's bytes never
/// depend on the order the caller found the streams in (directory
/// enumeration, catalog order).
///
/// # Errors
///
/// An unreadable stream, the first line of a stream that is not a trial
/// row (`path:line: why`), or a failed write.
pub fn analyze_streams(
    mut streams: Vec<(String, PathBuf)>,
    config: AnalysisConfig,
    out: &Path,
) -> Result<String, String> {
    streams.sort();
    let mut document = String::new();
    for (campaign, path) in &streams {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report = ichannels_analysis::analyze_stream(campaign, &text, config)
            .map_err(|(line, e)| format!("{}:{line}: {e}", path.display()))?
            .finish();
        print_analysis_summary(&report);
        document.push_str(&report.to_jsonl());
    }
    std::fs::write(out, &document).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(document)
}

/// The per-campaign one-liner of [`analyze_streams`]: trial/cell
/// counts, the pooled error rate with its bootstrap CI, the mean model
/// capacity, and the most sensitive grid axis.
fn print_analysis_summary(report: &ichannels_analysis::CampaignAnalysis) {
    print!(
        "{}: {} trial(s), {} cell(s), {} errored",
        report.campaign,
        report.trials,
        report.cells.len(),
        report.errored
    );
    if let (Some(stats), Some(ci)) = (&report.error_rate.stats, &report.error_rate.ci) {
        print!(
            "; error rate {:.4} [{:.4}, {:.4}]",
            stats.mean, ci.lo, ci.hi
        );
    }
    if let Some(capacity) = report.capacity_model_mean_bits_per_symbol {
        print!("; model capacity {capacity:.3} bits/symbol");
    }
    println!();
    if let Some(top) = report.sensitivity.first() {
        println!(
            "  most sensitive axis: {} (error-rate range {:.4} across {} value(s): \
             {} {:.4} .. {} {:.4})",
            top.axis,
            top.range,
            top.values,
            top.min_value,
            top.min_mean,
            top.max_value,
            top.max_mean
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_cell_is_an_error_naming_it() {
        let err = find_cell(&[], "NetSpectre", |_| true).expect_err("no records");
        assert_eq!(err, "the grid ran no NetSpectre cell");
    }
}

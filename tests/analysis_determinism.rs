//! Integration tests of the analysis layer's reproducibility
//! contract: the report bytes are a pure function of the trial-row
//! set and the [`AnalysisConfig`] — independent of row order, the
//! executor's thread count, and how the stream was sharded.

use ichannels_repro::ichannels::channel::ChannelKind;
use ichannels_repro::ichannels_analysis::{analyze_stream, Analysis, AnalysisConfig};
use ichannels_repro::ichannels_lab::report::{
    rows_to_jsonl, summaries_to_csv, summarize_rows, TrialRow,
};
use ichannels_repro::ichannels_lab::scenario::NoiseSpec;
use ichannels_repro::ichannels_lab::{Executor, Grid, ShardSpec};

fn reference_grid() -> Grid {
    Grid::new()
        .kinds(&[ChannelKind::Thread, ChannelKind::Cores])
        .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
        .trials(3)
        .payload_symbols(4)
}

fn rows_with_threads(threads: usize) -> Vec<TrialRow> {
    Executor::new(threads)
        .run(&reference_grid().scenarios())
        .iter()
        .map(TrialRow::from_record)
        .collect()
}

fn analyze_rows<'a>(rows: impl IntoIterator<Item = &'a TrialRow>) -> String {
    let mut analysis = Analysis::new("ref", AnalysisConfig::default());
    for row in rows {
        analysis.add_row(row);
    }
    analysis.finish().to_jsonl()
}

#[test]
fn report_bytes_are_independent_of_threads_order_and_sharding() {
    let rows = rows_with_threads(1);
    let reference = analyze_rows(&rows);
    assert!(!reference.is_empty());

    // Thread count: a parallel run yields the same rows, hence the
    // same report bytes.
    let parallel = rows_with_threads(4);
    assert_eq!(analyze_rows(&parallel), reference);

    // Row order: feeding the stream backwards cannot move a byte.
    let reversed: Vec<&TrialRow> = rows.iter().rev().collect();
    assert_eq!(analyze_rows(reversed.into_iter()), reference);

    // Shard grouping: building one Analysis per shard slice and
    // merging them equals aggregating the union directly.
    let scenarios = reference_grid().scenarios();
    let mut merged = Analysis::new("ref", AnalysisConfig::default());
    for index in 0..3 {
        let spec = ShardSpec::new(index, 3).expect("valid spec");
        let keys: Vec<String> = spec.select(&scenarios).iter().map(|s| s.label()).collect();
        let mut shard = Analysis::new("ref", AnalysisConfig::default());
        for row in rows.iter().filter(|r| keys.contains(&r.trial_key())) {
            shard.add_row(row);
        }
        merged.merge(&shard);
    }
    assert_eq!(merged.rows(), rows.len() as u64);
    assert_eq!(merged.finish().to_jsonl(), reference);
}

#[test]
fn stream_text_and_in_memory_rows_agree() {
    let rows = rows_with_threads(2);
    let text = rows_to_jsonl(&rows);
    let analysis =
        analyze_stream("ref", &text, AnalysisConfig::default()).expect("every line is a trial row");
    assert_eq!(analysis.rows(), rows.len() as u64);
    assert_eq!(analysis.finish().to_jsonl(), analyze_rows(&rows));
}

#[test]
fn config_is_part_of_the_function() {
    let rows = rows_with_threads(1);
    let base = analyze_rows(&rows);
    let mut config = AnalysisConfig::default();
    config.seed ^= 1;
    let mut analysis = Analysis::new("ref", config);
    for row in &rows {
        analysis.add_row(row);
    }
    // A different bootstrap seed moves the CIs — the config is echoed
    // into the report precisely because the bytes depend on it.
    assert_ne!(analysis.finish().to_jsonl(), base);
}

#[test]
fn a_cell_has_one_median_in_the_cell_csv_and_the_analysis() {
    // One cell of four trials with distinct throughputs: nearest-rank
    // takes the lower middle sample (2000), where interpolation would
    // average the two middle ones (2500).
    let grid = Grid::new()
        .kinds(&[ChannelKind::Thread])
        .trials(4)
        .payload_symbols(4);
    let mut rows: Vec<TrialRow> = Executor::serial()
        .run(&grid.scenarios())
        .iter()
        .map(TrialRow::from_record)
        .collect();
    for (row, tp) in rows.iter_mut().zip([4000.0, 1000.0, 3000.0, 2000.0]) {
        row.metrics.throughput_bps = tp;
    }

    let csv = summaries_to_csv(&summarize_rows(&rows)).to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let cells: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert_eq!(cells.len(), 1, "one cell: {csv}");
    let p50 = header
        .iter()
        .position(|&h| h == "throughput_p50_bps")
        .expect("p50 column");
    let csv_median: f64 = cells[0][p50].parse().expect("p50 is a number");

    let analysis = analyze_stream("median", &rows_to_jsonl(&rows), AnalysisConfig::default())
        .expect("every line is a trial row")
        .finish();
    assert_eq!(analysis.cells.len(), 1);
    let stats = analysis.cells[0]
        .throughput
        .stats
        .expect("throughput is defined");

    assert_eq!(stats.median, 2000.0);
    assert_eq!(csv_median, stats.median, "{csv}");
}

//! Integration tests of the `ichannels-lab` campaign engine: grid
//! cardinality, parallel-vs-serial determinism, and an end-to-end smoke
//! campaign across platforms, channels, and noise levels (the
//! acceptance sweep: ≥2 platforms × 3 channel kinds × ≥2 noise levels
//! on a 4-thread pool).

use ichannels_repro::ichannels::channel::ChannelKind;
use ichannels_repro::ichannels_lab::campaigns::RunConfig;
use ichannels_repro::ichannels_lab::report::{rows_to_jsonl, summaries_to_csv, summarize_rows};
use ichannels_repro::ichannels_lab::scenario::{
    ChannelSelect, Knob, NoiseSpec, PayloadSpec, PlatformId,
};
use ichannels_repro::ichannels_lab::{
    campaigns, AlphabetSpec, Executor, Grid, TrialRecord, TrialRow,
};
use proptest::prelude::*;

fn rows(records: &[TrialRecord]) -> Vec<TrialRow> {
    records.iter().map(TrialRow::from_record).collect()
}

fn acceptance_grid() -> Grid {
    Grid::new()
        .platforms(vec![PlatformId::CannonLake, PlatformId::CoffeeLake])
        .kinds(&[ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores])
        .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
        .payload_symbols(6)
        .calib_reps(2)
}

#[test]
fn grid_cardinality_counts_the_cross_product() {
    let grid = acceptance_grid();
    // 2 platforms × 3 kinds × 2 noises = 12 raw; Coffee Lake has no
    // SMT, so its 2 SMT cells are filtered.
    assert_eq!(grid.cardinality(), 12);
    assert_eq!(grid.scenarios().len(), 10);
    // Trials multiply the cardinality.
    assert_eq!(acceptance_grid().trials(5).cardinality(), 60);
}

#[test]
fn four_thread_pool_matches_serial_bit_for_bit() {
    let scenarios = acceptance_grid().scenarios();
    let serial = Executor::serial().run(&scenarios);
    let parallel = Executor::new(4).run(&scenarios);
    // Identical JSONL trial rows…
    assert_eq!(
        rows_to_jsonl(&rows(&serial)),
        rows_to_jsonl(&rows(&parallel))
    );
    // …and identical aggregate rows.
    let cells = |executor| {
        let report = campaigns::run("det", &acceptance_grid(), executor);
        summaries_to_csv(&summarize_rows(&rows(&report.records))).to_csv()
    };
    assert_eq!(cells(Executor::serial()), cells(Executor::new(4)));
}

#[test]
fn acceptance_campaign_covers_all_three_channel_kinds() {
    let report = campaigns::run("acceptance", &acceptance_grid(), Executor::new(4));
    assert_eq!(report.records.len(), 10);
    for kind in ["IccThreadCovert", "IccSMTcovert", "IccCoresCovert"] {
        let cells: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.scenario.channel.label() == kind)
            .collect();
        assert!(!cells.is_empty(), "{kind} missing from the sweep");
        for record in cells {
            assert!(
                record.metrics.throughput_bps > 2_500.0,
                "{}: {} b/s",
                record.scenario.label(),
                record.metrics.throughput_bps
            );
            assert!(
                record.metrics.min_separation_cycles > 500.0,
                "{}: separation {}",
                record.scenario.label(),
                record.metrics.min_separation_cycles
            );
        }
    }
    // Aggregation produced one summary row per cell.
    assert_eq!(summarize_rows(&rows(&report.records)).len(), 10);
}

#[test]
fn every_catalog_campaign_is_parallel_serial_identical() {
    // The engine invariant the figure migration leans on, for the whole
    // catalog (not just the PR-1 campaigns): any worker count produces
    // bit-identical trial rows, and aggregation preserves them all.
    for (name, grid) in campaigns::catalog(true) {
        let scenarios = grid.scenarios();
        assert!(!scenarios.is_empty(), "{name} is empty");
        let serial = Executor::serial().run(&scenarios);
        let parallel = Executor::new(4).run(&scenarios);
        assert_eq!(
            rows_to_jsonl(&rows(&serial)),
            rows_to_jsonl(&rows(&parallel)),
            "{name} diverged across worker counts"
        );
        assert_eq!(parallel.len(), scenarios.len(), "{name} dropped records");
        assert!(
            !summarize_rows(&rows(&parallel)).is_empty(),
            "{name} has no cells"
        );
    }
}

#[test]
fn modulation_capacity_sweeps_alphabets_on_client_and_server() {
    let (_, grid) = campaigns::catalog(true)
        .into_iter()
        .find(|(name, _)| *name == "modulation_capacity")
        .expect("modulation_capacity registered in the catalog");
    let records = Executor::new(4).run(&grid.scenarios());
    // 2 platforms × {Thread, Cores} × {4, 6, 7}-level alphabets.
    assert_eq!(records.len(), 12);
    for platform in [PlatformId::CannonLake, PlatformId::SkylakeServer] {
        for kind in [ChannelKind::Thread, ChannelKind::Cores] {
            let tp_of = |alpha: AlphabetSpec| {
                records
                    .iter()
                    .find(|r| {
                        r.scenario.platform == platform
                            && r.scenario.channel == ChannelSelect::MultiLevel(kind, alpha)
                    })
                    .expect("cell present")
                    .metrics
                    .throughput_bps
            };
            // Raw throughput grows with the alphabet order (2 → 2.58 →
            // 2.81 bits/transaction at the same symbol rate).
            let (l4, l6, l7) = (
                tp_of(AlphabetSpec::Paper4),
                tp_of(AlphabetSpec::Phi6),
                tp_of(AlphabetSpec::Full7),
            );
            assert!(
                l4 < l6 && l6 < l7,
                "{}/{kind}: raw throughput not ordered: {l4} {l6} {l7}",
                platform.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn grid_cardinality_is_the_product_of_axis_cardinalities(
        n_platforms in 1usize..5,
        n_noises in 1usize..4,
        n_knobs in 1usize..3,
        n_payloads in 1usize..5,
        n_freqs in 1usize..4,
        trials in 1u32..4,
    ) {
        let mut knobs: Vec<Option<Knob>> = vec![None];
        knobs.extend((1..n_knobs).map(|i| Some(Knob::VrSlew(2.4 * i as f64))));
        let grid = Grid::new()
            .platforms(PlatformId::ALL[..n_platforms.min(4)].to_vec())
            .noises((0..n_noises).map(|i| NoiseSpec::Interrupts(10.0 * (i + 1) as f64)).collect())
            .knobs(knobs)
            .payloads((0..n_payloads.min(4)).map(|i| PayloadSpec::Constant(i as u8)).collect())
            .freqs((0..n_freqs).map(|i| Some(1.0 + 0.2 * i as f64)).collect())
            .trials(trials);
        let expected = n_platforms.min(4)
            * n_noises
            * n_knobs
            * n_payloads.min(4)
            * n_freqs
            * trials as usize;
        prop_assert_eq!(grid.cardinality(), expected);
        // The default channel axis (same-thread IChannel) is supported
        // everywhere, so no cell is filtered.
        prop_assert_eq!(grid.scenarios().len(), expected);
        // Per-trial seeds are unique across the whole enumeration.
        let mut seeds: Vec<u64> = grid.scenarios().iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), expected);
    }
}

#[test]
fn campaign_report_streams_jsonl_and_csv() {
    let dir = std::env::temp_dir().join("ichannels_campaign_engine_test");
    let _ = std::fs::remove_dir_all(&dir);
    let run = campaigns::run_to_dir(
        "itest",
        &acceptance_grid(),
        Executor::new(2),
        &dir,
        RunConfig::default(),
    )
    .expect("campaign written");
    let paths = &run.paths;
    assert_eq!(paths.len(), 3);
    let jsonl = std::fs::read_to_string(&paths[0]).expect("jsonl readable");
    assert_eq!(jsonl.lines().count(), run.rows.len());
    // Every line is one self-describing JSON object.
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"cell\":"), "{line}");
    }
    let cells_csv = std::fs::read_to_string(&paths[2]).expect("cells csv readable");
    assert_eq!(cells_csv.lines().count(), run.cells.len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

//! Figure 13 — distribution of the receiver's throttling-period
//! measurement for each of the four levels on a low-noise system
//! (paper §6.3).
//!
//! Expected shape: four non-overlapping clusters (L1..L4) separated by
//! more than 2 000 TSC cycles ⇒ near-zero error rate.
//!
//! The four levels form the channel axis of an `ichannels-lab` grid
//! (one `LevelDuration` probe per level) and the repetitions are engine
//! trials, executed on the worker pool.

use ichannels::symbols::Symbol;
use ichannels_lab::scenario::{ChannelSelect, NoiseSpec, ProbeKind};
use ichannels_lab::{Executor, Grid};
use ichannels_meter::export::CsvTable;
use ichannels_meter::stats::{min_separation, summarize_samples};

use crate::{banner, expect_trials, write_csv};

/// Per-level cluster summary.
#[derive(Debug, Clone)]
pub struct LevelCluster {
    /// The level (paper labels L4..L1 = symbols 00..11).
    pub symbol: Symbol,
    /// Mean receiver duration (TSC cycles).
    pub mean_cycles: f64,
    /// Standard deviation (cycles).
    pub std_cycles: f64,
}

/// Runs the Figure 13 experiment; returns the four clusters and the
/// minimum separation.
///
/// # Errors
///
/// A level whose durations cannot be summarized, or a failed CSV
/// write.
pub fn run(quick: bool) -> Result<(Vec<LevelCluster>, f64), String> {
    banner("Figure 13: receiver TP distribution per level (low-noise system)");
    let reps = if quick { 10 } else { 100 };
    // "relatively low noise (interrupt and context-switch rates below
    // 1000 events per second) while other non-AVX applications run".
    let channels: Vec<ChannelSelect> = Symbol::ALL
        .iter()
        .map(|s| ChannelSelect::Probe(ProbeKind::LevelDuration { level: s.value() }))
        .collect();
    let grid = Grid::new()
        .channels(channels)
        .noises(vec![NoiseSpec::Low])
        .trials(reps)
        .base_seed(0xF1_13);
    let records = Executor::auto().run(&grid.scenarios());

    let mut csv = CsvTable::new(["level", "bits", "duration_cycles"]);
    let mut clusters = Vec::new();
    for s in Symbol::ALL {
        let durations: Vec<f64> = records
            .iter()
            .filter(|r| {
                r.scenario.channel
                    == ChannelSelect::Probe(ProbeKind::LevelDuration { level: s.value() })
            })
            .map(|r| r.metrics.probe_value)
            .collect();
        expect_trials(durations.len(), reps as usize, &format!("level {s}"))?;
        for d in &durations {
            csv.push_row([
                format!("L{}", 4 - s.value()),
                s.to_string(),
                format!("{d:.0}"),
            ]);
        }
        // A failed probe's NaN stops the figure rather than skew a
        // cluster.
        let sum = summarize_samples(&durations)
            .map_err(|e| format!("L{} durations: {e}", 4 - s.value()))?;
        println!(
            "  L{} (bits {}): {:>8.0} ± {:>5.0} cycles  [{:.0}, {:.0}]",
            4 - s.value(),
            s,
            sum.mean,
            sum.std_dev,
            sum.min,
            sum.max
        );
        clusters.push(LevelCluster {
            symbol: s,
            mean_cycles: sum.mean,
            std_cycles: sum.std_dev,
        });
    }
    let means: Vec<f64> = clusters.iter().map(|c| c.mean_cycles).collect();
    let min_sep = min_separation(&means);
    println!("  minimum level separation: {min_sep:.0} cycles (paper: > 2000)");
    write_csv(&csv, "fig13_tp_distribution.csv")?;
    Ok((clusters, min_sep))
}

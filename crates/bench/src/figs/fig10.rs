//! Figure 10 — multi-level throttling periods (paper §5.5).
//!
//! (a) TP of each of the seven instruction classes at 1.0/1.2/1.4 GHz on
//! one and two Cannon Lake cores: the TP grows with intensity, with
//! frequency, and with the number of PHI cores (Key Conclusion 4).
//!
//! (b) TP of a 512b-Heavy loop preceded by each class at 1.4 GHz: the
//! lighter the preceding class, the longer the remaining ramp — at least
//! five distinct levels (L1–L5).
//!
//! Both panels are `ichannels-lab` grids: (a) sweeps TP probes over the
//! class × core-count channel axis and the engine's frequency axis; (b)
//! sweeps the preceded-TP probe over the class axis.

use ichannels_lab::scenario::{ChannelSelect, ProbeKind};
use ichannels_lab::{Executor, Grid};
use ichannels_meter::export::CsvTable;
use ichannels_meter::stats::distinct_levels;
use ichannels_uarch::isa::InstClass;

use crate::{banner, find_cell, write_csv};

/// Runs Figure 10(a): TP per class × frequency × core count.
/// Returns `(class, freq_ghz, cores, tp_us)` rows.
///
/// # Errors
///
/// A cell the grid did not run, or a failed CSV write.
pub fn run_sweep(_quick: bool) -> Result<Vec<(InstClass, f64, usize, f64)>, String> {
    banner("Figure 10(a): throttling period vs class, frequency, core count");
    let mut channels = Vec::new();
    for class in InstClass::ALL {
        for cores in [1u8, 2] {
            channels.push(ChannelSelect::Probe(ProbeKind::Tp { class, cores }));
        }
    }
    let grid = Grid::new()
        .channels(channels)
        .freqs(vec![Some(1.0), Some(1.2), Some(1.4)])
        .base_seed(0x10A);
    let records = Executor::auto().run(&grid.scenarios());
    let tp_of = |class: InstClass, cores: u8, ghz: f64| {
        let channel = ChannelSelect::Probe(ProbeKind::Tp { class, cores });
        find_cell(&records, &format!("{class} x{cores} @ {ghz} GHz"), |s| {
            s.freq_ghz == Some(ghz) && s.channel == channel
        })
        .map(|r| r.metrics.probe_value)
    };

    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["class", "freq_ghz", "cores", "tp_us"]);
    println!(
        "  {:<12} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}",
        "class", "1.0GHz", "1.2GHz", "1.4GHz", "1.0GHz", "1.2GHz", "1.4GHz"
    );
    println!("  {:<12} {:-^26}   {:-^26}", "", " 1 core ", " 2 cores ");
    for class in InstClass::ALL {
        let mut line = format!("  {:<12}", class.to_string());
        for cores in [1usize, 2] {
            for ghz in [1.0, 1.2, 1.4] {
                let tp = tp_of(class, cores as u8, ghz)?;
                rows.push((class, ghz, cores, tp));
                csv.push_row([
                    class.to_string(),
                    format!("{ghz}"),
                    cores.to_string(),
                    format!("{tp:.3}"),
                ]);
                line.push_str(&format!(" {tp:>8.2}"));
            }
            line.push_str("  ");
        }
        println!("{line}");
    }
    write_csv(&csv, "fig10a_tp_sweep.csv")?;
    Ok(rows)
}

/// Runs Figure 10(b): TP of 512b-Heavy after each preceding class.
/// Returns `(preceding_class, tp_us)` pairs.
///
/// # Errors
///
/// A failed CSV write.
pub fn run_preceded(_quick: bool) -> Result<Vec<(InstClass, f64)>, String> {
    banner("Figure 10(b): 512b-Heavy TP vs preceding instruction class (1.4 GHz)");
    let grid = Grid::new()
        .channels(
            InstClass::ALL
                .iter()
                .map(|&prev| ChannelSelect::Probe(ProbeKind::PrecededTp { prev }))
                .collect(),
        )
        .freq_ghz(1.4)
        .base_seed(0x10B);
    let records = Executor::auto().run(&grid.scenarios());

    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["preceding_class", "tp_us"]);
    for (prev, record) in InstClass::ALL.iter().zip(&records) {
        debug_assert_eq!(
            record.scenario.channel,
            ChannelSelect::Probe(ProbeKind::PrecededTp { prev: *prev })
        );
        let tp = record.metrics.probe_value;
        println!("  preceded by {:<12} → TP = {tp:>6.2} µs", prev.to_string());
        csv.push_row([prev.to_string(), format!("{tp:.3}")]);
        rows.push((*prev, tp));
    }
    let tps: Vec<f64> = rows.iter().map(|(_, t)| *t).collect();
    let levels = distinct_levels(&tps, 0.5);
    println!("  distinct throttling levels (0.5 µs tolerance): {levels} (paper: ≥5)");
    write_csv(&csv, "fig10b_preceded.csv")?;
    Ok(rows)
}

/// Runs both parts of Figure 10.
///
/// # Errors
///
/// What [`run_sweep`] or [`run_preceded`] returns.
pub fn run(quick: bool) -> Result<(), String> {
    run_sweep(quick)?;
    run_preceded(quick)?;
    Ok(())
}

//! Ablation studies over the model's design parameters: what property
//! of the hardware actually gives the channel its capacity, and which
//! knob a defender would want to turn.
//!
//! * **VR slew rate** — faster ramps compress the TP levels toward the
//!   noise floor (the quantitative version of the §7 LDO argument).
//! * **Reset-time (hysteresis)** — directly sets the transaction period
//!   and hence the throughput ceiling.
//! * **Receiver measurement jitter** — how much timing noise the 4-level
//!   decoding tolerates.
//!
//! Each sweep is one `ichannels-lab` grid over the engine's design-knob
//! axis, executed on the worker pool.

use ichannels_lab::scenario::Knob;
use ichannels_lab::{Executor, Grid, TrialMetrics};
use ichannels_meter::export::CsvTable;

use crate::{banner, find_cell, write_csv};

/// Runs a sweep of the same-thread channel over `knob(v)` for each of
/// `values` and returns `(value, metrics)` per value, in axis order.
fn knob_sweep(
    values: &[f64],
    knob: fn(f64) -> Knob,
    payload_symbols: usize,
    base_seed: u64,
) -> Result<Vec<(f64, TrialMetrics)>, String> {
    let grid = Grid::new()
        .knobs(values.iter().map(|&v| Some(knob(v))).collect())
        .payload_symbols(payload_symbols)
        .calib_reps(3)
        .base_seed(base_seed);
    let records = Executor::auto().run(&grid.scenarios());
    values
        .iter()
        .map(|&v| {
            let record = find_cell(&records, &knob(v).label(), |s| s.knob == Some(knob(v)))?;
            Ok((v, record.metrics))
        })
        .collect()
}

/// Sweeps the VR slew rate; returns `(slew_mv_per_us, capacity_bps, ber)`.
fn run_slew_sweep(quick: bool) -> Result<Vec<(f64, f64, f64)>, String> {
    banner("Ablation: VR slew rate vs channel capacity (IccThreadCovert)");
    let n = if quick { 30 } else { 80 };
    let slews = [1.2, 2.4, 4.8, 9.6, 19.2, 80.0];
    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["slew_mv_per_us", "capacity_bps", "ber"]);
    for (slew, metrics) in knob_sweep(&slews, Knob::VrSlew, n, 0x51E)? {
        println!(
            "  slew {slew:>5.1} mV/µs → capacity {:>7.0} b/s, BER {:.3}, min separation {:>6.0} cycles",
            metrics.capacity_bps, metrics.ber, metrics.min_separation_cycles
        );
        csv.push_floats([slew, metrics.capacity_bps, metrics.ber]);
        rows.push((slew, metrics.capacity_bps, metrics.ber));
    }
    println!("  (faster regulators compress the levels: the §7 LDO mitigation, quantified)");
    write_csv(&csv, "ablation_slew.csv")?;
    Ok(rows)
}

/// Sweeps the license hysteresis (reset-time); returns
/// `(reset_us, throughput_bps, ber)`.
fn run_reset_time_sweep(quick: bool) -> Result<Vec<(f64, f64, f64)>, String> {
    banner("Ablation: reset-time vs throughput (the transaction-period floor)");
    let n = if quick { 20 } else { 60 };
    let resets_us = [150.0, 325.0, 650.0, 1_300.0];
    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["reset_time_us", "throughput_bps", "ber"]);
    for (reset_us, metrics) in knob_sweep(&resets_us, Knob::ResetTimeUs, n, 0x7E5)? {
        println!(
            "  reset {reset_us:>6.0} µs → throughput {:>7.0} b/s, BER {:.3}",
            metrics.throughput_bps, metrics.ber
        );
        csv.push_floats([reset_us, metrics.throughput_bps, metrics.ber]);
        rows.push((reset_us, metrics.throughput_bps, metrics.ber));
    }
    println!("  (a processor with a shorter hysteresis would leak *faster*)");
    write_csv(&csv, "ablation_reset_time.csv")?;
    Ok(rows)
}

/// Sweeps receiver measurement jitter; returns `(sigma_ns, ber)`.
fn run_jitter_sweep(quick: bool) -> Result<Vec<(f64, f64)>, String> {
    banner("Ablation: receiver timing jitter vs BER");
    let n = if quick { 30 } else { 100 };
    let sigmas_ns = [0.0, 150.0, 400.0, 800.0, 1_600.0];
    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["jitter_sigma_ns", "ber"]);
    for (sigma_ns, metrics) in knob_sweep(&sigmas_ns, Knob::MeasurementJitterNs, n, 0x717)? {
        println!("  σ = {sigma_ns:>6.0} ns → BER {:.3}", metrics.ber);
        csv.push_floats([sigma_ns, metrics.ber]);
        rows.push((sigma_ns, metrics.ber));
    }
    write_csv(&csv, "ablation_jitter.csv")?;
    Ok(rows)
}

/// Runs all ablations.
///
/// # Errors
///
/// A missing knob cell or a failed CSV write.
pub fn run(quick: bool) -> Result<(), String> {
    run_slew_sweep(quick)?;
    run_reset_time_sweep(quick)?;
    run_jitter_sweep(quick)?;
    Ok(())
}

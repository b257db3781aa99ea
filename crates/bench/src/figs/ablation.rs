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
use ichannels_lab::{Executor, Grid};
use ichannels_meter::export::CsvTable;

use crate::{banner, write_csv};

/// Runs a knob sweep of the same-thread channel and returns one record
/// per knob value, in axis order.
fn knob_sweep(
    knobs: Vec<Knob>,
    payload_symbols: usize,
    base_seed: u64,
) -> Vec<(Knob, ichannels_lab::TrialMetrics)> {
    let grid = Grid::new()
        .knobs(knobs.into_iter().map(Some).collect())
        .payload_symbols(payload_symbols)
        .calib_reps(3)
        .base_seed(base_seed);
    Executor::auto()
        .run(&grid.scenarios())
        .into_iter()
        .map(|r| (r.scenario.knob.expect("knob axis set"), r.metrics))
        .collect()
}

/// Sweeps the VR slew rate; returns `(slew_mv_per_us, capacity_bps, ber)`.
pub fn run_slew_sweep(quick: bool) -> Vec<(f64, f64, f64)> {
    banner("Ablation: VR slew rate vs channel capacity (IccThreadCovert)");
    let n = if quick { 30 } else { 80 };
    let knobs = [1.2, 2.4, 4.8, 9.6, 19.2, 80.0]
        .iter()
        .map(|&v| Knob::VrSlew(v))
        .collect();
    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["slew_mv_per_us", "capacity_bps", "ber"]);
    for (knob, metrics) in knob_sweep(knobs, n, 0x51E) {
        let Knob::VrSlew(slew) = knob else {
            unreachable!("slew axis only")
        };
        println!(
            "  slew {slew:>5.1} mV/µs → capacity {:>7.0} b/s, BER {:.3}, min separation {:>6.0} cycles",
            metrics.capacity_bps, metrics.ber, metrics.min_separation_cycles
        );
        csv.push_floats([slew, metrics.capacity_bps, metrics.ber]);
        rows.push((slew, metrics.capacity_bps, metrics.ber));
    }
    println!("  (faster regulators compress the levels: the §7 LDO mitigation, quantified)");
    write_csv(&csv, "ablation_slew.csv");
    rows
}

/// Sweeps the license hysteresis (reset-time); returns
/// `(reset_us, throughput_bps, ber)`.
pub fn run_reset_time_sweep(quick: bool) -> Vec<(f64, f64, f64)> {
    banner("Ablation: reset-time vs throughput (the transaction-period floor)");
    let n = if quick { 20 } else { 60 };
    let knobs = [150.0, 325.0, 650.0, 1_300.0]
        .iter()
        .map(|&us| Knob::ResetTimeUs(us))
        .collect();
    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["reset_time_us", "throughput_bps", "ber"]);
    for (knob, metrics) in knob_sweep(knobs, n, 0x7E5) {
        let Knob::ResetTimeUs(reset_us) = knob else {
            unreachable!("reset axis only")
        };
        println!(
            "  reset {reset_us:>6.0} µs → throughput {:>7.0} b/s, BER {:.3}",
            metrics.throughput_bps, metrics.ber
        );
        csv.push_floats([reset_us, metrics.throughput_bps, metrics.ber]);
        rows.push((reset_us, metrics.throughput_bps, metrics.ber));
    }
    println!("  (a processor with a shorter hysteresis would leak *faster*)");
    write_csv(&csv, "ablation_reset_time.csv");
    rows
}

/// Sweeps receiver measurement jitter; returns `(sigma_ns, ber)`.
pub fn run_jitter_sweep(quick: bool) -> Vec<(f64, f64)> {
    banner("Ablation: receiver timing jitter vs BER");
    let n = if quick { 30 } else { 100 };
    let knobs = [0.0, 150.0, 400.0, 800.0, 1_600.0]
        .iter()
        .map(|&ns| Knob::MeasurementJitterNs(ns))
        .collect();
    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["jitter_sigma_ns", "ber"]);
    for (knob, metrics) in knob_sweep(knobs, n, 0x717) {
        let Knob::MeasurementJitterNs(sigma_ns) = knob else {
            unreachable!("jitter axis only")
        };
        println!("  σ = {sigma_ns:>6.0} ns → BER {:.3}", metrics.ber);
        csv.push_floats([sigma_ns, metrics.ber]);
        rows.push((sigma_ns, metrics.ber));
    }
    write_csv(&csv, "ablation_jitter.csv");
    rows
}

/// Runs all ablations.
pub fn run(quick: bool) {
    let _ = run_slew_sweep(quick);
    let _ = run_reset_time_sweep(quick);
    let _ = run_jitter_sweep(quick);
}

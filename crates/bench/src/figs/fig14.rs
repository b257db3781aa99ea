//! Figure 14 — channel accuracy under system noise (paper §6.3).
//!
//! (a) BER vs interrupt/context-switch rate: low even at thousands of
//! events per second, because a hit must land in the µs-scale decode
//! window. (b) 4×4 error matrix: a concurrent app's PHI corrupts a
//! transaction only when its level exceeds the channel's. (c) BER vs
//! App-PHI injection rate: grows with rate. Plus the 7-zip experiment:
//! BER < 0.07 with a real AVX2 app for 60 s.
//!
//! Every panel is one `ichannels-lab` grid: noise rates, interfering
//! apps, and payload shapes are scenario axes, executed on the worker
//! pool instead of the former hand-rolled serial loops.

use ichannels::channel::ChannelKind;
use ichannels::symbols::Symbol;
use ichannels_lab::scenario::{AppKind, AppSpec, NoiseSpec, PayloadSpec};
use ichannels_lab::{Executor, Grid};
use ichannels_meter::export::CsvTable;

use crate::{banner, find_cell, write_csv};

/// Runs Figure 14(a): BER vs OS-event rate. Returns
/// `(kind, rate, ber)` rows.
///
/// # Errors
///
/// A record off the noise axis, or a failed CSV write.
pub fn run_event_noise(quick: bool) -> Result<Vec<(String, f64, f64)>, String> {
    banner("Figure 14(a): BER vs interrupt / context-switch rate");
    let n = if quick { 40 } else { 250 };
    let rates = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];
    let mut noises = Vec::new();
    for rate in rates {
        noises.push(NoiseSpec::Interrupts(rate));
    }
    for rate in rates {
        noises.push(NoiseSpec::CtxSwitches(rate));
    }
    let grid = Grid::new()
        .kinds(&[ChannelKind::Thread])
        .noises(noises)
        .payload_symbols(n)
        .calib_reps(3)
        .base_seed(1234);
    let records = Executor::auto().run(&grid.scenarios());

    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["event_kind", "events_per_second", "ber"]);
    for record in &records {
        let (label, rate) = match record.scenario.noise {
            NoiseSpec::Interrupts(rate) => ("interrupts", rate),
            NoiseSpec::CtxSwitches(rate) => ("context_switches", rate),
            other => return Err(format!("unexpected noise axis value {other:?}")),
        };
        csv.push_row([
            label.to_string(),
            format!("{rate}"),
            format!("{:.4}", record.metrics.ber),
        ]);
        rows.push((label.to_string(), rate, record.metrics.ber));
    }
    for label in ["interrupts", "context_switches"] {
        print!("  {label:<18}");
        for (_, rate, ber) in rows.iter().filter(|(l, _, _)| l == label) {
            print!("  {rate:>7.0}/s: {ber:.3}");
        }
        println!();
    }
    write_csv(&csv, "fig14a_ber_vs_event_rate.csv")?;
    Ok(rows)
}

/// Runs Figure 14(b): the App-PHI × ICh-PHI error matrix. Returns the
/// per-cell symbol error rates (`[app_level][channel_level]`).
///
/// # Errors
///
/// A matrix cell the grid did not run, or a failed CSV write.
pub fn run_error_matrix(quick: bool) -> Result<Vec<Vec<f64>>, String> {
    banner("Figure 14(b): App-PHI level vs ICh-PHI level error matrix");
    let reps = if quick { 8 } else { 25 };
    // App level and channel level are two grid axes: the interfering
    // app's fixed PHI level × the constant symbol the channel sends.
    let apps: Vec<Option<AppSpec>> = Symbol::ALL
        .iter()
        .map(|s| {
            Some(AppSpec {
                kind: AppKind::FixedLevel(s.value()),
                rate_hz: 2_000.0,
                burst_insts: 20_000,
            })
        })
        .collect();
    let payloads: Vec<PayloadSpec> = Symbol::ALL
        .iter()
        .map(|s| PayloadSpec::Constant(s.value()))
        .collect();
    let grid = Grid::new()
        .kinds(&[ChannelKind::Thread])
        .apps(apps.clone())
        .payloads(payloads)
        .payload_symbols(reps)
        .calib_reps(2)
        .base_seed(99);
    let records = Executor::auto().run(&grid.scenarios());

    let mut matrix = Vec::new();
    let mut csv = CsvTable::new(["app_level", "ich_level", "symbol_error_rate"]);
    println!("  rows: App-PHI level; cols: ICh-PHI (sender) level; cell: SER");
    print!("  {:<10}", "");
    for s in Symbol::ALL {
        print!(" ICh-L{}", 4 - s.value());
    }
    println!();
    for (app, app_level) in apps.iter().zip(Symbol::ALL) {
        let mut row = Vec::new();
        print!("  App-L{:<5}", 4 - app_level.value());
        for ich_level in Symbol::ALL {
            let cell = format!(
                "App-L{} ICh-L{}",
                4 - app_level.value(),
                4 - ich_level.value()
            );
            let ser = find_cell(&records, &cell, |s| {
                s.app == *app && s.payload == PayloadSpec::Constant(ich_level.value())
            })?
            .metrics
            .ser;
            print!(" {ser:>6.2}");
            csv.push_row([
                format!("L{}", 4 - app_level.value()),
                format!("L{}", 4 - ich_level.value()),
                format!("{ser:.3}"),
            ]);
            row.push(ser);
        }
        println!();
        matrix.push(row);
    }
    println!("  (paper: errors concentrate where the app level exceeds the channel level)");
    write_csv(&csv, "fig14b_error_matrix.csv")?;
    Ok(matrix)
}

/// Runs Figure 14(c): BER vs App-PHI rate. Returns `(rate, ber)` rows.
///
/// # Errors
///
/// A failed CSV write.
pub fn run_app_rate(quick: bool) -> Result<Vec<(f64, f64)>, String> {
    banner("Figure 14(c): BER vs concurrent App-PHI injection rate");
    let n = if quick { 40 } else { 200 };
    let rates = [10.0, 100.0, 1_000.0, 10_000.0];
    let apps: Vec<Option<AppSpec>> = rates
        .iter()
        .map(|&rate_hz| {
            Some(AppSpec {
                kind: AppKind::RandomLevels,
                rate_hz,
                burst_insts: 20_000,
            })
        })
        .collect();
    let grid = Grid::new()
        .kinds(&[ChannelKind::Thread])
        .apps(apps)
        .payload_symbols(n)
        .calib_reps(3)
        .base_seed(777);
    let records = Executor::auto().run(&grid.scenarios());

    let mut rows = Vec::new();
    let mut csv = CsvTable::new(["app_phis_per_second", "ber"]);
    for (rate, record) in rates.iter().zip(&records) {
        let ber = record.metrics.ber;
        println!("  {rate:>7.0} App-PHIs/s → BER = {ber:.3}");
        csv.push_row([format!("{rate}"), format!("{ber:.4}")]);
        rows.push((*rate, ber));
    }
    write_csv(&csv, "fig14c_ber_vs_app_rate.csv")?;
    Ok(rows)
}

/// Runs the §6.3 7-zip experiment; returns the measured BER.
///
/// # Errors
///
/// The grid ran no 7-zip cell.
pub fn run_sevenzip(quick: bool) -> Result<f64, String> {
    banner("§6.3: 60 s transmission beside a 7-zip-like AVX2 app");
    let seconds = if quick { 2.0 } else { 60.0 };
    let slot_period_s = ichannels::channel::ChannelConfig::default_cannon_lake()
        .slot_period
        .as_secs();
    let n = (seconds / slot_period_s) as usize;
    let grid = Grid::new()
        .kinds(&[ChannelKind::Thread])
        .apps(vec![Some(AppSpec {
            kind: AppKind::SevenZip,
            rate_hz: 0.0,
            burst_insts: 0,
        })])
        .payload_symbols(n)
        .calib_reps(3)
        .base_seed(2021);
    let records = Executor::serial().run(&grid.scenarios());
    let ber = find_cell(&records, "7-zip", |s| {
        s.app.is_some_and(|a| a.kind == AppKind::SevenZip)
    })?
    .metrics
    .ber;
    println!(
        "  {} symbols over {seconds} s beside 7-zip (AVX2-only): BER = {ber:.4} (paper: < 0.07)",
        n
    );
    Ok(ber)
}

/// Runs all Figure 14 parts.
///
/// # Errors
///
/// A failed CSV write.
pub fn run(quick: bool) -> Result<(), String> {
    run_event_noise(quick)?;
    run_error_matrix(quick)?;
    run_app_rate(quick)?;
    run_sevenzip(quick)?;
    Ok(())
}

//! Table 1 — effectiveness and overhead of the three mitigations
//! (paper §7).
//!
//! The 3 channels × (1 + 3 mitigation sets) evaluation runs as one
//! `ichannels-lab` grid on the worker pool; effectiveness is classified
//! from the engine's per-cell capacities via
//! `ichannels::mitigations::classify_capacity`.

use ichannels::channel::ChannelKind;
use ichannels::mitigations::{
    classify_capacity, secure_mode_power_overhead, Effectiveness, Mitigation,
};
use ichannels_lab::{Executor, Grid};
use ichannels_meter::export::CsvTable;
use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::isa::InstClass;

use crate::{banner, find_cell, write_csv};

/// One Table 1 cell, measured through the campaign engine.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// The mitigation applied.
    pub mitigation: Mitigation,
    /// The channel evaluated.
    pub channel: ChannelKind,
    /// Unmitigated capacity (bits/s).
    pub baseline_capacity_bps: f64,
    /// Capacity with the mitigation applied (bits/s).
    pub mitigated_capacity_bps: f64,
    /// BER with the mitigation applied.
    pub mitigated_ber: f64,
    /// Verdict.
    pub effectiveness: Effectiveness,
}

/// Runs the full 3×3 Table 1 evaluation on the campaign engine.
///
/// # Errors
///
/// A cell the grid did not run, or a failed CSV write.
pub fn run(quick: bool) -> Result<Vec<Table1Cell>, String> {
    banner("Table 1: mitigation effectiveness and overhead");
    // Quick mode still needs ≥32 symbols: below that the Miller–Madow
    // correction leaves enough residual MI on a dead channel to blur
    // the Full/Partial boundary.
    let n = if quick { 32 } else { 60 };
    let reps = if quick { 2 } else { 3 };
    let kinds = [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores];

    // One grid: channels × (unmitigated + each single mitigation). The
    // attacker recalibrates per cell (Scenario::run always calibrates
    // against the cell's own configuration).
    let grid = Grid::new()
        .kinds(&kinds)
        .mitigation_sets(vec![
            vec![],
            vec![Mitigation::PerCoreVr],
            vec![Mitigation::ImprovedThrottling],
            vec![Mitigation::SecureMode],
        ])
        .payload_symbols(n)
        .calib_reps(reps)
        .base_seed(0xAB);
    let records = Executor::auto().run(&grid.scenarios());

    let cell = |kind: ChannelKind, set: &[Mitigation]| {
        let name = set.first().map_or("unmitigated", |m| m.name());
        find_cell(&records, &format!("{} {name}", kind.name()), |s| {
            s.channel == ichannels_lab::ChannelSelect::Icc(kind) && s.mitigations == set
        })
    };

    let mut outcomes = Vec::new();
    let mut csv = CsvTable::new([
        "mitigation",
        "channel",
        "baseline_capacity_bps",
        "mitigated_capacity_bps",
        "mitigated_ber",
        "effective",
        "overhead",
    ]);
    println!(
        "  {:<22} {:>17} {:>15} {:>15}   overhead",
        "mitigation", "IccThreadCovert", "IccSMTcovert", "IccCoresCovert"
    );
    for mitigation in Mitigation::ALL {
        let mut cells = Vec::new();
        for kind in kinds {
            let baseline = cell(kind, &[])?;
            let mitigated = cell(kind, &[mitigation])?;
            let effectiveness = classify_capacity(
                mitigated.metrics.capacity_bps,
                baseline.metrics.capacity_bps,
            );
            csv.push_row([
                mitigation.name().to_string(),
                kind.name().to_string(),
                format!("{:.1}", baseline.metrics.capacity_bps),
                format!("{:.1}", mitigated.metrics.capacity_bps),
                format!("{:.3}", mitigated.metrics.ber),
                effectiveness.to_string(),
                mitigation.overhead().to_string(),
            ]);
            cells.push(effectiveness.to_string());
            outcomes.push(Table1Cell {
                mitigation,
                channel: kind,
                baseline_capacity_bps: baseline.metrics.capacity_bps,
                mitigated_capacity_bps: mitigated.metrics.capacity_bps,
                mitigated_ber: mitigated.metrics.ber,
                effectiveness,
            });
        }
        println!(
            "  {:<22} {:>17} {:>15} {:>15}   {}",
            mitigation.name(),
            cells[0],
            cells[1],
            cells[2],
            mitigation.overhead()
        );
    }
    // Secure-mode power overhead, quantified from the guardband model.
    let p = PlatformSpec::cannon_lake();
    println!(
        "  secure-mode static power overhead: AVX2 system {:.1}%, AVX-512 system {:.1}% (paper: 4%/11%)",
        secure_mode_power_overhead(&p, InstClass::Heavy256) * 100.0,
        secure_mode_power_overhead(&p, InstClass::Heavy512) * 100.0
    );
    write_csv(&csv, "table1_mitigations.csv")?;
    Ok(outcomes)
}

//! Table 2 — comparison with state-of-the-art throttling covert channels
//! (NetSpectre, TurboCC), combining structural facts with bandwidths
//! measured by a dedicated `ichannels-lab` campaign (the three
//! compared channels form the channel axis of one grid).

use ichannels::channel::ChannelKind;
use ichannels_lab::scenario::{BaselineKind, ChannelSelect};
use ichannels_lab::{campaigns, Executor};
use ichannels_meter::export::CsvTable;

use crate::{banner, find_cell, write_csv};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Proposal name.
    pub proposal: &'static str,
    /// Same-core (same hardware thread) channel?
    pub same_core: bool,
    /// Cross-SMT channel?
    pub cross_smt: bool,
    /// Cross-core channel?
    pub cross_core: bool,
    /// Measured bandwidth (b/s).
    pub bw_bps: f64,
    /// User or kernel privileges required.
    pub privilege: &'static str,
    /// Underlying mechanism.
    pub mechanism: &'static str,
    /// Works outside turbo frequencies?
    pub turbo_independent: bool,
    /// Identifies the root cause?
    pub root_cause: bool,
    /// Proposes effective mitigations?
    pub mitigations: bool,
}

/// Runs the comparison (re-measuring bandwidths); returns the rows.
///
/// # Errors
///
/// A channel the grid did not run, or a failed CSV write.
pub fn run(quick: bool) -> Result<Vec<ComparisonRow>, String> {
    banner("Table 2: comparison with state-of-the-art covert channels");
    let n = if quick { 12 } else { 40 };
    let grid = campaigns::channel_shootout(
        vec![
            ChannelSelect::Baseline(BaselineKind::NetSpectre),
            ChannelSelect::Baseline(BaselineKind::TurboCc),
            ChannelSelect::Icc(ChannelKind::Smt),
        ],
        n,
        42,
    );
    let report = campaigns::run("table2_comparison", &grid, Executor::auto());
    let bw = |name: &str| {
        find_cell(&report.records, name, |s| s.channel.label() == name)
            .map(|r| r.metrics.throughput_bps)
    };
    let rows = vec![
        ComparisonRow {
            proposal: "NetSpectre",
            same_core: true,
            cross_smt: false,
            cross_core: false,
            bw_bps: bw("NetSpectre")?,
            privilege: "U",
            mechanism: "Single-level thread throttling",
            turbo_independent: true,
            root_cause: false,
            mitigations: false,
        },
        ComparisonRow {
            proposal: "TurboCC",
            same_core: false,
            cross_smt: false,
            cross_core: true,
            bw_bps: bw("TurboCC")?,
            privilege: "K",
            mechanism: "Turbo frequency change",
            turbo_independent: false,
            root_cause: false,
            mitigations: false,
        },
        ComparisonRow {
            proposal: "IChannels",
            same_core: true,
            cross_smt: true,
            cross_core: true,
            bw_bps: bw("IccSMTcovert")?,
            privilege: "U",
            mechanism: "Multi-level thread, SMT, and core (VR) throttling",
            turbo_independent: true,
            root_cause: true,
            mitigations: true,
        },
    ];
    let tick = |b: bool| if b { "yes" } else { "no" };
    println!(
        "  {:<12} {:>5} {:>5} {:>6} {:>10} {:>5} {:>6} {:>5} {:>5}  mechanism",
        "proposal", "same", "SMT", "cores", "BW(b/s)", "priv", "turbo-", "root", "mitig"
    );
    let mut csv = CsvTable::new([
        "proposal",
        "same_core",
        "cross_smt",
        "cross_core",
        "bw_bps",
        "privilege",
        "mechanism",
        "turbo_independent",
        "root_cause",
        "mitigations",
    ]);
    for r in &rows {
        println!(
            "  {:<12} {:>5} {:>5} {:>6} {:>10.0} {:>5} {:>6} {:>5} {:>5}  {}",
            r.proposal,
            tick(r.same_core),
            tick(r.cross_smt),
            tick(r.cross_core),
            r.bw_bps,
            r.privilege,
            tick(r.turbo_independent),
            tick(r.root_cause),
            tick(r.mitigations),
            r.mechanism
        );
        csv.push_row([
            r.proposal.to_string(),
            tick(r.same_core).to_string(),
            tick(r.cross_smt).to_string(),
            tick(r.cross_core).to_string(),
            format!("{:.0}", r.bw_bps),
            r.privilege.to_string(),
            r.mechanism.to_string(),
            tick(r.turbo_independent).to_string(),
            tick(r.root_cause).to_string(),
            tick(r.mitigations).to_string(),
        ]);
    }
    write_csv(&csv, "table2_comparison.csv")?;
    Ok(rows)
}

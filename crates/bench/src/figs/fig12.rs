//! Figure 12 — covert-channel throughput vs the state of the art
//! (paper §6.2).
//!
//! (a) IccThreadCovert transmits **two** bits per reset-time cycle where
//! NetSpectre's single-level gadget transmits one ⇒ 2× throughput.
//! (b) IccSMTcovert/IccCoresCovert (~2.9 kb/s) vs DFScovert (~20 b/s),
//! TurboCC (~61 b/s), POWERT (~122 b/s): 145×/47×/24×.
//!
//! All seven channels run as one `ichannels-lab` campaign: the three
//! IChannels and the four baselines form the channel axis of a
//! single-platform grid executed on the worker pool.

use ichannels::channel::ChannelKind;
use ichannels_lab::scenario::{BaselineKind, ChannelSelect};
use ichannels_lab::{campaigns, Executor};
use ichannels_meter::export::CsvTable;

use crate::{banner, find_cell, write_csv};

/// Measured throughput of one channel.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Channel name.
    pub name: String,
    /// Bits per second (error-free transmission measured).
    pub bps: f64,
    /// Measured bit error rate during the run.
    pub ber: f64,
}

/// Runs both panels; returns all measured throughputs.
///
/// # Errors
///
/// A channel the grid did not run, or a failed CSV write.
pub fn run(quick: bool) -> Result<Vec<Throughput>, String> {
    banner("Figure 12: channel throughput vs state of the art");
    let n = if quick { 12 } else { 40 };

    let channels = vec![
        ChannelSelect::Icc(ChannelKind::Thread),
        ChannelSelect::Baseline(BaselineKind::NetSpectre),
        ChannelSelect::Icc(ChannelKind::Smt),
        ChannelSelect::Icc(ChannelKind::Cores),
        ChannelSelect::Baseline(BaselineKind::DfsCovert),
        ChannelSelect::Baseline(BaselineKind::TurboCc),
        ChannelSelect::Baseline(BaselineKind::Powert),
    ];
    let grid = campaigns::channel_shootout(channels.clone(), n, 42);
    let report = campaigns::run("fig12_shootout", &grid, Executor::auto());

    // One record per channel (single platform, one trial per cell), in
    // grid axis order.
    let out: Vec<Throughput> = report
        .records
        .iter()
        .map(|r| Throughput {
            name: r.scenario.channel.label(),
            bps: r.metrics.throughput_bps,
            ber: r.metrics.ber,
        })
        .collect();
    assert_eq!(out.len(), channels.len(), "one record per channel");

    // Report.
    let bps = |name: &str| {
        find_cell(&report.records, name, |s| s.channel.label() == name)
            .map(|r| r.metrics.throughput_bps)
    };
    let icc = bps("IccSMTcovert")?;
    println!(
        "  {:<16} {:>12} {:>8} {:>10}",
        "channel", "bits/s", "BER", "IChannels×"
    );
    let mut csv = CsvTable::new(["channel", "bps", "ber", "ichannels_ratio"]);
    for t in &out {
        let ratio = icc / t.bps;
        println!(
            "  {:<16} {:>12.1} {:>8.3} {:>9.1}x",
            t.name, t.bps, t.ber, ratio
        );
        csv.push_row([
            t.name.clone(),
            format!("{:.2}", t.bps),
            format!("{:.4}", t.ber),
            format!("{ratio:.1}"),
        ]);
    }
    let ns_ratio = bps("IccThreadCovert")? / bps("NetSpectre")?;
    println!("  IccThreadCovert / NetSpectre = {ns_ratio:.2}x (paper: 2x)");
    println!(
        "  IccSMT / DFScovert = {:.0}x, / TurboCC = {:.0}x, / POWERT = {:.0}x (paper: 145x/47x/24x)",
        icc / bps("DFScovert")?,
        icc / bps("TurboCC")?,
        icc / bps("POWERT")?
    );
    write_csv(&csv, "fig12_throughput.csv")?;
    Ok(out)
}

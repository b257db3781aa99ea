//! Figure 11 — the IDQ throttling mechanism (paper §5.6).
//!
//! Normalized `IDQ_UOPS_NOT_DELIVERED / (4·CPU_CLK_UNHALTED)` over many
//! loop iterations: ~0.75 while throttled (the gate blocks 3 of every 4
//! cycles) vs ~0 unthrottled — and the gate sits on the *shared*
//! IDQ→back-end interface, so the SMT sibling is equally blocked.
//!
//! The three conditions are `Idq` probe cells of one `ichannels-lab`
//! grid; each measurement window is one engine trial. The IDQ model is
//! deterministic, so every window of a condition measures the same
//! value — the paper's Figure 11(a) distributions are equally tight;
//! the per-window rows are kept for the figure's file format, not for
//! statistical spread.

use ichannels_lab::scenario::{ChannelSelect, IdqCondition, ProbeKind};
use ichannels_lab::{Executor, Grid};
use ichannels_meter::export::CsvTable;
use ichannels_meter::stats::summarize_samples;

use crate::{banner, expect_trials, write_csv};

/// The CSV/report label of one IDQ condition.
const fn condition_label(cond: IdqCondition) -> &'static str {
    match cond {
        IdqCondition::Throttled => "throttled",
        IdqCondition::Unthrottled => "unthrottled",
        IdqCondition::SmtSibling => "smt_sibling",
    }
}

/// Runs the Figure 11(a) distributions via the cycle-accurate IDQ model.
/// Returns `(throttled_mean, unthrottled_mean, sibling_mean)`.
///
/// # Errors
///
/// A condition whose values cannot be summarized, or a failed CSV
/// write.
pub fn run(quick: bool) -> Result<(f64, f64, f64), String> {
    banner("Figure 11: normalized undelivered uops, throttled vs unthrottled");
    let windows = if quick { 50 } else { 500 };

    let channels: Vec<ChannelSelect> = IdqCondition::ALL
        .iter()
        .map(|&cond| ChannelSelect::Probe(ProbeKind::Idq(cond)))
        .collect();
    let grid = Grid::new()
        .channels(channels)
        .trials(windows)
        .base_seed(0x1D8);
    let records = Executor::auto().run(&grid.scenarios());

    let values_of = |cond: IdqCondition| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.scenario.channel == ChannelSelect::Probe(ProbeKind::Idq(cond)))
            .map(|r| r.metrics.probe_value)
            .collect()
    };

    let mut csv = CsvTable::new(["condition", "window", "normalized_undelivered"]);
    let mut means = Vec::new();
    for cond in IdqCondition::ALL {
        let values = values_of(cond);
        expect_trials(values.len(), windows as usize, condition_label(cond))?;
        for (i, v) in values.iter().enumerate() {
            csv.push_row([
                condition_label(cond).to_string(),
                i.to_string(),
                format!("{v:.4}"),
            ]);
        }
        means.push(
            summarize_samples(&values)
                .map_err(|e| format!("{} windows: {e}", condition_label(cond)))?,
        );
    }
    let (st, su, ss) = (means[0], means[1], means[2]);
    println!(
        "  throttled iteration:    {:.3} ± {:.3}  (paper: ~0.75 — 3 of 4 cycles blocked)",
        st.mean, st.std_dev
    );
    println!(
        "  unthrottled iteration:  {:.3} ± {:.3}  (paper: ~0)",
        su.mean, su.std_dev
    );
    println!(
        "  SMT sibling (64b loop): {:.3} ± {:.3}  (shared interface ⇒ equally blocked)",
        ss.mean, ss.std_dev
    );
    println!("  window pattern: deliver on 1 cycle, block 3, per 4-cycle window (Fig. 11(b))");
    write_csv(&csv, "fig11_idq_undelivered.csv")?;
    Ok((st.mean, su.mean, ss.mean))
}

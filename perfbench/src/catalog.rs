//! The metric catalog: every name and unit the benchmark prints. The
//! untraced run prints [`END_TO_END`], the traced run [`PER_LAYER`];
//! `BENCHMARK.json` lists the same names (a self-test pins that).

/// One printed metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics (untraced run).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("work_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run).
pub const PER_LAYER: &[Metric] = &[
    m("lab.grid.enumerate_ms", "ms"),
    m("lab.scenario.resolve_us", "us"),
    m("lab.trial.count", "count"),
    m("lab.trial.us_p50", "us"),
    m("lab.trial.us_p99", "us"),
    m("core.calibration.requests", "count"),
    m("core.calibration.ms", "ms"),
    m("core.calibration.train_us", "us"),
    m("core.calibration.fingerprint_us", "us"),
    m("core.calibration.memo_hit_ratio", "ratio"),
    m("core.transmit.ms", "ms"),
    m("core.transmit.slots", "count"),
    m("core.transmit.ns_per_slot", "ns"),
    m("core.extended.ms", "ms"),
    m("core.extended.slots", "count"),
    m("core.extended.slots_per_rearm", "ratio"),
    m("soc.rearms", "count"),
    m("soc.slots", "count"),
    m("soc.step_ms", "ms"),
    m("soc.step_ns_per_slot", "ns"),
    m("soc.rearm_us", "us"),
    m("soc.new_us", "us"),
    m("workload.app_next_calls", "count"),
    m("workload.app_next_ns", "ns"),
    m("pmu.on_execute_ns", "ns"),
    m("pmu.process_decays_ns", "ns"),
    m("pmu.thermal_advance_ns", "ns"),
    m("pdn.vr_voltage_at_ns", "ns"),
    m("pdn.icc_a_ns", "ns"),
    m("lab.exec.busy_frac", "ratio"),
    m("lab.fuzz.findings", "count"),
    m("meter.render_rows_per_s", "1/s"),
    m("meter.parse_rows_per_s", "1/s"),
    m("lab.shard.merge_ms", "ms"),
    m("lab.report.csv_ms", "ms"),
    m("analysis.add_rows_per_s", "1/s"),
    m("analysis.finish_ms", "ms"),
    m("obs.overhead_frac", "ratio"),
    m("trace.coverage", "ratio"),
];

/// True if `name` uses only the characters metric names may use.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

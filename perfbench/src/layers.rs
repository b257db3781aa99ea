//! Per-layer metrics of the traced run, assembled from three sources:
//!
//! * the `ichannels_obs` snapshot of the traced body iterations (counts
//!   the program already emits: `trial.*`, `calibration.*`, `soc.*`,
//!   `exec.*`) and the benchmark's outside timers around the body's
//!   calls. Counts come from the first traced iteration, so they are
//!   exact for a seed; times are per traced iteration;
//! * the replay of a fresh-seed sample of the body's trials
//!   ([`crate::replay`]);
//! * unit costs of isolated calls ([`crate::probes`]);
//! * a fixed layer sample that enters every layer. A layer the workload
//!   never enters keeps its counts at 0 and takes its times from the
//!   sample, so no time reads 0.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use ichannels_analysis::{analyze_stream, AnalysisConfig};
use ichannels_lab::campaigns::{self, merge_files};
use ichannels_lab::{Scenario, TrialRow};
use ichannels_obs::MetricsSnapshot;

use crate::replay::{self, Replay};
use crate::stats::{median, mix, quantile, ratio, Timers};
use crate::workloads::{render_shard, sevenzip_grid, synthetic_stream, Verdict, Workload};

/// The program's own span around each whole trial: the busy time of
/// the `lab.trial` layer, inside which the core and SoC layers run.
const TRIAL_SPAN: &str = "trial.total";

/// Times of layers a workload may never enter; where it does not, they
/// read the layer sample's value instead of 0.
const SAMPLED: &[&str] = &[
    "lab.trial.us_p50",
    "lab.trial.us_p99",
    "core.calibration.ms",
    "core.transmit.ms",
    "core.transmit.ns_per_slot",
    "core.extended.ms",
    "soc.step_ms",
    "soc.step_ns_per_slot",
    "workload.app_next_ns",
    "lab.shard.merge_ms",
    "analysis.add_rows_per_s",
    "analysis.finish_ms",
];

/// Payload symbols of the layer sample's 7-zip trial (1.4 s simulated).
const SAMPLE_SYMBOLS: usize = 2_000;

/// What the traced body iterations recorded.
#[derive(Debug, Default)]
pub struct Traced {
    /// Wall time of each traced iteration, in seconds.
    pub walls: Vec<f64>,
    work: f64,
    first: Option<(MetricsSnapshot, u64)>,
    total: MetricsSnapshot,
    timers: Timers,
}

impl Traced {
    /// Accounts one traced iteration.
    pub fn add(
        &mut self,
        wall: f64,
        timers: &Timers,
        snap: MetricsSnapshot,
        v: &Verdict,
        findings: u64,
    ) {
        self.walls.push(wall);
        self.work += v.work;
        self.timers.absorb(timers);
        self.total.merge(&snap);
        self.first.get_or_insert((snap, findings));
    }
}

/// The per-layer values of one traced invocation.
#[derive(Debug, Default)]
pub struct Layer {
    values: BTreeMap<&'static str, f64>,
    /// Milliseconds per traced iteration under each outside timer.
    body_ms: Vec<(&'static str, f64)>,
    /// Times taken from the layer sample.
    from_sample: Vec<&'static str>,
}

impl Layer {
    /// The value of metric `name` (0 if the workload never entered it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Assembles every per-layer metric: `threads` is the body's worker
/// count and `untraced_run_s` the median of the interleaved untraced
/// iterations.
pub fn measure(
    w: &dyn Workload,
    threads: usize,
    traced: &Traced,
    untraced_run_s: f64,
    seed: u64,
    dir: &Path,
) -> std::io::Result<Layer> {
    let mut l = Layer::default();
    let iters = traced.walls.len() as f64;
    let per_iter_ms = |ns: f64| ns / 1e6 / iters;
    let (first, findings) = traced.first.clone().unwrap_or_default();
    let total = &traced.total;
    let hist_sum = |name: &str| total.histogram(name).sum as f64;

    // From the obs snapshot of the body.
    l.set("lab.trial.count", first.counter("trial.runs") as f64);
    l.set(
        "core.calibration.requests",
        first.counter("calibration.requests") as f64,
    );
    l.set(
        "core.calibration.memo_hit_ratio",
        ratio(
            total.counter("calibration.memo_hits") as f64,
            total.counter("calibration.requests") as f64,
        ),
    );
    l.set(
        "core.calibration.ms",
        per_iter_ms(hist_sum("trial.calibration")),
    );
    l.set("soc.rearms", first.counter("soc.rearms") as f64);
    l.set("soc.slots", first.counter("soc.slots_simulated") as f64);
    l.set("soc.step_ms", per_iter_ms(hist_sum("soc.step_ns")));
    l.set(
        "soc.step_ns_per_slot",
        ratio(
            hist_sum("soc.step_ns"),
            total.counter("soc.slots_simulated") as f64,
        ),
    );
    let workers = total.gauges.get("exec.threads").copied().unwrap_or(0) as f64;
    l.set(
        "lab.exec.busy_frac",
        ratio(
            hist_sum("exec.worker_busy_ns"),
            workers * hist_sum("exec.pool_wall_ns"),
        ),
    );
    l.set("lab.fuzz.findings", findings as f64);

    // From the outside timers around the body's calls.
    let t = &traced.timers;
    l.body_ms = t.names().map(|n| (n, per_iter_ms(t.total_ns(n)))).collect();
    l.set(
        "lab.shard.merge_ms",
        per_iter_ms(t.total_ns("lab.shard.merge")),
    );
    l.set(
        "analysis.add_rows_per_s",
        ratio(traced.work, t.total_ns("analysis.add") / 1e9),
    );
    l.set(
        "analysis.finish_ms",
        per_iter_ms(t.total_ns("analysis.finish")),
    );
    l.set(
        "obs.overhead_frac",
        median(&traced.walls) / untraced_run_s - 1.0,
    );
    let busy: f64 =
        hist_sum(TRIAL_SPAN) + w.leaf_timers().iter().map(|n| t.total_ns(n)).sum::<f64>();
    let wall_ns: f64 = traced.walls.iter().sum::<f64>() * 1e9;
    l.set("trace.coverage", ratio(busy, threads as f64 * wall_ns));

    // From the replay of a fresh-seed sample of the body's trials.
    let (whole, parts) = w.replay_sample();
    let mut r = Replay::default();
    ichannels_obs::reset();
    ichannels_obs::set_enabled(true);
    replay::time_trials(&whole, &mut r);
    replay::decompose(&parts, &mut r);
    ichannels_obs::set_enabled(false);
    r.trial_ns
        .extend_from_slice(&t.span("lab.trial").samples_ns);
    set_replay(&mut l, &r);

    // Times of layers the workload never entered.
    let sample = layer_sample(seed, dir)?;
    for &name in SAMPLED {
        if l.get(name) == 0.0 {
            l.set(name, sample.get(name));
            l.from_sample.push(name);
        }
    }

    // Unit costs of isolated calls.
    for (name, value) in crate::probes::measure(seed, dir)? {
        l.set(name, value);
    }
    Ok(l)
}

/// Sets the metrics a replay measures.
fn set_replay(l: &mut Layer, r: &Replay) {
    l.set("lab.trial.us_p50", quantile(&r.trial_ns, 0.5) / 1e3);
    l.set("lab.trial.us_p99", quantile(&r.trial_ns, 0.99) / 1e3);
    l.set("core.transmit.ms", r.transmit_ns / 1e6);
    l.set("core.transmit.slots", r.transmit_slots as f64);
    l.set(
        "core.transmit.ns_per_slot",
        ratio(r.transmit_ns, r.transmit_slots as f64),
    );
    l.set("core.extended.ms", r.extended_ns / 1e6);
    l.set("core.extended.slots", r.extended_slots as f64);
    l.set(
        "core.extended.slots_per_rearm",
        ratio(r.extended_slots as f64, r.extended_rearms as f64),
    );
    l.set("workload.app_next_calls", r.app_next_calls as f64);
    l.set(
        "workload.app_next_ns",
        ratio(r.app_next_ns as f64, r.app_next_calls as f64),
    );
}

/// The quick catalog plus one short same-thread trial beside the
/// 7-zip-like app, on seeds from `(seed, stream)`.
fn sample_scenarios(seed: u64, stream: u64) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = campaigns::catalog(true)
        .into_iter()
        .enumerate()
        .flat_map(|(g, (_, grid))| grid.base_seed(mix(seed, stream + g as u64)).scenarios())
        .collect();
    scenarios.extend(
        sevenzip_grid(mix(seed, stream))
            .payload_symbols(SAMPLE_SYMBOLS)
            .scenarios(),
    );
    scenarios
}

/// The fixed layer sample, which enters every layer: its scenarios run
/// whole and, on other seeds, decomposed; its rows are rendered as
/// three shards, merged, reloaded and analyzed.
fn layer_sample(seed: u64, dir: &Path) -> io::Result<Layer> {
    let mut l = Layer::default();
    let mut r = Replay::default();
    ichannels_obs::reset();
    ichannels_obs::set_enabled(true);
    let records = replay::time_trials(&sample_scenarios(seed, 1 << 43), &mut r);
    let snap = ichannels_obs::global().snapshot();
    replay::decompose(&sample_scenarios(seed, 1 << 44), &mut r);
    ichannels_obs::set_enabled(false);
    set_replay(&mut l, &r);
    let step_ns = snap.histogram("soc.step_ns").sum as f64;
    l.set(
        "core.calibration.ms",
        snap.histogram("trial.calibration").sum as f64 / 1e6,
    );
    l.set("soc.step_ms", step_ns / 1e6);
    l.set(
        "soc.step_ns_per_slot",
        ratio(step_ns, snap.counter("soc.slots_simulated") as f64),
    );

    let source: Vec<TrialRow> = records.iter().map(TrialRow::from_record).collect();
    let rows = synthetic_stream(&source, 4);
    let mut paths = Vec::new();
    for i in 0..3 {
        let path = dir.join(format!("sample{i}.jsonl"));
        fs::write(&path, render_shard(&rows, i, 3))?;
        paths.push(path);
    }
    let out_dir = dir.join("sample");
    fs::create_dir_all(&out_dir)?;
    let started = Instant::now();
    let merged = merge_files(&out_dir, &paths).map_err(|e| invalid(e.to_string()))?;
    l.set("lab.shard.merge_ms", started.elapsed().as_secs_f64() * 1e3);
    let text = fs::read_to_string(&merged.paths[0])?;
    let started = Instant::now();
    let analysis = analyze_stream("sample", &text, AnalysisConfig::default())
        .map_err(|(line, e)| invalid(format!("sample stream line {line}: {e:?}")))?;
    l.set(
        "analysis.add_rows_per_s",
        rows.len() as f64 / started.elapsed().as_secs_f64(),
    );
    let started = Instant::now();
    std::hint::black_box(analysis.finish().to_jsonl());
    l.set("analysis.finish_ms", started.elapsed().as_secs_f64() * 1e3);
    Ok(l)
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Prints the count × cost table of one workload's layers.
pub fn print_table(workload: &str, l: &Layer) {
    let g = |name: &str| l.get(name);
    let trials = g("lab.trial.count");
    if !l.from_sample.is_empty() {
        println!(
            "layers the workload never enters take their times from the layer sample: {}",
            l.from_sample.join(", ")
        );
    }
    println!(
        "layer table: {workload} (counts per iteration; cost per operation; time = count x cost)"
    );
    println!(
        "  {:<18} {:>12} {:<10} {:>14} {:<6} {:>12}",
        "layer", "count", "of", "cost", "unit", "time ms"
    );
    let row = |layer: &str, count: f64, of: &str, cost: f64, unit: &str, scale: f64| {
        let ms = count * cost * scale;
        println!("  {layer:<18} {count:>12.0} {of:<10} {cost:>14.3} {unit:<6} {ms:>12.3}");
    };
    row(
        "lab.scenario",
        trials,
        "resolves",
        g("lab.scenario.resolve_us"),
        "us",
        1e-3,
    );
    row(
        "lab.trial",
        trials,
        "trials",
        g("lab.trial.us_p50"),
        "us p50",
        1e-3,
    );
    row(
        "core.calibration",
        g("core.calibration.requests"),
        "requests",
        g("core.calibration.train_us"),
        "us",
        1e-3,
    );
    row(
        "  fingerprint",
        g("core.calibration.requests"),
        "requests",
        g("core.calibration.fingerprint_us"),
        "us",
        1e-3,
    );
    row(
        "core.transmit",
        g("core.transmit.slots"),
        "slots",
        g("core.transmit.ns_per_slot"),
        "ns",
        1e-6,
    );
    row(
        "core.extended",
        g("core.extended.slots"),
        "slots",
        ratio(g("core.extended.ms") * 1e6, g("core.extended.slots")),
        "ns",
        1e-6,
    );
    row(
        "soc.step",
        g("soc.slots"),
        "slots",
        g("soc.step_ns_per_slot"),
        "ns",
        1e-6,
    );
    row(
        "soc.rearm",
        g("soc.rearms"),
        "rearms",
        g("soc.rearm_us"),
        "us",
        1e-3,
    );
    row(
        "workload.apps",
        g("workload.app_next_calls"),
        "next calls",
        g("workload.app_next_ns"),
        "ns",
        1e-6,
    );
    println!(
        "  replay sample: core.transmit {:.3} ms, core.extended {:.3} ms ({:.2} slots/rearm); \
         body per iteration: calibration {:.3} ms, soc.step {:.3} ms, merge {:.3} ms, \
         analysis.finish {:.3} ms",
        g("core.transmit.ms"),
        g("core.extended.ms"),
        g("core.extended.slots_per_rearm"),
        g("core.calibration.ms"),
        g("soc.step_ms"),
        g("lab.shard.merge_ms"),
        g("analysis.finish_ms"),
    );
    println!(
        "  unit costs: pmu.on_execute {:.1} ns, pmu.process_decays {:.1} ns, \
         pmu.thermal_advance {:.1} ns, pdn.vr_voltage_at {:.1} ns, pdn.icc_a {:.1} ns, \
         soc.new {:.2} us, grid.enumerate {:.3} ms, csv {:.3} ms",
        g("pmu.on_execute_ns"),
        g("pmu.process_decays_ns"),
        g("pmu.thermal_advance_ns"),
        g("pdn.vr_voltage_at_ns"),
        g("pdn.icc_a_ns"),
        g("soc.new_us"),
        g("lab.grid.enumerate_ms"),
        g("lab.report.csv_ms"),
    );
    let body: Vec<String> = l
        .body_ms
        .iter()
        .map(|(n, ms)| format!("{n} {ms:.3}"))
        .collect();
    println!(
        "  outside timers, ms per traced iteration: {}",
        body.join(", ")
    );
    println!(
        "  trace.coverage {:.4} (layer busy time / traced wall), obs.overhead_frac {:.4}, \
         memo hit ratio {:.4}, exec busy {:.4}",
        g("trace.coverage"),
        g("obs.overhead_frac"),
        g("core.calibration.memo_hit_ratio"),
        g("lab.exec.busy_frac"),
    );
}

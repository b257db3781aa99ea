//! Unit costs from isolated calls: the same fixed inputs (derived from
//! the workload seed) on every workload's traced run, so each number is
//! the price of one operation of its layer, never zero.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ichannels::channel::calibration::fingerprint;
use ichannels::channel::{ChannelConfig, ChannelKind, IChannel};
use ichannels_lab::campaigns::{self, write_trial_csvs};
use ichannels_lab::report::summarize_rows;
use ichannels_lab::{Executor, Grid, TrialContext, TrialRow};
use ichannels_pdn::current::CoreActivity;
use ichannels_pmu::central::{CentralPmu, PmuConfig};
use ichannels_soc::config::SocConfig;
use ichannels_soc::sim::Soc;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;

use crate::stats::{median, mix, unit_cost_ns};

/// The five full catalog grids, each re-based on a seed derived from
/// `(seed, pass)`: grid `g` of pass `p` takes base seed
/// `mix(seed, 16 p + g)`, so no two passes share a trial seed (and so
/// no calibration fingerprint).
pub fn catalog_pass(seed: u64, pass: u64) -> Vec<(&'static str, Grid)> {
    campaigns::catalog(false)
        .into_iter()
        .enumerate()
        .map(|(g, (name, grid))| (name, grid.base_seed(mix(seed, 16 * pass + g as u64))))
        .collect()
}

/// Measures every unit cost; `dir` receives the CSV probe's files.
pub fn measure(seed: u64, dir: &Path) -> std::io::Result<BTreeMap<&'static str, f64>> {
    let mut out = BTreeMap::new();
    let grids = catalog_pass(seed, 1 << 40);

    // lab.grid: enumerating the five catalog grids.
    let enumerate: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for (_, grid) in &grids {
                black_box(grid.scenarios());
            }
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("lab.grid.enumerate_ms", median(&enumerate));

    // lab.scenario: resolving one scenario into its channel config.
    let scenarios: Vec<_> = grids.iter().flat_map(|(_, g)| g.scenarios()).collect();
    let resolve: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for s in &scenarios {
                black_box(TrialContext::new(s));
            }
            started.elapsed().as_secs_f64() * 1e6 / scenarios.len() as f64
        })
        .collect();
    out.insert("lab.scenario.resolve_us", median(&resolve));

    // core.calibration: a cold training (fresh jitter and SoC seeds on
    // every call, so the memo never serves it) and the memo key alone.
    let fresh_cfg = |i: u64| {
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.jitter_seed = mix(seed, 2 * i + 1);
        cfg.soc.seed = mix(seed, 2 * i + 2);
        cfg
    };
    let train: Vec<f64> = (0..60)
        .map(|i| {
            let channel = IChannel::new(ChannelKind::Thread, fresh_cfg(1_000 + i));
            let started = Instant::now();
            black_box(channel.try_calibrate(3).is_ok());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.insert("core.calibration.train_us", median(&train));
    let cfgs: Vec<ChannelConfig> = (0..64).map(fresh_cfg).collect();
    let fp_ns = unit_cost_ns(40, 64, |i| {
        black_box(fingerprint(ChannelKind::Thread, &cfgs[i % 64], 3));
    });
    out.insert("core.calibration.fingerprint_us", fp_ns / 1e3);

    // soc: building a SoC, and re-arming one in place.
    let soc_cfg = ChannelConfig::default_cannon_lake().soc;
    let new_us: Vec<f64> = (0..40)
        .map(|_| {
            let batch: Vec<SocConfig> = (0..32).map(|_| soc_cfg.clone()).collect();
            let started = Instant::now();
            for cfg in batch {
                black_box(Soc::new(cfg));
            }
            started.elapsed().as_secs_f64() * 1e6 / 32.0
        })
        .collect();
    out.insert("soc.new_us", median(&new_us));
    let mut soc = Soc::new(soc_cfg.clone());
    let rearm_ns = unit_cost_ns(40, 64, |_| {
        soc.rearm();
        black_box(&soc);
    });
    out.insert("soc.rearm_us", rearm_ns / 1e3);

    pmu_pdn(&soc_cfg, &mut out);
    meter_and_report(dir, &mut out)?;
    Ok(out)
}

/// PMU and PDN hot-path calls on a Cannon Lake operating point.
fn pmu_pdn(cfg: &SocConfig, out: &mut BTreeMap<&'static str, f64>) {
    let p = &cfg.platform;
    let freq = cfg.governor.requested_freq(&p.pstates, 0.0);
    let base_mv = p.vf_curve.voltage_mv(freq);
    let new_pmu = || {
        CentralPmu::new(
            PmuConfig {
                n_cores: p.n_cores,
                guardband: p.guardband(),
                vr_model: p.vr_model,
                reset_time: p.reset_time,
                per_core_vr: cfg.per_core_vr,
                secure_mode: cfg.secure_mode,
            },
            freq,
            base_mv,
        )
    };
    let classes = InstClass::SENDER_LEVELS;
    let step = SimTime::from_us(20.0);

    // Executions cycling through the sender levels, 20 µs apart.
    let mut pmu = new_pmu();
    let mut now = SimTime::ZERO;
    let exec_ns = unit_cost_ns(40, 256, |i| {
        now += step;
        black_box(pmu.on_execute(i % p.n_cores, classes[i % 4], now));
    });
    out.insert("pmu.on_execute_ns", exec_ns);

    // Decay scans across each license's reset window, after one burst
    // of the heaviest level on every core.
    let mut pmu = new_pmu();
    let mut now = SimTime::ZERO;
    let mut decays = Vec::new();
    for _ in 0..200 {
        for core in 0..p.n_cores {
            pmu.on_execute(core, InstClass::Heavy512, now);
        }
        let started = Instant::now();
        for _ in 0..64 {
            now += SimTime::from_us(40.0);
            black_box(pmu.process_decays(now));
        }
        decays.push(started.elapsed().as_nanos() as f64 / 64.0);
    }
    out.insert("pmu.process_decays_ns", median(&decays));

    let mut thermal = cfg.thermal_model();
    let thermal_ns = unit_cost_ns(40, 256, |i| {
        thermal.advance(5.0 + (i % 7) as f64, step);
        black_box(thermal.temp_c());
    });
    out.insert("pmu.thermal_advance_ns", thermal_ns);

    // Rail voltage mid-ramp: one transition per batch, queried across
    // its ramp (the interpolating path, not the settled fast path).
    let mut pmu = new_pmu();
    let mut now = SimTime::ZERO;
    let mut volts = Vec::new();
    for _ in 0..200 {
        now += SimTime::from_ms(5.0);
        pmu.process_decays(now);
        let grant = pmu.on_execute(0, InstClass::Heavy512, now);
        let end = grant.ready_at.max(now + SimTime::from_us(1.0));
        let span = end - now;
        let started = Instant::now();
        for j in 0..64 {
            black_box(pmu.rail(0).voltage_at(now + span.scale(j as f64 / 64.0)));
        }
        volts.push(started.elapsed().as_nanos() as f64 / 64.0);
    }
    out.insert("pdn.vr_voltage_at_ns", median(&volts));

    let model = p.current_model();
    let acts: Vec<CoreActivity> = (0..p.n_cores)
        .map(|c| match c % 3 {
            0 => CoreActivity::busy(InstClass::Heavy256),
            1 => CoreActivity::IDLE,
            _ => CoreActivity::busy(InstClass::Scalar64),
        })
        .collect();
    let icc_ns = unit_cost_ns(40, 256, |i| {
        black_box(model.icc_a(&acts, base_mv + (i % 9) as f64, freq, 60.0));
    });
    out.insert("pdn.icc_a_ns", icc_ns);
}

/// JSONL render/parse and the CSV report over real rows of the quick
/// catalog.
fn meter_and_report(dir: &Path, out: &mut BTreeMap<&'static str, f64>) -> std::io::Result<()> {
    let rows: Vec<TrialRow> = campaigns::catalog(true)
        .iter()
        .flat_map(|(name, grid)| campaigns::run(name, grid, Executor::new(1)).records)
        .map(|record| TrialRow::from_record(&record))
        .collect();
    let n = rows.len() as f64;
    let mut lines = Vec::new();
    let render: Vec<f64> = (0..40)
        .map(|_| {
            let started = Instant::now();
            lines = rows.iter().map(|r| r.jsonl_row().to_json()).collect();
            n / started.elapsed().as_secs_f64()
        })
        .collect();
    out.insert("meter.render_rows_per_s", median(&render));
    let parse: Vec<f64> = (0..40)
        .map(|_| {
            let started = Instant::now();
            for line in &lines {
                black_box(TrialRow::parse(line).is_ok());
            }
            n / started.elapsed().as_secs_f64()
        })
        .collect();
    out.insert("meter.parse_rows_per_s", median(&parse));
    let cells = summarize_rows(&rows);
    let mut csv = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        write_trial_csvs(&rows, &cells, dir, "probe")?;
        csv.push(started.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("lab.report.csv_ms", median(&csv));
    Ok(())
}

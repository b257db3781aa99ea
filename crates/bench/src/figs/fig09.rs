//! Figure 9 — fine-grained timelines of one AVX2 PHI loop on Cannon
//! Lake (paper §5.4).
//!
//! (a) At a sub-nominal frequency: the core throttles (IPC drops to 1/4)
//! while the VR ramps the guardband; frequency is untouched.
//! (b) ns-zoom: the AVX power-gate opens within ~10 ns, 0.1 % of the TP.
//! (c) At turbo: the Vccmax/Iccmax protection initiates a P-state
//! transition — throttling plus a frequency step down.
//!
//! Both timelines are `ichannels-lab` trace experiments executed on the
//! engine's worker pool; this module only post-processes the series.

use ichannels_lab::scenario::PlatformId;
use ichannels_lab::{Executor, TraceProgram, TraceRun, TraceSpec};
use ichannels_meter::export::CsvTable;
use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;

use crate::{banner, write_csv};

fn timeline(run: &TraceRun, label: &str, csv_name: &str) -> Result<CsvTable, String> {
    let mut csv = CsvTable::new(["time_us", "ipc", "freq_ghz", "vcc_delta_mv", "throttled"]);
    for s in run.trace.samples() {
        csv.push_floats([
            s.time.as_us(),
            s.core_ipc[0],
            s.freq.as_ghz(),
            s.vcc_mv - run.v0_mv,
            if s.throttled[0] { 1.0 } else { 0.0 },
        ]);
    }
    // Locate the throttle window for the printed summary.
    let samples = run.trace.samples();
    let t_start = samples
        .iter()
        .find(|s| s.throttled[0])
        .map(|s| s.time.as_us());
    let t_end = samples
        .iter()
        .rfind(|s| s.throttled[0])
        .map(|s| s.time.as_us());
    let f_final = samples.last().map(|s| s.freq.as_ghz()).unwrap_or(0.0);
    let v_final = samples.last().map(|s| s.vcc_mv - run.v0_mv).unwrap_or(0.0);
    match (t_start, t_end) {
        (Some(a), Some(b)) => println!(
            "  {label}: throttled {a:.1}–{b:.1} µs, final freq {f_final:.2} GHz, Vcc +{v_final:.1} mV"
        ),
        _ => println!("  {label}: no throttling observed"),
    }
    write_csv(&csv, csv_name)?;
    Ok(csv)
}

/// Runs the three Figure 9 panels.
///
/// # Errors
///
/// A failed CSV write, or a Cannon Lake preset without an AVX power
/// gate.
pub fn run(_quick: bool) -> Result<(), String> {
    banner("Figure 9: AVX2 PHI timelines on Cannon Lake");
    let burst = || TraceProgram::Burst {
        class: InstClass::Heavy256,
        duration: SimTime::from_us(30.0),
    };
    let specs = [
        // (a) Sub-nominal frequency: guardband ramp throttling only.
        TraceSpec {
            name: "fig09a".to_string(),
            platform: PlatformId::CannonLake,
            freq_ghz: Some(1.4),
            sample_every: SimTime::from_ns(200.0),
            horizon: SimTime::from_us(40.0),
            cores: vec![(0, burst())],
        },
        // (c) Turbo: Vccmax/Iccmax protection with a P-state transition.
        TraceSpec {
            name: "fig09c".to_string(),
            platform: PlatformId::CannonLake,
            freq_ghz: None,
            sample_every: SimTime::from_ns(200.0),
            horizon: SimTime::from_us(60.0),
            cores: vec![(0, burst())],
        },
    ];
    let runs = Executor::auto().map(&specs, TraceSpec::run);
    timeline(
        &runs[0],
        "(a) 1.4 GHz (di/dt guardband ramp)",
        "fig09a_guardband.csv",
    )?;

    // (b) ns zoom: the power-gate wake.
    let wake = PlatformSpec::cannon_lake()
        .avx_pg_wake
        .ok_or_else(|| "the Cannon Lake preset has no AVX power gate".to_string())?;
    println!(
        "  (b) AVX power-gate staggered wake: {} (~0.1% of the {}-µs TP)",
        wake, 12
    );

    timeline(
        &runs[1],
        "(c) turbo (P-state transition)",
        "fig09c_pstate.csv",
    )?;
    Ok(())
}

//! Figure 7 — maximum Icc/Vcc limit protection (paper §5.3).
//!
//! (a) Projected operating points: on the desktop part, AVX2 at 4.9 GHz
//! exceeds **Vccmax** while staying under Iccmax; on the mobile part,
//! AVX2 at 3.1 GHz exceeds **Iccmax** while staying under Vccmax. One
//! P-state down, both fit.
//!
//! (b) Running Non-AVX → AVX2 → AVX512 phases at the performance
//! governor: the frequency steps down per phase, Icc stays below Iccmax,
//! and the junction temperature stays far below Tjmax (Key Conclusion 2:
//! this is current management, not thermal management).
//!
//! (a) is an `ichannels-lab` grid of operating-point probes (one grid
//! per platform so each sweeps its own frequencies); (b) is a trace
//! experiment executed by the engine.

use ichannels_lab::scenario::{ChannelSelect, PlatformId, ProbeKind};
use ichannels_lab::{Executor, Grid, TraceProgram, TraceSpec, TrialRecord};
use ichannels_meter::export::CsvTable;
use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::{Freq, SimTime};

use crate::{banner, write_csv};

/// One projected operating point for Figure 7(a).
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// System label.
    pub system: String,
    /// Core frequency.
    pub freq: Freq,
    /// Workload label (`Non-AVX` / `AVX2`).
    pub workload: String,
    /// Projected VR output voltage (mV) incl. guardband.
    pub vcc_mv: f64,
    /// Projected package current (A).
    pub icc_a: f64,
    /// Violated limit, if any.
    pub violation: Option<String>,
}

/// The Figure 7(a) probe grid of one platform: both workloads at both
/// candidate frequencies.
fn limits_grid(platform: PlatformId, freqs_mhz: [u32; 2], cores: u8) -> Grid {
    let mut channels = Vec::new();
    for freq_mhz in freqs_mhz {
        for class in [InstClass::Scalar64, InstClass::Heavy256] {
            channels.push(ChannelSelect::Probe(ProbeKind::OperatingPoint {
                class,
                freq_mhz,
                cores,
            }));
        }
    }
    Grid::new()
        .platforms(vec![platform])
        .channels(channels)
        .base_seed(0x07A)
}

/// Renders one operating-point record as a Figure 7(a) row.
///
/// # Errors
///
/// A record that is not an operating-point probe.
fn to_row(record: &TrialRecord, system_prefix: &str) -> Result<OperatingPoint, String> {
    let ChannelSelect::Probe(ProbeKind::OperatingPoint {
        class, freq_mhz, ..
    }) = record.scenario.channel
    else {
        return Err(format!(
            "{} is not an operating-point cell",
            record.scenario.channel.label()
        ));
    };
    let spec = record.scenario.platform.spec();
    let vcc_mv = record.metrics.probe_value;
    let icc_a = record.metrics.probe_aux;
    Ok(OperatingPoint {
        system: format!("{system_prefix} {:.1}GHz", f64::from(freq_mhz) / 1000.0),
        freq: Freq::from_mhz(f64::from(freq_mhz)),
        workload: if class == InstClass::Heavy256 {
            "AVX2".to_string()
        } else {
            "Non-AVX".to_string()
        },
        vcc_mv,
        icc_a,
        violation: spec.limits.check(vcc_mv, icc_a).map(|v| v.to_string()),
    })
}

/// Runs Figure 7(a); returns the operating-point table.
///
/// # Errors
///
/// A record that is not an operating-point probe, or a failed CSV
/// write.
pub fn run_limits(_quick: bool) -> Result<Vec<OperatingPoint>, String> {
    banner("Figure 7(a): Vccmax/Iccmax protection — projected operating points");
    let executor = Executor::auto();
    let mut rows: Vec<OperatingPoint> = executor
        .run(&limits_grid(PlatformId::CoffeeLake, [4900, 4800], 1).scenarios())
        .iter()
        .map(|r| to_row(r, "Desktop i7-9700K"))
        .collect::<Result<_, _>>()?;
    for r in executor.run(&limits_grid(PlatformId::CannonLake, [3100, 2200], 2).scenarios()) {
        rows.push(to_row(&r, "Mobile i3-8121U")?);
    }

    let mut csv = CsvTable::new([
        "system",
        "workload",
        "freq_ghz",
        "vcc_mv",
        "icc_a",
        "violation",
    ]);
    println!(
        "  {:<26} {:<8} {:>9} {:>9} {:>9}  violation",
        "system", "workload", "freq", "Vcc(mV)", "Icc(A)"
    );
    for r in &rows {
        println!(
            "  {:<26} {:<8} {:>9} {:>9.1} {:>9.1}  {}",
            r.system,
            r.workload,
            format!("{}", r.freq),
            r.vcc_mv,
            r.icc_a,
            r.violation.as_deref().unwrap_or("-")
        );
        csv.push_row([
            r.system.clone(),
            r.workload.clone(),
            format!("{:.2}", r.freq.as_ghz()),
            format!("{:.2}", r.vcc_mv),
            format!("{:.2}", r.icc_a),
            r.violation.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    write_csv(&csv, "fig07a_limits.csv")?;
    Ok(rows)
}

/// Phase summary row for Figure 7(b).
#[derive(Debug, Clone)]
pub struct PhasePoint {
    /// Phase label.
    pub phase: String,
    /// Sustained frequency (GHz) at the phase midpoint.
    pub freq_ghz: f64,
    /// Package current (A) at the midpoint.
    pub icc_a: f64,
    /// Junction temperature (°C) at the midpoint.
    pub temp_c: f64,
}

/// Runs Figure 7(b); returns per-phase midpoint summaries.
///
/// # Errors
///
/// A failed CSV write.
pub fn run_phases(quick: bool) -> Result<Vec<PhasePoint>, String> {
    banner("Figure 7(b): Non-AVX → AVX2 → AVX512 at the performance governor (mobile)");
    // Long phases (2 s each in full mode) let the RC thermal model show
    // the paper's 58–62 °C band — and that it never approaches Tjmax.
    let per_phase = if quick {
        SimTime::from_ms(8.0)
    } else {
        SimTime::from_secs(2.0)
    };
    let program = || TraceProgram::ThreePhase {
        per_phase,
        block_insts: 20_000,
    };
    let spec = TraceSpec {
        name: "fig07b".to_string(),
        platform: PlatformId::CannonLake,
        freq_ghz: None,
        sample_every: per_phase.scale(0.02),
        horizon: per_phase.scale(3.2),
        cores: vec![(0, program()), (1, program())],
    };
    let run = &Executor::serial().map(std::slice::from_ref(&spec), TraceSpec::run)[0];
    let mut csv = CsvTable::new(["time_s", "freq_ghz", "vcc_mv", "icc_a", "temp_c"]);
    for s in run.trace.samples() {
        csv.push_floats([
            s.time.as_secs(),
            s.freq.as_ghz(),
            s.vcc_mv,
            s.icc_a,
            s.temp_c,
        ]);
    }
    write_csv(&csv, "fig07b_phases.csv")?;

    let mut rows = Vec::new();
    for (k, label) in [(0.5, "Non-AVX"), (1.5, "AVX2"), (2.5, "AVX512")] {
        if let Some(point) = run.probe(per_phase.scale(k), |s| PhasePoint {
            phase: label.to_string(),
            freq_ghz: s.freq.as_ghz(),
            icc_a: s.icc_a,
            temp_c: s.temp_c,
        }) {
            rows.push(point);
        }
    }
    let iccmax = PlatformSpec::cannon_lake().limits.iccmax_a();
    println!(
        "  {:<9} {:>9} {:>9} {:>9}   (Iccmax = {iccmax} A, Tjmax = 100 C)",
        "phase", "freq", "Icc(A)", "Tj(C)"
    );
    for r in &rows {
        println!(
            "  {:<9} {:>8.2}G {:>9.1} {:>9.1}",
            r.phase, r.freq_ghz, r.icc_a, r.temp_c
        );
    }
    Ok(rows)
}

/// Runs both parts of Figure 7.
///
/// # Errors
///
/// A failed CSV write.
pub fn run(quick: bool) -> Result<(), String> {
    run_limits(quick)?;
    run_phases(quick)?;
    Ok(())
}

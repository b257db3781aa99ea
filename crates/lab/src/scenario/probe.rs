//! Direct micro-architectural measurements ([`ProbeKind`]): the
//! characterization figures (§5) expressed as engine cells, executed
//! through the shared [`TrialContext`].

use ichannels::channel::{ChannelError, ChannelKind, IChannel};
use ichannels::symbols::Symbol;
use ichannels_pdn::current::CoreActivity;
use ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_soc::sim::Soc;
use ichannels_uarch::idq::{Idq, SmtId, ThreadDemand};
use ichannels_uarch::ipc::{nominal_ipc, THROTTLE_BLOCKED_FRACTION};
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::{Freq, SimTime};
use ichannels_workload::loops::{instructions_for_duration, MeasuredLoop, PrecededLoop, Recorder};

use super::context::TrialContext;
use super::{mix, PayloadSpec, PlatformId, Scenario};
use crate::report::TrialMetrics;

/// Condition of an IDQ undelivered-slots probe (Figure 11): what the
/// cycle-level IDQ model executes and which hardware thread is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdqCondition {
    /// Throttled Heavy256 iteration, observed on the issuing thread.
    Throttled,
    /// Unthrottled iteration, observed on the issuing thread.
    Unthrottled,
    /// Throttled iteration, observed from the scalar SMT sibling.
    SmtSibling,
}

impl IdqCondition {
    /// The three Figure 11 conditions.
    pub const ALL: [IdqCondition; 3] = [
        IdqCondition::Throttled,
        IdqCondition::Unthrottled,
        IdqCondition::SmtSibling,
    ];

    /// Short label used in cell keys.
    pub const fn label(self) -> &'static str {
        match self {
            IdqCondition::Throttled => "idq-throttled",
            IdqCondition::Unthrottled => "idq-unthrottled",
            IdqCondition::SmtSibling => "idq-sibling",
        }
    }
}

/// Cycles per IDQ probe window (Figure 11's measurement window).
const IDQ_PROBE_WINDOW_CYCLES: u64 = 1_000;

/// A direct micro-architectural measurement — no symbol stream, the
/// characterization figures (§5) expressed as engine cells. The
/// measurement lands in [`crate::report::TrialMetrics::probe_value`]
/// (and `probe_aux` where a probe defines a second output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Throttling period (µs) of a `class` loop running on `cores`
    /// cores concurrently (Figures 8(a), 10(a)).
    Tp {
        /// Instruction class of the measured loop.
        class: InstClass,
        /// Number of cores running the loop concurrently.
        cores: u8,
    },
    /// TP (µs) of a Heavy512 loop preceded by a `prev` loop
    /// (Figure 10(b)).
    PrecededTp {
        /// The class executed immediately before the measured loop.
        prev: InstClass,
    },
    /// Duration (µs) of back-to-back Heavy256 iteration `iter` of three
    /// — the AVX power-gate wake experiment (Figure 8(b,c)).
    GateIteration {
        /// Which of the three iterations is reported (0, 1, or 2).
        iter: u8,
    },
    /// Normalized IDQ undelivered slots under `IdqCondition`
    /// (Figure 11).
    Idq(IdqCondition),
    /// Receiver-measured duration (TSC cycles) of one transmitted
    /// sender level over the same-thread channel (Figure 13).
    LevelDuration {
        /// The transmitted symbol value (0..4).
        level: u8,
    },
    /// Projected (unprotected) operating point: Vcc (mV) in
    /// `probe_value`, Icc (A) in `probe_aux` (Figure 7(a)).
    OperatingPoint {
        /// Instruction class executed on the active cores.
        class: InstClass,
        /// Projected core frequency in MHz (exact, not P-state-snapped).
        freq_mhz: u32,
        /// Number of active cores.
        cores: u8,
    },
}

impl ProbeKind {
    /// Label used in cell keys and export rows.
    pub fn label(self) -> String {
        match self {
            ProbeKind::Tp { class, cores } => format!("tp-{class}-c{cores}"),
            ProbeKind::PrecededTp { prev } => format!("prec-{prev}"),
            ProbeKind::GateIteration { iter } => format!("gate-i{iter}"),
            ProbeKind::Idq(cond) => cond.label().to_string(),
            ProbeKind::LevelDuration { level } => format!("dwell{level}"),
            ProbeKind::OperatingPoint {
                class,
                freq_mhz,
                cores,
            } => format!("op-{class}-{freq_mhz}MHz-c{cores}"),
        }
    }
}

/// Converts a measured loop-duration inflation into a throttling
/// period: during the TP the loop retires at 1/4 rate, so the inflation
/// is `TP · 3/4` (provided the loop outlasts the TP) and
/// `TP = inflation / (3/4)`.
fn inflation_to_tp_us(measured_us: f64, base_us: f64) -> f64 {
    (measured_us - base_us).max(0.0) / THROTTLE_BLOCKED_FRACTION
}

impl Scenario {
    /// Probes measure the machine directly: there is no symbol stream,
    /// no interfering app, no mitigation stack and no design knob, so
    /// those axes must sit at their defaults — otherwise a row would
    /// carry an axis label that never applied to the measurement.
    pub(super) fn probe_supported(&self, probe: ProbeKind) -> bool {
        if self.app.is_some()
            || self.knob.is_some()
            || self.payload != PayloadSpec::Random
            || !self.mitigations.is_empty()
            || !self.receiver.is_default()
        {
            return false;
        }
        let spec = self.platform.spec();
        match probe {
            ProbeKind::Tp { cores, .. } => cores >= 1 && (cores as usize) <= spec.n_cores,
            ProbeKind::PrecededTp { .. } => true,
            ProbeKind::GateIteration { iter } => iter < 3,
            // The IDQ model is platform-, noise-, and frequency-
            // independent (it counts cycles, not time); restrict to the
            // canonical setup so labels stay honest.
            ProbeKind::Idq(_) => {
                self.platform == PlatformId::CannonLake
                    && self.noise == super::NoiseSpec::Quiet
                    && self.freq_ghz.is_none()
            }
            ProbeKind::LevelDuration { level } => level < 4,
            // Operating points carry their own exact frequency, so the
            // grid's pinned-frequency axis must stay at its default.
            ProbeKind::OperatingPoint {
                freq_mhz, cores, ..
            } => {
                self.noise == super::NoiseSpec::Quiet
                    && self.freq_ghz.is_none()
                    && cores >= 1
                    && (cores as usize) <= spec.n_cores
                    && Freq::from_mhz(f64::from(freq_mhz)) <= spec.vf_curve.max_freq()
            }
        }
    }
}

/// Wraps a probe measurement pair into the metrics struct (all channel
/// metrics undefined).
fn probe_metrics(value: f64, aux: f64) -> TrialMetrics {
    TrialMetrics {
        probe_value: value,
        probe_aux: aux,
        ..TrialMetrics::undefined()
    }
}

/// The probe's pinned frequency: the scenario override (or platform
/// default) snapped down to a real P-state.
fn probe_freq(scenario: &Scenario, spec: &PlatformSpec) -> Freq {
    let ghz = scenario
        .freq_ghz
        .unwrap_or(scenario.platform.default_freq_ghz());
    spec.pstates.highest_not_above(Freq::from_ghz(ghz))
}

/// A pinned, noise-configured SoC for loop probes, seeded from the
/// trial seed.
fn probe_soc(scenario: &Scenario, spec: PlatformSpec, freq: Freq) -> Soc {
    let mut cfg = SocConfig::pinned(spec, freq).with_noise(scenario.noise.config());
    cfg.seed = mix(scenario.seed, 2);
    Soc::new(cfg)
}

/// Executes one probe measurement on the shared trial context.
pub(super) fn run_probe(
    ctx: &TrialContext<'_>,
    probe: ProbeKind,
) -> Result<TrialMetrics, ChannelError> {
    let scenario = ctx.scenario();
    match probe {
        ProbeKind::Tp { class, cores } => {
            let spec = scenario.platform.spec();
            let freq = probe_freq(scenario, &spec);
            let mut soc = probe_soc(scenario, spec, freq);
            // Loop long enough to outlast any TP (≥ 60 µs of work).
            let insts = instructions_for_duration(class, freq, SimTime::from_us(60.0));
            let rec = Recorder::new();
            soc.spawn(
                0,
                0,
                Box::new(MeasuredLoop::once(class, insts, rec.clone())),
            );
            for core in 1..cores as usize {
                soc.spawn(
                    core,
                    0,
                    Box::new(MeasuredLoop::once(class, insts, Recorder::new())),
                );
            }
            soc.run_until_idle(SimTime::from_ms(5.0));
            let base_us = insts as f64 / nominal_ipc(class) / freq.as_hz() as f64 * 1e6;
            let tp = inflation_to_tp_us(rec.durations_us(soc.tsc())[0], base_us);
            Ok(probe_metrics(tp, f64::NAN))
        }
        ProbeKind::PrecededTp { prev } => {
            let spec = scenario.platform.spec();
            let freq = probe_freq(scenario, &spec);
            let mut soc = probe_soc(scenario, spec, freq);
            let main_insts =
                instructions_for_duration(InstClass::Heavy512, freq, SimTime::from_us(60.0));
            let prev_insts =
                instructions_for_duration(InstClass::Heavy256, freq, SimTime::from_us(15.0));
            let rec = Recorder::new();
            soc.spawn(
                0,
                0,
                Box::new(PrecededLoop::new(
                    prev,
                    prev_insts,
                    InstClass::Heavy512,
                    main_insts,
                    SimTime::from_us(30.0),
                    rec.clone(),
                )),
            );
            soc.run_until_idle(SimTime::from_ms(5.0));
            let base_us =
                main_insts as f64 / nominal_ipc(InstClass::Heavy512) / freq.as_hz() as f64 * 1e6;
            let tp = inflation_to_tp_us(rec.durations_us(soc.tsc())[0], base_us);
            Ok(probe_metrics(tp, f64::NAN))
        }
        ProbeKind::GateIteration { iter } => {
            let spec = scenario.platform.spec();
            let freq = probe_freq(scenario, &spec);
            let mut soc = probe_soc(scenario, spec, freq);
            // Three back-to-back 300-instruction VMULPD-class loops
            // (§5.4): only the first pays the power-gate wake.
            let rec = Recorder::new();
            soc.spawn(
                0,
                0,
                Box::new(MeasuredLoop::new(
                    InstClass::Heavy256,
                    300,
                    3,
                    SimTime::ZERO,
                    rec.clone(),
                )),
            );
            soc.run_until_idle(SimTime::from_ms(1.0));
            Ok(probe_metrics(
                rec.durations_us(soc.tsc())[iter as usize],
                f64::NAN,
            ))
        }
        ProbeKind::Idq(condition) => {
            let mut idq = Idq::new();
            let (throttled, sibling, observe) = match condition {
                IdqCondition::Throttled => (true, ThreadDemand::IDLE, SmtId::T0),
                IdqCondition::Unthrottled => (false, ThreadDemand::IDLE, SmtId::T0),
                IdqCondition::SmtSibling => (true, ThreadDemand::busy(), SmtId::T1),
            };
            idq.set_throttled(throttled);
            let frac = idq.run_normalized_undelivered(
                ThreadDemand::busy(),
                sibling,
                IDQ_PROBE_WINDOW_CYCLES,
                observe,
            );
            Ok(probe_metrics(frac, f64::NAN))
        }
        ProbeKind::LevelDuration { level } => {
            // One transmitted symbol over the same-thread channel,
            // measured by the receiver under the scenario's noise.
            let channel = IChannel::new(ChannelKind::Thread, ctx.config().clone());
            let durations = channel.run_symbols(&[Symbol::new(level)])?;
            Ok(probe_metrics(durations[0] as f64, f64::NAN))
        }
        ProbeKind::OperatingPoint {
            class,
            freq_mhz,
            cores,
        } => {
            let spec = scenario.platform.spec();
            let freq = Freq::from_mhz(f64::from(freq_mhz));
            let base = spec.vf_curve.voltage_mv(freq);
            let classes: Vec<Option<InstClass>> = (0..spec.n_cores)
                .map(|i| (i < cores as usize).then_some(class))
                .collect();
            let vcc = base + spec.guardband().package_guardband_mv(&classes, base, freq);
            let acts: Vec<CoreActivity> = (0..spec.n_cores)
                .map(|i| {
                    if i < cores as usize {
                        CoreActivity::busy(class)
                    } else {
                        CoreActivity::IDLE
                    }
                })
                .collect();
            let icc = spec.current_model().icc_a(&acts, vcc, freq, 60.0);
            Ok(probe_metrics(vcc, icc))
        }
    }
}

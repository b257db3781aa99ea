//! The [`Scenario`] descriptor: one fully-specified simulated run.
//!
//! A scenario is pure data — platform, channel selection, level
//! alphabet, noise, mitigation set, concurrent-app interference, payload
//! and seeding — so it can be enumerated by a [`crate::grid::Grid`],
//! shipped to a worker thread, and executed hermetically. Every source
//! of randomness inside a trial (symbol stream, measurement jitter, OS
//! noise, app arrivals) is derived from the scenario's single `seed`,
//! which makes parallel execution bit-identical to serial execution.
//!
//! The module splits along the trial pipeline:
//!
//! * [`axes`](self) — the sweepable axis value types ([`PlatformId`],
//!   [`ChannelSelect`], [`NoiseSpec`], [`AppSpec`], [`Knob`],
//!   [`ReceiverSpec`], [`PayloadSpec`], …), re-exported here;
//! * [`TrialContext`] — the shared run-one-trial engine (resolve spec →
//!   channel config → calibration → transmit → metrics);
//! * probes ([`ProbeKind`]) — the characterization figures as engine
//!   cells, executed through the same context.

mod axes;
mod context;
mod probe;

pub use axes::{
    mitigations_label, AlphabetSpec, AppKind, AppSpec, BaselineKind, ChannelSelect, Knob,
    NoiseSpec, PayloadSpec, PlatformId, ReceiverSpec,
};
pub use context::TrialContext;
pub use probe::{IdqCondition, ProbeKind};

use ichannels::channel::{ChannelConfig, ChannelKind};
use ichannels::mitigations::Mitigation;
use ichannels_soc::config::SocConfig;
use ichannels_uarch::time::Freq;

use crate::report::{TrialMetrics, TrialRecord};

/// SplitMix64 step — the seed-derivation mixer used throughout the lab.
pub(crate) fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fully-specified simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Platform the SoC simulates.
    pub platform: PlatformId,
    /// Which channel to drive.
    pub channel: ChannelSelect,
    /// OS noise.
    pub noise: NoiseSpec,
    /// Mitigations applied to the SoC (§7).
    pub mitigations: Vec<Mitigation>,
    /// Optional concurrent interfering application.
    pub app: Option<AppSpec>,
    /// Optional design-parameter override (the ablation axis).
    pub knob: Option<Knob>,
    /// Receiver selection (platform-calibrated by default).
    pub receiver: ReceiverSpec,
    /// Symbol stream shape.
    pub payload: PayloadSpec,
    /// Number of payload symbols per trial.
    pub payload_symbols: usize,
    /// Calibration repetitions per level.
    pub calib_reps: usize,
    /// Pinned frequency override (GHz); platform default when `None`.
    pub freq_ghz: Option<f64>,
    /// Trial index within the cell.
    pub trial: u32,
    /// The trial's master seed; every internal RNG stream derives from
    /// it, so a scenario's outcome is a pure function of its fields.
    pub seed: u64,
}

impl Scenario {
    /// True if this combination is actually runnable: SMT channels need
    /// an SMT platform, cross-core channels a second core, and baseline
    /// channels only exist in their fixed published setup (default
    /// platform/noise/mitigation/app/payload axes, single trial) — any
    /// other combination would export rows whose axis labels never
    /// applied to the measurement.
    pub fn supported(&self) -> bool {
        let kind = match self.channel {
            ChannelSelect::Icc(kind) => kind,
            // The multi-level channel decodes its own wider alphabet
            // and has no adaptive receiver: a non-default receiver
            // label would never apply to the measurement.
            ChannelSelect::MultiLevel(kind, _) => {
                if !self.receiver.is_default() {
                    return false;
                }
                kind
            }
            ChannelSelect::Baseline(_) => {
                return self.platform == PlatformId::CannonLake
                    && self.noise == NoiseSpec::Quiet
                    && self.mitigations.is_empty()
                    && self.app.is_none()
                    && self.knob.is_none()
                    && self.receiver.is_default()
                    && self.payload == PayloadSpec::Random
                    && self.trial == 0;
            }
            ChannelSelect::Probe(probe) => return self.probe_supported(probe),
        };
        let spec = self.platform.spec();
        match kind {
            ChannelKind::Thread => true,
            ChannelKind::Smt => spec.smt,
            ChannelKind::Cores => spec.n_cores >= 2,
        }
    }

    /// The cell key: every axis except the trial index. Trials of one
    /// cell aggregate into one summary row.
    pub fn cell_key(&self) -> String {
        let mut key = format!(
            "{}/{}/{}/{}/{}/{}x{}",
            self.platform.label(),
            self.channel.label(),
            self.noise.label(),
            mitigations_label(&self.mitigations),
            self.app.map_or_else(|| "noapp".to_string(), AppSpec::label),
            self.payload.label(),
            self.payload_symbols,
        );
        // Off-default axes append labeled segments, so cell keys (and
        // therefore the seeds derived from them) of campaigns that do
        // not sweep frequency or knobs are unchanged.
        if let Some(ghz) = self.freq_ghz {
            key.push_str(&format!("/f{ghz}"));
        }
        if let Some(knob) = self.knob {
            key.push('/');
            key.push_str(&knob.label());
        }
        if !self.receiver.is_default() {
            key.push('/');
            key.push_str(&self.receiver.label());
        }
        key
    }

    /// Full trial label: cell key plus trial index.
    pub fn label(&self) -> String {
        format!("{}#{}", self.cell_key(), self.trial)
    }

    /// Builds the channel configuration for IChannel-family scenarios:
    /// platform pinned at the scenario frequency, noise and mitigations
    /// applied, jitter and SoC seeds derived from the trial seed.
    pub fn channel_config(&self) -> ChannelConfig {
        let spec = self.platform.spec();
        let ghz = self.freq_ghz.unwrap_or(self.platform.default_freq_ghz());
        let freq = spec.pstates.highest_not_above(Freq::from_ghz(ghz));
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(spec, freq).with_noise(self.noise.config());
        for m in &self.mitigations {
            cfg = m.apply(cfg);
        }
        if let Some(knob) = self.knob {
            knob.apply(&mut cfg);
        }
        cfg.receiver = self.receiver.mode();
        cfg.jitter_seed = mix(self.seed, 1);
        cfg.soc.seed = mix(self.seed, 2);
        cfg
    }

    /// Runs the trial to completion and returns its record.
    ///
    /// A failing channel run ([`ichannels::channel::ChannelError`], e.g.
    /// a knob override that breaks the slot schedule) is recorded on the
    /// trial — undefined metrics plus a readable `error` — so one bad
    /// cell never aborts the campaign or shard executing it.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not [`Scenario::supported`].
    pub fn run(&self) -> TrialRecord {
        let _total = ichannels_obs::span("trial.total");
        ichannels_obs::counter_add("trial.runs", 1);
        {
            let _resolve = ichannels_obs::span("trial.resolve");
            assert!(
                self.supported(),
                "unsupported scenario {} (grids filter these)",
                self.label()
            );
        }
        let ctx = {
            let _config = ichannels_obs::span("trial.config");
            TrialContext::new(self)
        };
        match ctx.run() {
            Ok(metrics) => TrialRecord {
                scenario: self.clone(),
                metrics,
                error: None,
            },
            Err(e) => {
                ichannels_obs::counter_add("trial.errors", 1);
                TrialRecord {
                    scenario: self.clone(),
                    metrics: TrialMetrics::undefined(),
                    error: Some(e.to_string()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels::channel::{ReceiverCalibration, ReceiverMode};
    use ichannels_uarch::isa::InstClass;
    use ichannels_uarch::time::SimTime;

    fn base_scenario() -> Scenario {
        Scenario {
            platform: PlatformId::CannonLake,
            channel: ChannelSelect::Icc(ChannelKind::Thread),
            noise: NoiseSpec::Quiet,
            mitigations: vec![],
            app: None,
            knob: None,
            receiver: ReceiverSpec::Calibrated,
            payload: PayloadSpec::Random,
            payload_symbols: 8,
            calib_reps: 2,
            freq_ghz: None,
            trial: 0,
            seed: 7,
        }
    }

    #[test]
    fn quiet_thread_trial_is_error_free() {
        let record = base_scenario().run();
        assert_eq!(record.metrics.ber, 0.0);
        assert!(record.metrics.throughput_bps > 2_500.0);
        assert!(record.metrics.min_separation_cycles > 1_500.0);
        assert_eq!(record.error, None);
    }

    #[test]
    fn quiet_system_has_near_zero_ber() {
        let mut s = base_scenario();
        s.payload_symbols = 40;
        s.calib_reps = 3;
        let metrics = s.run().metrics;
        assert!(metrics.ber < 0.02, "ber = {}", metrics.ber);
        assert!(
            metrics.capacity_bps > 2_500.0,
            "cap = {}",
            metrics.capacity_bps
        );
    }

    #[test]
    fn trials_are_pure_functions_of_the_scenario() {
        let s = base_scenario();
        let a = s.run();
        let b = s.run();
        assert_eq!(a.metrics.ber, b.metrics.ber);
        assert_eq!(a.metrics.throughput_bps, b.metrics.throughput_bps);
        let mut other = s.clone();
        other.seed = 8;
        // A different seed draws a different payload; metrics may agree
        // but the rendered rows must reflect the seed.
        assert_ne!(other.run().scenario.seed, a.scenario.seed);
    }

    #[test]
    fn smt_unsupported_on_coffee_lake() {
        let mut s = base_scenario();
        s.platform = PlatformId::CoffeeLake;
        s.channel = ChannelSelect::Icc(ChannelKind::Smt);
        assert!(!s.supported());
        s.channel = ChannelSelect::Icc(ChannelKind::Cores);
        assert!(s.supported());
    }

    #[test]
    fn cell_key_excludes_trial() {
        let mut s = base_scenario();
        s.trial = 3;
        let t0 = {
            let mut x = s.clone();
            x.trial = 0;
            x
        };
        assert_eq!(s.cell_key(), t0.cell_key());
        assert_ne!(s.label(), t0.label());
    }

    #[test]
    fn default_axes_leave_cell_keys_unchanged() {
        // PR-1 campaigns never set freq or knob: their keys (and seeds)
        // must not grow new segments.
        let s = base_scenario();
        assert!(!s.cell_key().contains("/f"), "{}", s.cell_key());
        let mut pinned = s.clone();
        pinned.freq_ghz = Some(1.4);
        assert!(
            pinned.cell_key().ends_with("/f1.4"),
            "{}",
            pinned.cell_key()
        );
        let mut knobbed = s.clone();
        knobbed.knob = Some(Knob::VrSlew(4.8));
        assert!(
            knobbed.cell_key().ends_with("/slew4.8"),
            "{}",
            knobbed.cell_key()
        );
        // The default (calibrated) receiver adds no segment either; the
        // off-default receivers do.
        assert!(!s.cell_key().contains("/rx-"), "{}", s.cell_key());
        let mut legacy = s.clone();
        legacy.receiver = ReceiverSpec::Legacy;
        assert!(
            legacy.cell_key().ends_with("/rx-legacy"),
            "{}",
            legacy.cell_key()
        );
        let mut fixed = s.clone();
        fixed.receiver = ReceiverSpec::Fixed {
            window_scale: 2.0,
            votes: 5,
        };
        assert!(
            fixed.cell_key().ends_with("/rx-w2v5"),
            "{}",
            fixed.cell_key()
        );
    }

    #[test]
    fn off_default_receivers_only_apply_to_icc_channels() {
        let legacy = ReceiverSpec::Legacy;
        // IChannel scenarios accept any receiver.
        let mut s = base_scenario();
        s.receiver = legacy;
        assert!(s.supported());
        // Probes, baselines, and the multi-level channel decode outside
        // the adaptive receiver: a non-default label would be false.
        let mut probe = base_scenario();
        probe.channel = ChannelSelect::Probe(ProbeKind::Tp {
            class: InstClass::Heavy256,
            cores: 1,
        });
        assert!(probe.supported());
        probe.receiver = legacy;
        assert!(!probe.supported());
        let mut baseline = base_scenario();
        baseline.channel = ChannelSelect::Baseline(BaselineKind::NetSpectre);
        assert!(baseline.supported());
        baseline.receiver = legacy;
        assert!(!baseline.supported());
        let mut multi = base_scenario();
        multi.channel = ChannelSelect::MultiLevel(ChannelKind::Thread, AlphabetSpec::Phi6);
        assert!(multi.supported());
        multi.receiver = legacy;
        assert!(!multi.supported());
    }

    #[test]
    fn receiver_spec_maps_onto_core_modes() {
        assert_eq!(ReceiverSpec::Calibrated.mode(), ReceiverMode::Calibrated);
        assert_eq!(ReceiverSpec::Legacy.mode(), ReceiverMode::Legacy);
        let fixed = ReceiverSpec::Fixed {
            window_scale: 2.0,
            votes: 3,
        };
        assert_eq!(
            fixed.mode(),
            ReceiverMode::Fixed(ReceiverCalibration {
                window_scale: 2.0,
                votes: 3
            })
        );
        // The scenario's channel config carries the selection.
        let mut s = base_scenario();
        s.receiver = fixed;
        assert_eq!(s.channel_config().receiver, fixed.mode());
    }

    #[test]
    fn tp_probe_measures_a_throttling_period() {
        let mut s = base_scenario();
        s.channel = ChannelSelect::Probe(ProbeKind::Tp {
            class: InstClass::Heavy256,
            cores: 1,
        });
        let record = s.run();
        // Cannon Lake AVX2 TP at the default 1.4 GHz pin.
        assert!(
            (3.0..12.0).contains(&record.metrics.probe_value),
            "tp = {}",
            record.metrics.probe_value
        );
        assert!(record.metrics.ber.is_nan());
        // The TP grows with frequency (Figure 10(a) / Key Conclusion 4).
        let mut fast = s.clone();
        fast.freq_ghz = Some(3.0);
        assert!(fast.run().metrics.probe_value > record.metrics.probe_value);
    }

    #[test]
    fn idq_probe_matches_figure_11() {
        let run = |cond| {
            let mut s = base_scenario();
            s.channel = ChannelSelect::Probe(ProbeKind::Idq(cond));
            s.run().metrics.probe_value
        };
        assert!((run(IdqCondition::Throttled) - 0.75).abs() < 0.01);
        assert!(run(IdqCondition::Unthrottled) < 0.01);
        assert!((run(IdqCondition::SmtSibling) - 0.75).abs() < 0.01);
    }

    #[test]
    fn probes_reject_off_default_axes() {
        let mut s = base_scenario();
        s.channel = ChannelSelect::Probe(ProbeKind::Tp {
            class: InstClass::Heavy256,
            cores: 1,
        });
        assert!(s.supported());
        let mut mitigated = s.clone();
        mitigated.mitigations = vec![Mitigation::SecureMode];
        assert!(!mitigated.supported());
        let mut eight_cores = s.clone();
        eight_cores.channel = ChannelSelect::Probe(ProbeKind::Tp {
            class: InstClass::Heavy256,
            cores: 8,
        });
        assert!(!eight_cores.supported(), "cannon lake has 2 cores");
        eight_cores.platform = PlatformId::CoffeeLake;
        assert!(eight_cores.supported());
        // Probes that never read the pinned frequency reject the freq
        // axis (the rows would claim a sweep that never happened).
        let mut pinned_idq = s.clone();
        pinned_idq.channel = ChannelSelect::Probe(ProbeKind::Idq(IdqCondition::Throttled));
        assert!(pinned_idq.supported());
        pinned_idq.freq_ghz = Some(2.0);
        assert!(!pinned_idq.supported());
        let mut pinned_op = s.clone();
        pinned_op.channel = ChannelSelect::Probe(ProbeKind::OperatingPoint {
            class: InstClass::Heavy256,
            freq_mhz: 2200,
            cores: 1,
        });
        assert!(pinned_op.supported());
        pinned_op.freq_ghz = Some(2.0);
        assert!(!pinned_op.supported());
    }

    #[test]
    fn reset_time_knob_rescales_the_slot_period() {
        let mut s = base_scenario();
        s.knob = Some(Knob::ResetTimeUs(150.0));
        let cfg = s.channel_config();
        assert_eq!(cfg.slot_period, SimTime::from_us(190.0));
        assert_eq!(cfg.soc.platform.reset_time, SimTime::from_us(150.0));
    }

    #[test]
    fn mitigation_labels_are_stable() {
        assert_eq!(mitigations_label(&[]), "none");
        assert_eq!(
            mitigations_label(&[Mitigation::PerCoreVr, Mitigation::SecureMode]),
            "per-core-vr+secure-mode"
        );
    }

    #[test]
    fn secure_mode_scenario_kills_capacity() {
        let mut s = base_scenario();
        s.payload_symbols = 24;
        let baseline = s.run();
        s.mitigations = vec![Mitigation::SecureMode];
        let mitigated = s.run();
        assert!(
            mitigated.metrics.capacity_bps < 0.08 * baseline.metrics.capacity_bps,
            "residual capacity {} vs {}",
            mitigated.metrics.capacity_bps,
            baseline.metrics.capacity_bps
        );
    }

    #[test]
    fn broken_knob_fails_the_cell_not_the_process() {
        // A reset-time override far below the PHI-loop duration breaks
        // the slot schedule; the trial must come back as a record with
        // a readable error instead of panicking the worker (and, by
        // extension, the whole shard).
        let mut s = base_scenario();
        s.knob = Some(Knob::ResetTimeUs(0.001));
        // A stream of the heaviest level overruns the collapsed 40 µs
        // slots faster than the 2-slot deadline slack can absorb.
        s.payload = PayloadSpec::Constant(3);
        s.payload_symbols = 24;
        assert!(s.supported());
        let record = s.run();
        let err = record.error.as_deref().expect("schedule must collapse");
        assert!(err.contains("missed transactions"), "unreadable: {err}");
        assert!(record.metrics.ber.is_nan());
        assert_eq!(record.metrics.n_symbols, 0);
        // A healthy sibling cell still runs in the same process.
        let healthy = base_scenario().run();
        assert_eq!(healthy.error, None);
        assert_eq!(healthy.metrics.ber, 0.0);
    }

    #[test]
    fn trial_context_exposes_the_resolved_pipeline() {
        let s = base_scenario();
        let ctx = TrialContext::new(&s);
        assert_eq!(ctx.scenario(), &s);
        assert_eq!(ctx.config().jitter_seed, mix(s.seed, 1));
        let cal = ctx
            .calibration(ChannelKind::Thread)
            .expect("clean calibration");
        assert!(cal.min_separation_cycles() > 1_500.0);
        let metrics = ctx.run().expect("clean trial");
        assert_eq!(metrics.ber, s.run().metrics.ber);
    }
}

//! The anomaly oracle: what a fuzzed cell is *allowed* to do.
//!
//! The oracle folds three checks over a trial:
//!
//! 1. **Engine invariants** — a trial must be a pure function of its
//!    scenario (run twice, byte-compare the rendered row), and on
//!    client rails the calibrated receiver must resolve to identity
//!    tuning (byte-identical to a legacy-receiver twin with the same
//!    seed — the PR-4 guarantee `tests/receiver_invariance.rs` pins
//!    for the catalog, here extended to arbitrary fuzzed cells).
//! 2. **Error classification** — a typed `ChannelError` is *expected*
//!    only where the configuration collapses the slot schedule (a
//!    reset-time override below the 40 µs transaction loop); any other
//!    errored cell is an anomaly.
//! 3. **Error-rate envelope** — a clean trial's BER (SER for the
//!    multi-level channel) must stay inside an envelope predicted from
//!    the load-line/guard-band model: the platform's separation
//!    compression against the client reference rail plus additive
//!    terms for each degrading axis (noise rate, interfering app,
//!    mitigations, slew/jitter knobs, receiver tuning), all calibrated
//!    against the golden campaign sweeps.
//!
//! The envelope is deliberately one-sided (an upper bound): fuzzing
//! hunts cells that are *worse* than the physics says they may be.

use ichannels_pdn::loadline::LoadLine;

use crate::report::{TrialRecord, TrialRow};
use crate::scenario::{
    AlphabetSpec, AppKind, ChannelSelect, Knob, NoiseSpec, ReceiverSpec, Scenario,
};

/// Reset-time overrides below the 40 µs transaction loop collapse the
/// slot schedule; errors there are expected, anywhere else they are
/// findings.
const SCHEDULE_FLOOR_US: f64 = 40.0;

/// What a flagged cell did wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Measured BER/SER above the model envelope.
    ErrorRateDeviation,
    /// A `ChannelError` outside the expected schedule-collapse region.
    UnexpectedError,
    /// Two runs of the same scenario rendered different rows.
    PurityViolation,
    /// Calibrated vs legacy receiver diverged on an uncompressed rail.
    ReceiverDivergence,
}

impl AnomalyKind {
    /// Stable label used in findings rows.
    pub const fn label(self) -> &'static str {
        match self {
            AnomalyKind::ErrorRateDeviation => "error-rate-deviation",
            AnomalyKind::UnexpectedError => "unexpected-error",
            AnomalyKind::PurityViolation => "purity-violation",
            AnomalyKind::ReceiverDivergence => "receiver-divergence",
        }
    }
}

/// One flagged deviation: the kind plus the measured-vs-allowed pair
/// (`NaN` where a kind has no numeric axis) and a readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// What went wrong.
    pub kind: AnomalyKind,
    /// Measured error rate (BER/SER), `NaN` for non-rate anomalies.
    pub measured: f64,
    /// The envelope the measurement broke, `NaN` for non-rate kinds.
    pub allowed: f64,
    /// Readable context (error message, diverging field, …).
    pub detail: String,
}

/// The anomaly oracle, parameterized by the base tolerance every
/// envelope starts from (`--tolerance`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oracle {
    /// Base slack added to every envelope.
    pub tolerance: f64,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle { tolerance: 0.02 }
    }
}

/// The platform's level-separation compression against the client
/// reference rail (1.0 on clients, ~0.56 on the skylake server).
pub fn separation_compression(s: &Scenario) -> f64 {
    LoadLine::new(s.platform.spec().rll_mohm).separation_compression(&LoadLine::client_reference())
}

/// The measured error rate of a record: BER where defined (IChannel
/// cells), SER otherwise (multi-level cells).
pub fn error_rate(record: &TrialRecord) -> f64 {
    if record.metrics.ber.is_finite() {
        record.metrics.ber
    } else {
        record.metrics.ser
    }
}

fn row_bytes(record: &TrialRecord) -> String {
    TrialRow::from_record(record).jsonl_row().to_json()
}

impl Oracle {
    /// An oracle with the given base tolerance.
    pub fn new(tolerance: f64) -> Self {
        Oracle { tolerance }
    }

    /// True where a typed `ChannelError` is the *predicted* outcome: a
    /// reset-time knob below the transaction loop starves the slot
    /// schedule.
    fn error_expected(&self, s: &Scenario) -> bool {
        matches!(s.knob, Some(Knob::ResetTimeUs(us)) if us < SCHEDULE_FLOOR_US)
    }

    /// The model's upper bound on a clean cell's error rate: base
    /// tolerance plus one additive term per degrading axis, clamped to
    /// a near-coin-flip ceiling. Terms are calibrated against the
    /// golden campaign sweeps (noise_robustness, fig14c, the knob
    /// ablations, receiver_calibration) and a 2048-case fuzz sweep of
    /// the default seed.
    fn allowed_error_rate(&self, s: &Scenario) -> f64 {
        // Mitigations exist to destroy the channel: §7 cells routinely
        // measure 0.5–1.0, so a mitigated cell has no upper bound and
        // never flags (it still exercises the purity/error oracles).
        if !s.mitigations.is_empty() {
            return 1.0;
        }

        let mut allowed = self.tolerance;

        // Quantization slack: with n payload symbols one corrupted
        // symbol already costs 1/n, so short trials get proportionally
        // more room before a single hit counts as a deviation.
        allowed += 1.5 / s.payload_symbols as f64;

        // OS noise. The thread channel rides out most events
        // (noise_robustness goldens: irq10000 → 0.0125, ctx10000 →
        // 0.0375 at 40 symbols); the SMT and cross-core channels sit
        // on shared rails and run measurably hotter in the fuzz sweep.
        let kind_mult = match s.channel {
            ChannelSelect::Icc(kind) | ChannelSelect::MultiLevel(kind, _) => match kind {
                ichannels::channel::ChannelKind::Thread => 1.0,
                _ => 1.6,
            },
            _ => 1.0,
        };
        let noise_term = match s.noise {
            NoiseSpec::Quiet => 0.0,
            NoiseSpec::Low => 0.05,
            NoiseSpec::High => 0.30,
            NoiseSpec::Interrupts(r) => (r / 8_000.0).min(0.50),
            NoiseSpec::CtxSwitches(r) => (r / 5_000.0).min(0.55),
        };
        allowed += (noise_term * kind_mult).min(0.60);

        // Concurrent app (fig14c: 1 kHz → 0.0375, 10 kHz → 0.225;
        // fixed-level PHI streams collide harder than random ones).
        if let Some(app) = s.app {
            allowed += match app.kind {
                AppKind::SevenZip => 0.10,
                AppKind::FixedLevel(_) => 0.08 + (app.rate_hz / 10_000.0).min(0.30),
                AppKind::RandomLevels => 0.06 + (app.rate_hz / 12_000.0).min(0.30),
            };
        }

        // Design-knob overrides (the ablation goldens: slew 4.8 →
        // 0.10, 19.2 → 0.15; jitter is large and non-monotonic past
        // ~200 ns: 400 ns → 0.23, 1600 ns → 0.27).
        match s.knob {
            Some(Knob::VrSlew(v)) => {
                allowed += if v > 2.4 {
                    (0.04 * (v - 2.4)).min(0.30)
                } else {
                    0.05
                };
            }
            Some(Knob::MeasurementJitterNs(ns)) => {
                allowed += if ns > 200.0 { 0.45 } else { ns / 200.0 * 0.10 };
            }
            Some(Knob::ResetTimeUs(us)) => {
                // Above the schedule floor the protocol adapts its slot
                // period; near the floor the margins get thin.
                allowed += if us < 1.5 * SCHEDULE_FLOOR_US {
                    0.10
                } else {
                    0.03
                };
            }
            None => {}
        }

        // Receiver tuning: the calibrated default owes a clean decode
        // everywhere (its contract — on the compressed server rail it
        // votes its way back to parity, the PR-4 fix), and on client
        // rails legacy/fixed tunings resolve to the same identity
        // behavior. Legacy and fixed tunings on a *compressed* rail
        // carry no promise at all (skylake legacy golden: 0.10–0.19),
        // and a fixed window scaled into neighboring slots is degraded
        // anywhere.
        let compression = separation_compression(s);
        match s.receiver {
            ReceiverSpec::Calibrated => {}
            ReceiverSpec::Legacy | ReceiverSpec::Fixed { .. } if compression < 0.99 => {
                return 1.0;
            }
            ReceiverSpec::Legacy => {}
            ReceiverSpec::Fixed { window_scale, .. } => {
                if !(0.99..=1.01).contains(&window_scale) {
                    allowed += 0.15;
                }
            }
        }

        // Wider alphabets pack levels tighter (SER envelopes).
        if let ChannelSelect::MultiLevel(_, alpha) = s.channel {
            allowed += match alpha {
                AlphabetSpec::Paper4 => 0.0,
                AlphabetSpec::Phi6 => 0.05,
                AlphabetSpec::Full7 => 0.10,
            };
        }

        // Off-default frequency pins: the guard-band model (fig09c)
        // says the levels stay separable at every pstate, so the
        // envelope concedes only a small margin here. The fuzz sweep
        // shows high pins on client rails measuring far above it, even
        // though training and payload run at the same pinned pstate;
        // the cause is still open (inter-symbol interference is the
        // leading hypothesis). That deviation is exactly what the
        // hunter exists to surface, so the term stays honest rather
        // than absorbing the finding.
        if s.freq_ghz.is_some() {
            allowed += 0.08;
        }

        allowed.min(0.95)
    }

    /// Runs one scenario through every check and returns its anomaly,
    /// if any. Pure in the scenario (all reruns reuse its seed).
    pub fn judge(&self, s: &Scenario) -> Option<Anomaly> {
        let record = s.run();

        // Invariant: purity. Two runs of one scenario, each training
        // its own calibration, must render the same bytes.
        let rerun = s.run();
        let (bytes, rerun_bytes) = (row_bytes(&record), row_bytes(&rerun));
        if bytes != rerun_bytes {
            return Some(Anomaly {
                kind: AnomalyKind::PurityViolation,
                measured: f64::NAN,
                allowed: f64::NAN,
                detail: format!("rerun diverged: {bytes} vs {rerun_bytes}"),
            });
        }

        // Errored cells: expected only in the schedule-collapse region.
        if let Some(err) = &record.error {
            if self.error_expected(s) {
                return None;
            }
            return Some(Anomaly {
                kind: AnomalyKind::UnexpectedError,
                measured: f64::NAN,
                allowed: f64::NAN,
                detail: err.clone(),
            });
        }

        // Invariant: receiver identity on uncompressed rails. The
        // legacy twin keeps the scenario's seed, so only the
        // demodulator differs; its row differs only by the `/rx-legacy`
        // cell-key segment.
        if matches!(s.channel, ChannelSelect::Icc(_))
            && s.receiver == ReceiverSpec::Calibrated
            && separation_compression(s) >= 0.99
        {
            let mut twin = s.clone();
            twin.receiver = ReceiverSpec::Legacy;
            let twin_bytes = row_bytes(&twin.run()).replace("/rx-legacy", "");
            if twin_bytes != bytes {
                return Some(Anomaly {
                    kind: AnomalyKind::ReceiverDivergence,
                    measured: f64::NAN,
                    allowed: f64::NAN,
                    detail: format!("calibrated {bytes} vs legacy twin {twin_bytes}"),
                });
            }
        }

        // Envelope check.
        let measured = error_rate(&record);
        let allowed = self.allowed_error_rate(s);
        if measured.is_finite() && measured > allowed {
            return Some(Anomaly {
                kind: AnomalyKind::ErrorRateDeviation,
                measured,
                allowed,
                detail: format!(
                    "error rate {measured:.4} breaks the model envelope {allowed:.4} \
                     (separation compression {:.2})",
                    separation_compression(s)
                ),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PayloadSpec, PlatformId};
    use ichannels::channel::ChannelKind;

    fn base() -> Scenario {
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
    fn quiet_default_cell_passes() {
        assert_eq!(Oracle::default().judge(&base()), None);
    }

    #[test]
    fn schedule_collapse_is_expected_not_flagged() {
        let mut s = base();
        s.knob = Some(Knob::ResetTimeUs(0.001));
        s.payload = PayloadSpec::Constant(3);
        s.payload_symbols = 24;
        assert!(s.run().error.is_some(), "collapse must reproduce");
        assert_eq!(Oracle::default().judge(&s), None);
    }

    #[test]
    fn envelope_orders_match_the_physics() {
        let oracle = Oracle::default();
        let quiet = oracle.allowed_error_rate(&base());
        let mut noisy = base();
        noisy.noise = NoiseSpec::High;
        assert!(oracle.allowed_error_rate(&noisy) > quiet);
        let mut mitigated = base();
        mitigated.mitigations = vec![ichannels::mitigations::Mitigation::SecureMode];
        assert_eq!(oracle.allowed_error_rate(&mitigated), 1.0);
        // Legacy on the compressed server rail is unpredicted; the
        // calibrated default keeps its tight envelope there.
        let mut server = base();
        server.platform = PlatformId::SkylakeServer;
        server.channel = ChannelSelect::Icc(ChannelKind::Cores);
        assert_eq!(oracle.allowed_error_rate(&server), quiet);
        server.receiver = ReceiverSpec::Legacy;
        assert_eq!(oracle.allowed_error_rate(&server), 1.0);
        // Short trials get quantization slack.
        let mut long = base();
        long.payload_symbols = 32;
        assert!(oracle.allowed_error_rate(&long) < quiet);
    }

    #[test]
    fn compression_matches_the_pr4_characterization() {
        let mut server = base();
        server.platform = PlatformId::SkylakeServer;
        let c = separation_compression(&server);
        assert!((0.5..0.6).contains(&c), "server compression {c}");
        assert_eq!(separation_compression(&base()), 1.0);
    }
}

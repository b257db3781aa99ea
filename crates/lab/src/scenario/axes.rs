//! The sweepable axes of a [`super::Scenario`]: platforms, channel
//! selections, noise, apps, payloads, design knobs, and receivers —
//! each a small value type with a stable cell-key label.

use ichannels::channel::{ChannelConfig, ChannelKind, ReceiverCalibration, ReceiverMode};
use ichannels::extended::LevelAlphabet;
use ichannels::mitigations::Mitigation;
use ichannels_soc::config::PlatformSpec;
use ichannels_soc::noise::NoiseConfig;
use ichannels_uarch::time::SimTime;

use super::probe::ProbeKind;

/// A catalog platform, by value-semantic id (the full [`PlatformSpec`]
/// is materialized per trial).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// Cannon Lake i3-8121U — 2C/4T mobile, the paper's SMT platform.
    CannonLake,
    /// Coffee Lake i7-9700K — 8C/8T desktop.
    CoffeeLake,
    /// Haswell i7-4770K — 4C/8T desktop, FIVR, no AVX power gate.
    Haswell,
    /// Skylake-SP Xeon — the §6.4 28C/56T server extrapolation.
    SkylakeServer,
}

impl PlatformId {
    /// Every platform in the catalog.
    pub const ALL: [PlatformId; 4] = [
        PlatformId::CannonLake,
        PlatformId::CoffeeLake,
        PlatformId::Haswell,
        PlatformId::SkylakeServer,
    ];

    /// Materializes the platform description.
    pub fn spec(self) -> PlatformSpec {
        match self {
            PlatformId::CannonLake => PlatformSpec::cannon_lake(),
            PlatformId::CoffeeLake => PlatformSpec::coffee_lake(),
            PlatformId::Haswell => PlatformSpec::haswell(),
            PlatformId::SkylakeServer => PlatformSpec::skylake_server(),
        }
    }

    /// Short label used in cell keys and export rows.
    pub const fn label(self) -> &'static str {
        match self {
            PlatformId::CannonLake => "cannon_lake",
            PlatformId::CoffeeLake => "coffee_lake",
            PlatformId::Haswell => "haswell",
            PlatformId::SkylakeServer => "skylake_server",
        }
    }

    /// Default pinned characterization frequency (GHz) — the paper pins
    /// Cannon Lake at 1.4 GHz; the others are swept at 2.0 GHz, their
    /// shared low-noise operating point.
    pub const fn default_freq_ghz(self) -> f64 {
        match self {
            PlatformId::CannonLake => 1.4,
            _ => 2.0,
        }
    }
}

/// The sender's level alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlphabetSpec {
    /// The paper's four PHI levels (2 bits/transaction).
    Paper4,
    /// Six vector levels (≈2.58 bits/transaction raw).
    Phi6,
    /// All seven classes (≈2.81 bits/transaction raw).
    Full7,
}

impl AlphabetSpec {
    /// Materializes the alphabet.
    pub fn alphabet(self) -> LevelAlphabet {
        match self {
            AlphabetSpec::Paper4 => LevelAlphabet::paper4(),
            AlphabetSpec::Phi6 => LevelAlphabet::phi6(),
            AlphabetSpec::Full7 => LevelAlphabet::full7(),
        }
    }

    /// Number of levels.
    pub const fn levels(self) -> usize {
        match self {
            AlphabetSpec::Paper4 => 4,
            AlphabetSpec::Phi6 => 6,
            AlphabetSpec::Full7 => 7,
        }
    }

    /// Short label used in cell keys.
    pub const fn label(self) -> &'static str {
        match self {
            AlphabetSpec::Paper4 => "L4",
            AlphabetSpec::Phi6 => "L6",
            AlphabetSpec::Full7 => "L7",
        }
    }
}

/// A state-of-the-art comparison channel (Figure 12 / Table 2).
///
/// Baselines run their published default setup; the scenario's
/// platform, noise, and mitigation axes do not apply to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// NetSpectre's single-level AVX gadget.
    NetSpectre,
    /// DFS covert channel (~20 b/s).
    DfsCovert,
    /// TurboCC (~61 b/s).
    TurboCc,
    /// POWERT (~122 b/s).
    Powert,
}

impl BaselineKind {
    /// Display name matching the paper.
    pub const fn name(self) -> &'static str {
        match self {
            BaselineKind::NetSpectre => "NetSpectre",
            BaselineKind::DfsCovert => "DFScovert",
            BaselineKind::TurboCc => "TurboCC",
            BaselineKind::Powert => "POWERT",
        }
    }
}

/// A design-parameter override — the ablation axis: which property of
/// the hardware gives the channel its capacity, and which knob a
/// defender would want to turn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// VR slew rate override (mV/µs) — faster regulators compress the
    /// TP levels (the §7 LDO argument, quantified).
    VrSlew(f64),
    /// License-hysteresis (reset-time) override (µs). The protocol
    /// adapts: the slot period becomes reset-time + 40 µs transaction.
    ResetTimeUs(f64),
    /// Receiver measurement-jitter sigma override (ns).
    MeasurementJitterNs(f64),
}

impl Knob {
    /// Label used in cell keys and export rows.
    pub fn label(self) -> String {
        match self {
            Knob::VrSlew(v) => format!("slew{v}"),
            Knob::ResetTimeUs(v) => format!("reset{v}"),
            Knob::MeasurementJitterNs(v) => format!("jitter{v}"),
        }
    }

    /// Applies the override to a channel configuration.
    pub fn apply(self, cfg: &mut ChannelConfig) {
        match self {
            Knob::VrSlew(v) => cfg.soc.platform.vr_model.slew_mv_per_us = v,
            Knob::ResetTimeUs(us) => {
                cfg.soc.platform.reset_time = SimTime::from_us(us);
                cfg.slot_period = SimTime::from_us(us + 40.0);
            }
            Knob::MeasurementJitterNs(ns) => {
                cfg.measurement_jitter = SimTime::from_ns(ns);
            }
        }
    }
}

/// The receiver a trial decodes with — the `receiver` Grid axis.
///
/// The default ([`ReceiverSpec::Calibrated`]) is the platform-
/// calibrated adaptive receiver and adds **no** cell-key segment, so
/// campaigns that do not sweep the receiver keep their PR-1/2 cell
/// keys and seeds; off-default receivers append an `rx-…` segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReceiverSpec {
    /// Platform-calibrated adaptive receiver
    /// ([`ReceiverCalibration::for_channel`] — identity tuning on every
    /// client rail, windowed repeat-and-vote on the compressed server
    /// rail).
    Calibrated,
    /// The fixed single-sample receiver (pre-calibration behavior, the
    /// A/B baseline).
    Legacy,
    /// An explicit window×votes override (receiver-calibration sweeps).
    Fixed {
        /// Integration-window multiplier.
        window_scale: f64,
        /// Repeat-and-vote transactions per symbol.
        votes: u32,
    },
}

impl ReceiverSpec {
    /// True for the default axis value (no cell-key segment).
    pub const fn is_default(self) -> bool {
        matches!(self, ReceiverSpec::Calibrated)
    }

    /// Label used in cell keys (off-default values only — cell keys
    /// never include the `Calibrated` arm's `rx-cal`, which exists for
    /// display purposes; the default receiver adds no key segment by
    /// the seed-stability rule).
    pub fn label(self) -> String {
        match self {
            ReceiverSpec::Calibrated => "rx-cal".to_string(),
            ReceiverSpec::Legacy => "rx-legacy".to_string(),
            ReceiverSpec::Fixed {
                window_scale,
                votes,
            } => format!("rx-w{window_scale}v{votes}"),
        }
    }

    /// The core-channel receiver mode this axis value selects.
    pub fn mode(self) -> ReceiverMode {
        match self {
            ReceiverSpec::Calibrated => ReceiverMode::Calibrated,
            ReceiverSpec::Legacy => ReceiverMode::Legacy,
            ReceiverSpec::Fixed {
                window_scale,
                votes,
            } => ReceiverMode::Fixed(ReceiverCalibration {
                window_scale,
                votes,
            }),
        }
    }
}

/// Which channel a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelSelect {
    /// One of the three IChannels with the paper's 4-level alphabet.
    Icc(ChannelKind),
    /// An IChannel generalized to a wider level alphabet.
    MultiLevel(ChannelKind, AlphabetSpec),
    /// A state-of-the-art baseline (fixed published setup).
    Baseline(BaselineKind),
    /// A direct micro-architectural measurement (no symbol stream).
    Probe(ProbeKind),
}

impl ChannelSelect {
    /// Label used in cell keys and export rows.
    pub fn label(self) -> String {
        match self {
            ChannelSelect::Icc(kind) => kind.name().to_string(),
            ChannelSelect::MultiLevel(kind, alpha) => {
                format!("{}-{}", kind.name(), alpha.label())
            }
            ChannelSelect::Baseline(b) => b.name().to_string(),
            ChannelSelect::Probe(p) => p.label(),
        }
    }
}

/// OS-noise configuration of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseSpec {
    /// No OS noise.
    Quiet,
    /// The paper's low-noise client system (§6.3).
    Low,
    /// A highly noisy system (thousands of events/s).
    High,
    /// Interrupts only, at the given rate (Figure 14(a)).
    Interrupts(f64),
    /// Context switches only, at the given rate (Figure 14(a)).
    CtxSwitches(f64),
}

impl NoiseSpec {
    /// Materializes the noise configuration.
    pub fn config(self) -> NoiseConfig {
        match self {
            NoiseSpec::Quiet => NoiseConfig::quiet(),
            NoiseSpec::Low => NoiseConfig::low(),
            NoiseSpec::High => NoiseConfig::high(),
            NoiseSpec::Interrupts(rate) => NoiseConfig::interrupts_only(rate),
            NoiseSpec::CtxSwitches(rate) => NoiseConfig::ctx_switches_only(rate),
        }
    }

    /// Label used in cell keys and export rows.
    pub fn label(self) -> String {
        match self {
            NoiseSpec::Quiet => "quiet".to_string(),
            NoiseSpec::Low => "low".to_string(),
            NoiseSpec::High => "high".to_string(),
            NoiseSpec::Interrupts(rate) => format!("irq{rate}"),
            NoiseSpec::CtxSwitches(rate) => format!("ctx{rate}"),
        }
    }
}

/// What a concurrent interfering application executes (§6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppKind {
    /// Random PHIs drawn from the four sender levels.
    RandomLevels,
    /// PHIs of one fixed level (the Figure 14(b) matrix rows).
    FixedLevel(u8),
    /// The 7-zip-like AVX2 compressor.
    SevenZip,
}

/// A concurrent application sharing the SoC with the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    /// What the app executes.
    pub kind: AppKind,
    /// PHI injection rate (events/s); ignored by [`AppKind::SevenZip`].
    pub rate_hz: f64,
    /// Instructions per PHI burst; ignored by [`AppKind::SevenZip`].
    pub burst_insts: u64,
}

impl AppSpec {
    /// Label used in cell keys and export rows.
    pub fn label(self) -> String {
        match self.kind {
            AppKind::RandomLevels => format!("phi{}", self.rate_hz),
            AppKind::FixedLevel(level) => format!("phiL{}@{}", level, self.rate_hz),
            AppKind::SevenZip => "7zip".to_string(),
        }
    }
}

/// The symbol stream a trial transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadSpec {
    /// Uniform random symbols (seeded per trial).
    Random,
    /// A constant stream of one symbol (Figure 14(b) cells).
    Constant(u8),
}

impl PayloadSpec {
    /// Label used in cell keys and export rows.
    pub fn label(self) -> String {
        match self {
            PayloadSpec::Random => "random".to_string(),
            PayloadSpec::Constant(v) => format!("const{v}"),
        }
    }
}

/// Renders a mitigation set as a stable label (`"none"` when empty).
pub fn mitigations_label(mitigations: &[Mitigation]) -> String {
    if mitigations.is_empty() {
        return "none".to_string();
    }
    mitigations
        .iter()
        .map(|m| match m {
            Mitigation::PerCoreVr => "per-core-vr",
            Mitigation::ImprovedThrottling => "improved-throttling",
            Mitigation::SecureMode => "secure-mode",
        })
        .collect::<Vec<_>>()
        .join("+")
}

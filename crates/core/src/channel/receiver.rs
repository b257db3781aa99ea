//! Receiver demodulation tuning: [`ReceiverCalibration`] and the
//! [`ReceiverMode`] selection a channel configuration carries.

use ichannels_pdn::loadline::LoadLine;
use ichannels_soc::config::PlatformSpec;

use super::kind::ChannelKind;

/// Receiver demodulation tuning: how long the receiver integrates per
/// measurement and how many repeated transactions vote on each symbol.
///
/// The paper's receiver calibrates per platform (§6): where the
/// per-level separation is comfortably above the measurement-jitter
/// floor a single fixed-window sample per transaction decodes
/// error-free, but where a stiffer rail compresses the levels toward
/// each other a real attacker integrates longer and repeats the
/// transaction, trading symbol rate for reliability. The identity
/// tuning (`window_scale` 1, `votes` 1; see
/// [`ReceiverCalibration::is_legacy`]) reproduces the fixed
/// single-sample receiver bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverCalibration {
    /// Multiplier on the receiver's measured-loop duration (the
    /// integration window).
    pub window_scale: f64,
    /// Repeat-and-vote: transactions transmitted per symbol, decoded by
    /// per-transaction nearest-mean votes. 1 disables voting.
    pub votes: u32,
}

impl ReceiverCalibration {
    /// The fixed single-sample receiver (pre-calibration behavior).
    const LEGACY: ReceiverCalibration = ReceiverCalibration {
        window_scale: 1.0,
        votes: 1,
    };

    /// Compression factor above which the single-sample receiver is
    /// kept: every client rail in the catalog sits at 1.0, the 0.9 mΩ
    /// server rail at ≈0.56.
    const COMPRESSION_FLOOR: f64 = 0.75;

    /// True for the identity tuning — the execution path is then
    /// bit-identical to the legacy fixed-window receiver.
    pub fn is_legacy(self) -> bool {
        self.votes <= 1 && self.window_scale == 1.0
    }

    /// Derives the tuning for a channel on a platform from its
    /// load-line.
    ///
    /// Only the cross-core channel rides the shared package rail, so
    /// only it sees the [`LoadLine::separation_compression`] of a stiff
    /// server load-line; the same-thread and SMT channels observe the
    /// throttling of their own core directly and keep the legacy
    /// receiver everywhere.
    pub fn for_channel(spec: &PlatformSpec, kind: ChannelKind) -> Self {
        if kind != ChannelKind::Cores {
            return Self::LEGACY;
        }
        let compression =
            LoadLine::new(spec.rll_mohm).separation_compression(&LoadLine::client_reference());
        Self::for_compression(compression)
    }

    /// Derives the tuning for a measured separation-compression factor:
    /// identity at or above 0.75 (every client rail in the catalog sits
    /// at 1.0, the 0.9 mΩ server rail at ≈0.56), otherwise an
    /// integration window stretched by the inverse compression and a
    /// vote count growing as the levels close up.
    pub fn for_compression(compression: f64) -> Self {
        assert!(
            compression.is_finite() && compression > 0.0,
            "invalid separation compression: {compression}"
        );
        if compression >= Self::COMPRESSION_FLOOR {
            return Self::LEGACY;
        }
        ReceiverCalibration {
            window_scale: (1.0 / compression).clamp(1.0, 4.0),
            votes: if compression >= 0.6 { 3 } else { 5 },
        }
    }
}

/// Which receiver a channel decodes with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReceiverMode {
    /// Platform-calibrated adaptive receiver (the default):
    /// [`ReceiverCalibration::for_channel`] derives the tuning from the
    /// platform's load-line.
    Calibrated,
    /// The fixed single-sample receiver, kept for A/B comparison.
    Legacy,
    /// An explicit tuning override (receiver-calibration sweeps).
    Fixed(ReceiverCalibration),
}

impl ReceiverMode {
    /// Resolves the mode to a concrete tuning for a channel instance.
    pub fn resolve(self, spec: &PlatformSpec, kind: ChannelKind) -> ReceiverCalibration {
        match self {
            ReceiverMode::Calibrated => ReceiverCalibration::for_channel(spec, kind),
            ReceiverMode::Legacy => ReceiverCalibration::LEGACY,
            ReceiverMode::Fixed(tuning) => tuning,
        }
    }
}

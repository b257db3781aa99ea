//! Per-level receiver calibration: the training the paper's receiver
//! does once per run (§6). [`crate::channel::IChannel::try_calibrate`]
//! runs the four per-level training transmissions; [`Calibration`]
//! holds the learned means and decodes against them.

use ichannels_meter::stats::min_separation;

use crate::symbols::Symbol;

use super::config::ChannelConfig;
use super::kind::ChannelKind;

/// Per-level mean receiver durations learned during calibration, in TSC
/// cycles, plus nearest-mean decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    means: [f64; 4],
}

impl Calibration {
    /// Builds a calibration from per-symbol mean durations (TSC cycles).
    pub fn from_means(means: [f64; 4]) -> Self {
        Calibration { means }
    }

    /// Per-symbol mean durations (TSC cycles).
    pub fn means(&self) -> &[f64; 4] {
        &self.means
    }

    /// Decodes a measured duration by the nearest calibrated mean.
    pub fn decode(&self, duration_cycles: u64) -> Symbol {
        let d = duration_cycles as f64;
        let mut best = 0usize;
        let mut best_err = f64::INFINITY;
        for (i, m) in self.means.iter().enumerate() {
            let e = (d - m).abs();
            if e < best_err {
                best_err = e;
                best = i;
            }
        }
        Symbol::new(best as u8)
    }

    /// The three decision thresholds between the four level means
    /// (midpoints of the sorted means, TSC cycles) — the per-level
    /// thresholds the training preamble learns. Nearest-mean decoding
    /// is exactly thresholding against these.
    #[cfg(test)]
    pub(crate) fn thresholds(&self) -> [f64; 3] {
        let mut sorted = self.means;
        sorted.sort_by(f64::total_cmp);
        [
            (sorted[0] + sorted[1]) / 2.0,
            (sorted[1] + sorted[2]) / 2.0,
            (sorted[2] + sorted[3]) / 2.0,
        ]
    }

    /// Decodes one symbol from repeated measurements of the same
    /// transaction (repeat-and-vote): each duration votes for its
    /// nearest mean, the plurality wins, and ties break toward the
    /// smallest total distance. With a single duration this is exactly
    /// [`Calibration::decode`].
    ///
    /// # Panics
    ///
    /// Panics if `durations` is empty.
    pub fn decode_vote(&self, durations: &[u64]) -> Symbol {
        assert!(!durations.is_empty(), "vote needs at least one sample");
        let mut counts = [0u32; 4];
        let mut total_err = [0.0f64; 4];
        for &d in durations {
            counts[self.decode(d).value() as usize] += 1;
            for (i, m) in self.means.iter().enumerate() {
                total_err[i] += (d as f64 - m).abs();
            }
        }
        let mut best = 0usize;
        for i in 1..4 {
            if counts[i] > counts[best]
                || (counts[i] == counts[best] && total_err[i] < total_err[best])
            {
                best = i;
            }
        }
        Symbol::new(best as u8)
    }

    /// Minimum separation between adjacent level means (TSC cycles) —
    /// the paper reports > 2 000 cycles on a low-noise system (§6.3).
    pub fn min_separation_cycles(&self) -> f64 {
        min_separation(&self.means)
    }
}

/// Renders the inputs of one training request: **exactly** what the
/// training simulation consumes — the channel kind, the repetition
/// count, the **resolved** receiver tuning (so a `Calibrated` mode that
/// resolves to the identity tuning renders like an explicit `Legacy`
/// mode — the two runs are provably bit-identical), the transaction
/// timing, the jitter seed/σ, and the full SoC configuration (platform
/// constants, governor, mitigations, noise, SoC seed). Two requests
/// with equal fingerprints train byte-identical calibrations; anything
/// that differs — a per-trial seed, a knob override — changes it.
pub fn fingerprint(kind: ChannelKind, cfg: &ChannelConfig, reps: usize) -> String {
    let tuning = cfg.receiver.resolve(&cfg.soc.platform, kind);
    // lint:allow(D004): audited — the fingerprint is compared only for
    // equality within one process; it is never persisted, so
    // Debug-format drift cannot corrupt artifacts.
    format!(
        "{kind:?}|reps={reps}|tuning={tuning:?}|slot={:?}|start={:?}|sender={:?}|recv={:?}|\
         xdelay={:?}|jitter={:?}|jseed={}|soc={:?}",
        cfg.slot_period,
        cfg.start_offset,
        cfg.sender_loop,
        cfg.receiver_loop,
        cfg.cross_core_delay,
        cfg.measurement_jitter,
        cfg.jitter_seed,
        cfg.soc,
    )
}

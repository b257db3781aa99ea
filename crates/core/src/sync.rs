//! Sender/receiver synchronization (paper §4.3.3).
//!
//! "To correctly transfer data between the Sender and the Receiver
//! threads, it is essential to synchronize their operations precisely.
//! One common way … is by using the wall clock, where each thread can
//! obtain the wall clock using the rdtsc instruction."
//!
//! The channels in [`crate::channel`] assume both parties agree on the
//! slot grid. In practice the receiver's notion of the grid can be off
//! by an unknown offset (process start skew, scheduling). This module
//! provides the recovery protocol: the sender transmits a known
//! *preamble*, and the receiver sweeps candidate offsets, picking the
//! one whose decoded preamble matches best.

use ichannels_uarch::time::SimTime;

use crate::channel::{Calibration, ChannelConfig, ChannelError, ChannelKind, IChannel};
use crate::symbols::Symbol;

/// The default preamble: a level sweep repeated twice. Maximally
/// informative — every level boundary is exercised.
pub fn default_preamble() -> Vec<Symbol> {
    let mut p: Vec<Symbol> = Symbol::ALL.to_vec();
    p.extend([
        Symbol::new(3),
        Symbol::new(0),
        Symbol::new(2),
        Symbol::new(1),
    ]);
    p
}

/// Result of an offset sweep.
#[derive(Debug, Clone)]
pub struct SyncResult {
    /// The offset (applied to the receiver's slot grid) that decoded the
    /// preamble best.
    pub best_offset: SimTime,
    /// Fraction of preamble symbols decoded correctly at that offset.
    pub best_score: f64,
    /// Score per candidate offset (for diagnostics).
    pub scores: Vec<(SimTime, f64)>,
}

/// Builds a channel configuration identical to `cfg` but with the
/// receiver's slot grid shifted by `offset` — the desynchronized
/// receiver under test.
pub fn with_receiver_offset(mut cfg: ChannelConfig, offset: SimTime) -> ChannelConfig {
    // The receiver measures from its (possibly wrong) grid; shifting the
    // cross-core delay models the skew without touching the sender.
    cfg.cross_core_delay += offset;
    cfg
}

/// Scores one candidate offset: transmit the preamble with the receiver
/// shifted by `offset` and count correct decodes.
///
/// # Errors
///
/// The [`ChannelError`] of the preamble transmission.
pub fn score_offset(
    kind: ChannelKind,
    base_cfg: &ChannelConfig,
    cal: &Calibration,
    preamble: &[Symbol],
    offset: SimTime,
) -> Result<f64, ChannelError> {
    let cfg = with_receiver_offset(base_cfg.clone(), offset);
    let ch = IChannel::new(kind, cfg);
    let tx = ch.try_transmit_symbols(preamble, cal)?;
    let correct = tx
        .sent
        .iter()
        .zip(&tx.received)
        .filter(|(a, b)| a == b)
        .count();
    Ok(correct as f64 / preamble.len() as f64)
}

/// Sweeps candidate offsets in `[0, range)` at the given step and
/// returns the best-scoring one. Models a receiver that does not know
/// the true slot phase and recovers it from the preamble.
///
/// # Errors
///
/// The [`ChannelError`] of the first failing preamble transmission.
///
/// # Panics
///
/// Panics if `step` is zero or `range < step`.
pub fn recover_offset(
    kind: ChannelKind,
    base_cfg: &ChannelConfig,
    cal: &Calibration,
    preamble: &[Symbol],
    range: SimTime,
    step: SimTime,
) -> Result<SyncResult, ChannelError> {
    assert!(!step.is_zero(), "sweep step must be non-zero");
    assert!(range >= step, "sweep range must cover at least one step");
    let mut scores = Vec::new();
    let mut best_offset = SimTime::ZERO;
    let mut best_score = -1.0;
    let mut offset = SimTime::ZERO;
    while offset < range {
        let score = score_offset(kind, base_cfg, cal, preamble, offset)?;
        scores.push((offset, score));
        if score > best_score {
            best_score = score;
            best_offset = offset;
        }
        offset += step;
    }
    Ok(SyncResult {
        best_offset,
        best_score,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cross-core channel tolerates small receiver skew but breaks
    /// when the receiver starts after the sender's transition completed.
    #[test]
    fn large_skew_breaks_decoding() {
        let base = ChannelConfig::default_cannon_lake();
        let ch = IChannel::new(ChannelKind::Cores, base.clone());
        let cal = ch.try_calibrate(2).unwrap();
        let preamble = default_preamble();
        let aligned =
            score_offset(ChannelKind::Cores, &base, &cal, &preamble, SimTime::ZERO).unwrap();
        assert_eq!(aligned, 1.0);
        // Start the receiver ~25 µs late: past the sender's transition,
        // so the queueing signal is gone.
        let skewed = score_offset(
            ChannelKind::Cores,
            &base,
            &cal,
            &preamble,
            SimTime::from_us(25.0),
        )
        .unwrap();
        assert!(skewed < 0.8, "skewed score = {skewed}");
    }

    /// The preamble sweep finds a working offset again.
    #[test]
    fn preamble_sweep_recovers_alignment() {
        let base = ChannelConfig::default_cannon_lake();
        let ch = IChannel::new(ChannelKind::Cores, base.clone());
        let cal = ch.try_calibrate(2).unwrap();
        let preamble = default_preamble();
        let result = recover_offset(
            ChannelKind::Cores,
            &base,
            &cal,
            &preamble,
            SimTime::from_us(20.0),
            SimTime::from_us(4.0),
        )
        .unwrap();
        assert_eq!(result.best_score, 1.0, "scores = {:?}", result.scores);
        // With the recovered offset, payload transfer works.
        let cfg = with_receiver_offset(base, result.best_offset);
        let ch = IChannel::new(ChannelKind::Cores, cfg);
        let msg = [Symbol::new(2), Symbol::new(0), Symbol::new(3)];
        let tx = ch.try_transmit_symbols(&msg, &cal).unwrap();
        assert_eq!(tx.received, msg);
    }
}

//! State-of-the-art covert channels the paper compares against
//! (Figure 12, Table 2): NetSpectre's same-thread AVX gadget, TurboCC's
//! turbo-frequency channel, DFScovert's governor channel, and POWERT's
//! power-budget channel.
//!
//! NetSpectre and TurboCC run end-to-end on the full SoC simulator,
//! through the same driver as the IChannels themselves
//! ([`crate::channel::SymbolRun`]): NetSpectre is a same-thread
//! two-level schedule whose level 0 sends nothing and level 1 runs the
//! AVX2 gadget before the timed AVX2 loop; TurboCC adds its
//! block-repeating sender through the run's setup hook and probes with
//! an unjittered scalar loop on the second core. Both decode one bit
//! per transaction into a [`BitTransmission`].
//! DFScovert and POWERT are modelled directly over the governor/P-state
//! and power-limit state machines (their original attack surfaces —
//! sysfs writes and package power budgeting — have no in-process
//! counterpart).

pub mod dfscovert;
pub mod netspectre;
pub mod powert;
pub mod turbocc;

pub use dfscovert::{DfsCovertChannel, DfsCovertConfig};
pub use netspectre::NetSpectreChannel;
pub use powert::{PowerTChannel, PowerTConfig};
pub use turbocc::{TurboCcChannel, TurboCcConfig};

/// A decoded one-bit-per-transaction baseline transmission.
#[derive(Debug, Clone)]
pub struct BitTransmission {
    /// Bits sent.
    pub sent: Vec<bool>,
    /// Bits decoded.
    pub received: Vec<bool>,
    /// Raw receiver durations (TSC cycles), one per recorded bit.
    pub durations: Vec<u64>,
    /// Throughput in bits/s.
    pub throughput_bps: f64,
}

impl BitTransmission {
    /// Fraction of wrong bits; a bit the receiver missed counts as
    /// wrong.
    pub fn bit_error_rate(&self) -> f64 {
        bit_error_rate(&self.sent, &self.received)
    }

    /// Decodes each duration to the nearer of the calibrated
    /// `(mean_one, mean_zero)`.
    fn decode(sent: &[bool], durations: Vec<u64>, cal: (f64, f64), throughput_bps: f64) -> Self {
        let received = durations
            .iter()
            .map(|&d| {
                let d = d as f64;
                (d - cal.0).abs() < (d - cal.1).abs()
            })
            .collect();
        BitTransmission {
            sent: sent.to_vec(),
            received,
            durations,
            throughput_bps,
        }
    }
}

/// The slot levels of a bit sequence: 1 for a set bit, 0 otherwise.
fn bit_levels(bits: &[bool]) -> impl Iterator<Item = u8> + '_ {
    bits.iter().map(|&b| u8::from(b))
}

/// Calibrates the two duration levels: `run` transmits `reps` ones,
/// then `reps` zeros; returns `(mean_one, mean_zero)` over the
/// recorded durations in TSC cycles.
fn two_level_means(reps: usize, mut run: impl FnMut(&[bool]) -> Vec<u64>) -> (f64, f64) {
    let mut mean = |bit| {
        let v = run(&vec![bit; reps]);
        v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64
    };
    let one = mean(true);
    (one, mean(false))
}

/// Fraction of `sent` bits that were not received correctly. A bit the
/// receiver never recorded (`received` shorter than `sent`) counts as
/// wrong, so a receiver that misses transactions cannot report a clean
/// channel. Returns 0 when nothing was sent.
pub fn bit_error_rate(sent: &[bool], received: &[bool]) -> f64 {
    if sent.is_empty() {
        return 0.0;
    }
    let flipped = sent.iter().zip(received).filter(|(a, b)| a != b).count();
    let missing = sent.len().saturating_sub(received.len());
    (flipped + missing) as f64 / sent.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_bits_count_as_errors() {
        assert_eq!(bit_error_rate(&[], &[]), 0.0);
        assert_eq!(bit_error_rate(&[true, false], &[true, false]), 0.0);
        assert_eq!(bit_error_rate(&[true, false], &[false, false]), 0.5);
        assert_eq!(bit_error_rate(&[true, false, true, true], &[true]), 0.75);
    }
}

//! State-of-the-art covert channels the paper compares against
//! (Figure 12, Table 2): NetSpectre's same-thread AVX gadget, TurboCC's
//! turbo-frequency channel, DFScovert's governor channel, and POWERT's
//! power-budget channel.
//!
//! NetSpectre and TurboCC run end-to-end on the full SoC simulator,
//! through the same slotted program as the IChannels themselves
//! (`SlotProgram`): NetSpectre is one same-thread program whose level 0
//! sends nothing and level 1 runs the AVX2 gadget before the timed AVX2
//! loop; TurboCC pairs its block-repeating sender with an unjittered
//! scalar probe on the second core;
//! DFScovert and POWERT are modelled directly over the governor/P-state
//! and power-limit state machines (their original attack surfaces —
//! sysfs writes and package power budgeting — have no in-process
//! counterpart).

pub mod dfscovert;
pub mod netspectre;
pub mod powert;
pub mod turbocc;

pub use dfscovert::{DfsCovertChannel, DfsCovertConfig};
pub use netspectre::{NetSpectreChannel, NetSpectreTx};
pub use powert::{PowerTChannel, PowerTConfig};
pub use turbocc::{TurboCcChannel, TurboCcConfig, TurboCcTx};

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

//! The NetSpectre covert-channel gadget (Schwarz et al., baseline of
//! Figure 12(a)).
//!
//! NetSpectre's AVX gadget is a *single-level* same-thread channel: the
//! sender either executes an AVX2 loop (bit 1) or stays idle (bit 0);
//! the receiver then times its own AVX2 loop — throttled (long) means
//! the voltage was still at baseline (bit 0), unthrottled (short) means
//! the sender had already raised it (bit 1). One bit per transaction,
//! same reset-time cycle ⇒ half of IccThreadCovert's throughput
//! (we compare "to NetSpectre's main gadget … not to the end-to-end
//! NetSpectre implementation", §6.2).

use ichannels_uarch::isa::InstClass;

use super::{bit_levels, two_level_means, BitTransmission};
use crate::channel::{ChannelConfig, ChannelKind, SymbolRun};

/// The NetSpectre-style 1-bit covert channel.
#[derive(Debug, Clone)]
pub struct NetSpectreChannel {
    cfg: ChannelConfig,
}

impl NetSpectreChannel {
    /// Creates the channel on the same configuration as IccThreadCovert
    /// (so the Figure 12(a) comparison is apples-to-apples).
    pub fn new(cfg: ChannelConfig) -> Self {
        NetSpectreChannel { cfg }
    }

    /// Default instance on Cannon Lake.
    pub fn default_cannon_lake() -> Self {
        NetSpectreChannel::new(ChannelConfig::default_cannon_lake())
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// The gadget's schedule: bit 1, the "leak" executes the AVX2
    /// instruction; bit 0, nothing executes before the timed AVX2 loop.
    fn symbol_run(&self) -> SymbolRun {
        SymbolRun::slotted(
            ChannelKind::Thread,
            &self.cfg,
            &[None, Some(InstClass::Heavy256)],
            InstClass::Heavy256,
            self.cfg.receiver_loop,
        )
    }

    /// Runs a bit sequence, returning raw receiver durations.
    pub fn run_bits(&self, bits: &[bool]) -> Vec<u64> {
        self.symbol_run().record(bit_levels(bits), |_| {})
    }

    /// Calibrates the two duration levels: returns `(mean_one, mean_zero)`
    /// in TSC cycles.
    pub fn calibrate(&self, reps: usize) -> (f64, f64) {
        let mut run = self.symbol_run();
        two_level_means(reps, |bits| run.record(bit_levels(bits), |_| {}))
    }

    /// Transmits bits and decodes against the calibrated means.
    pub fn transmit(&self, bits: &[bool], cal: (f64, f64)) -> BitTransmission {
        let elapsed = self.cfg.slot_period.scale(bits.len() as f64);
        BitTransmission::decode(
            bits,
            self.run_bits(bits),
            cal,
            bits.len() as f64 / elapsed.as_secs(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_level_channel_round_trips() {
        let ch = NetSpectreChannel::default_cannon_lake();
        let cal = ch.calibrate(3);
        let bits = [true, false, false, true, true, false, true, false];
        let tx = ch.transmit(&bits, cal);
        assert_eq!(tx.received, bits);
        assert_eq!(tx.bit_error_rate(), 0.0);
    }

    #[test]
    fn half_the_throughput_of_icc_thread_covert() {
        // Figure 12(a): IccThreadCovert = 2× NetSpectre.
        let ns = NetSpectreChannel::default_cannon_lake();
        let cal = ns.calibrate(2);
        let tx = ns.transmit(&[true, false, true, false], cal);
        let icc_bps = 2.0 / ns.config().slot_period.as_secs();
        let ratio = icc_bps / tx.throughput_bps;
        assert!((ratio - 2.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn levels_are_separated() {
        let ch = NetSpectreChannel::default_cannon_lake();
        let (one, zero) = ch.calibrate(3);
        // Bit 0 (no prior AVX2) leaves the full ramp to the receiver ⇒
        // longer duration.
        assert!(zero > one + 2_000.0, "one = {one}, zero = {zero}");
    }

    #[test]
    fn missed_transactions_are_bit_errors() {
        // A 1 µs slot is far shorter than one transaction, so the
        // receiver records only a few of the 24 bits; every missing bit
        // counts as wrong instead of vanishing from the rate.
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.slot_period = ichannels_uarch::time::SimTime::from_us(1.0);
        let ch = NetSpectreChannel::new(cfg);
        let bits: Vec<bool> = (0..24).map(|i| i % 3 != 0).collect();
        let tx = ch.transmit(&bits, (0.0, 1e12));
        let missing = bits.len() - tx.received.len();
        assert!(missing > 0, "received {} of 24", tx.received.len());
        assert!(
            tx.bit_error_rate() >= missing as f64 / bits.len() as f64,
            "BER {} with {missing} missing bits",
            tx.bit_error_rate()
        );
    }
}

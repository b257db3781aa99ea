//! The POWERT baseline (Khatamifard et al., Figure 12(b)).
//!
//! POWERT exploits **power-budget management**: sustained high power on
//! one core trips the package power-limit controller, which lowers the
//! shared frequency; a co-located spy senses the change. The controller
//! integrates power over a running-average window (ms scale), so the
//! channel is faster than thermal/governor channels but still ~24×
//! slower than IChannels (~122 b/s vs ~2.9 kb/s).
//!
//! Modelled over a running-average power-limit controller plus the
//! P-state engine (same latencies as the full simulator).

use ichannels_pmu::pstate::{PStateEngine, PStateTable};
use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::time::{Freq, SimTime};

/// POWERT configuration.
#[derive(Debug, Clone)]
pub struct PowerTConfig {
    /// Platform whose P-state table is used.
    pub platform: PlatformSpec,
    /// Power-limit controller averaging window (PL1-style, ms scale).
    pub avg_window: SimTime,
    /// Package power budget (W).
    pub budget_w: f64,
    /// Sender high-phase power (W).
    pub high_power_w: f64,
    /// Sender low-phase power (W).
    pub low_power_w: f64,
    /// Bit period; the default 8.2 ms yields the paper's ~122 b/s.
    pub bit_period: SimTime,
    /// Controller evaluation step.
    pub step: SimTime,
}

impl Default for PowerTConfig {
    fn default() -> Self {
        PowerTConfig {
            platform: PlatformSpec::cannon_lake(),
            avg_window: SimTime::from_ms(2.0),
            budget_w: 15.0,
            high_power_w: 28.0,
            low_power_w: 4.0,
            bit_period: SimTime::from_us(8_200.0),
            step: SimTime::from_us(100.0),
        }
    }
}

/// The POWERT power-budget covert channel (mechanism model).
#[derive(Debug, Clone, Default)]
pub struct PowerTChannel {
    cfg: PowerTConfig,
}

impl PowerTChannel {
    /// Creates the channel.
    pub fn new(cfg: PowerTConfig) -> Self {
        PowerTChannel { cfg }
    }

    /// Transmits bits by modulating package power; returns decoded bits
    /// and throughput.
    pub fn transmit(&self, bits: &[bool]) -> (Vec<bool>, f64) {
        let cfg = &self.cfg;
        let table: &PStateTable = &cfg.platform.pstates;
        let mut engine = PStateEngine::new(table.max());
        // Exponential running average of package power.
        let alpha = 1.0 - (-(cfg.step / cfg.avg_window)).exp();
        let mut avg_power = cfg.low_power_w;
        let mut now = SimTime::ZERO;
        let threshold = Freq::from_hz((table.min().as_hz() + table.max().as_hz()) / 2);
        let low_freq = table.highest_not_above(Freq::from_hz(table.max().as_hz() * 6 / 10));
        let mut decoded = Vec::with_capacity(bits.len());
        for &bit in bits {
            let bit_end = now + cfg.bit_period;
            let probe_t = now + cfg.bit_period.scale(0.9);
            let mut probed = None;
            while now < bit_end {
                let p = if bit {
                    cfg.high_power_w
                } else {
                    cfg.low_power_w
                };
                avg_power += alpha * (p - avg_power);
                // Power-limit controller: clamp frequency while the
                // running average exceeds the budget.
                let target = if avg_power > cfg.budget_w {
                    low_freq
                } else {
                    table.max()
                };
                if target != engine.target() {
                    engine.request(now, target, table);
                }
                if probed.is_none() && now >= probe_t {
                    // High sender power ⇒ clamped (low) frequency ⇒ bit 1.
                    probed = Some(engine.freq_at(now) < threshold);
                }
                now += cfg.step;
            }
            decoded.push(probed.unwrap_or(engine.freq_at(now) < threshold));
        }
        let bps = bits.len() as f64 / now.as_secs();
        (decoded, bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let ch = PowerTChannel::default();
        let bits = vec![true, false, false, true, true, false];
        let (decoded, _) = ch.transmit(&bits);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn throughput_is_about_122_bps() {
        let ch = PowerTChannel::default();
        let (_, bps) = ch.transmit(&[true, false]);
        assert!((110.0..135.0).contains(&bps), "bps = {bps}");
    }

    #[test]
    fn bit_period_below_avg_window_fails() {
        // The running average cannot swing across the budget within a
        // sub-window bit time.
        let cfg = PowerTConfig {
            bit_period: SimTime::from_us(500.0),
            ..Default::default()
        };
        let ch = PowerTChannel::new(cfg);
        let bits = vec![true, false, true, false, true, false, true, false];
        let (decoded, _) = ch.transmit(&bits);
        assert_ne!(decoded, bits);
    }
}

//! The DFScovert baseline (Alagappan et al., Figure 12(b)).
//!
//! DFScovert "manipulates the power governors that control the CPU core
//! frequency": a trojan modulates the *governor-requested* frequency and
//! a spy process senses it through timed loops. The channel's time base
//! is the governor sampling period plus the P-state transition latency —
//! tens of milliseconds per bit, ~20 b/s.
//!
//! This baseline is modelled directly over the governor/P-state state
//! machines (the original attack writes sysfs files, which has no
//! counterpart inside a single simulated process tree); the achievable
//! bit rate is set by the same mechanism latencies the full simulator
//! uses.

use ichannels_pmu::governor::Governor;
use ichannels_pmu::pstate::{PStateEngine, PStateTable};
use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::time::{Freq, SimTime};

/// DFScovert configuration.
#[derive(Debug, Clone)]
pub struct DfsCovertConfig {
    /// Platform whose P-state table is used.
    pub platform: PlatformSpec,
    /// Governor sampling period (Linux ondemand default: 10 ms).
    pub sampling_period: SimTime,
    /// Bit period; the default 50 ms yields the paper's 20 b/s.
    pub bit_period: SimTime,
}

impl Default for DfsCovertConfig {
    fn default() -> Self {
        DfsCovertConfig {
            platform: PlatformSpec::cannon_lake(),
            sampling_period: SimTime::from_ms(10.0),
            bit_period: SimTime::from_ms(50.0),
        }
    }
}

/// The DFScovert governor-frequency covert channel (mechanism model).
#[derive(Debug, Clone, Default)]
pub struct DfsCovertChannel {
    cfg: DfsCovertConfig,
}

impl DfsCovertChannel {
    /// Creates the channel.
    pub fn new(cfg: DfsCovertConfig) -> Self {
        DfsCovertChannel { cfg }
    }

    /// Transmits bits through governor modulation; returns the decoded
    /// bits and the throughput.
    pub fn transmit(&self, bits: &[bool]) -> (Vec<bool>, f64) {
        let table: &PStateTable = &self.cfg.platform.pstates;
        let mut engine = PStateEngine::new(table.min());
        let mut now = SimTime::ZERO;
        let mut decoded = Vec::with_capacity(bits.len());
        let probe_offset = self.cfg.bit_period.scale(0.9);
        let threshold = Freq::from_hz((table.min().as_hz() + table.max().as_hz()) / 2);
        for &bit in bits {
            let bit_start = now;
            // The trojan sets the governor for this bit window; the
            // governor applies it at its next sampling tick.
            let governor = if bit {
                Governor::Performance
            } else {
                Governor::Powersave
            };
            let mut tick = bit_start + self.cfg.sampling_period;
            while tick < bit_start + self.cfg.bit_period {
                let requested = governor.requested_freq(table, if bit { 1.0 } else { 0.0 });
                engine.request(tick, requested, table);
                tick += self.cfg.sampling_period;
            }
            // The spy probes the frequency late in the window.
            let probe_t = bit_start + probe_offset;
            decoded.push(engine.freq_at(probe_t) >= threshold);
            now = bit_start + self.cfg.bit_period;
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
        let ch = DfsCovertChannel::default();
        let bits = vec![true, false, true, true, false, false, true];
        let (decoded, _) = ch.transmit(&bits);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn throughput_is_about_20_bps() {
        let ch = DfsCovertChannel::default();
        let (_, bps) = ch.transmit(&[true, false, true, false]);
        assert!((18.0..22.0).contains(&bps), "bps = {bps}");
    }

    #[test]
    fn faster_bit_period_breaks_the_channel() {
        // Below the governor sampling period, bits are lost — the
        // mechanism cannot keep up (why DFScovert cannot approach
        // IChannels rates).
        let cfg = DfsCovertConfig {
            bit_period: SimTime::from_ms(5.0),
            ..Default::default()
        };
        let ch = DfsCovertChannel::new(cfg);
        let bits = vec![true, false, true, false, true, false];
        let (decoded, _) = ch.transmit(&bits);
        assert_ne!(decoded, bits);
    }
}

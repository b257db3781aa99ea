//! The TurboCC covert channel (Kalmbach et al., baseline of
//! Figure 12(b)).
//!
//! TurboCC communicates across cores through **turbo frequency
//! changes**: executing PHIs at turbo frequency forces a turbo-license
//! drop that lowers the *shared* core clock; the receiver senses the
//! frequency with a timed scalar loop. The mechanism's time base is the
//! slow (ms-scale) license release — three orders of magnitude slower
//! than the current-management throttling IChannels uses, which is why
//! TurboCC tops out near 61 b/s while IChannels reaches ~2.9 kb/s.

use ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_soc::program::{Action, ProgCtx, Program};
use ichannels_soc::sim::Soc;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;
use ichannels_workload::loops::Recorder;

/// TurboCC channel configuration.
#[derive(Debug, Clone)]
pub struct TurboCcConfig {
    /// The simulated system (must run at the performance governor so
    /// turbo licensing is active).
    pub soc: SocConfig,
    /// Bit period. The default (16.4 ms) yields the paper's 61 b/s.
    pub bit_period: SimTime,
    /// Settling offset before the first bit.
    pub start_offset: SimTime,
    /// Receiver probe loop instruction count (scalar).
    pub probe_insts: u64,
}

impl Default for TurboCcConfig {
    fn default() -> Self {
        TurboCcConfig {
            soc: SocConfig::quiet(PlatformSpec::cannon_lake()),
            bit_period: SimTime::from_us(16_400.0),
            start_offset: SimTime::from_ms(1.0),
            probe_insts: 400_000,
        }
    }
}

/// The TurboCC cross-core covert channel.
#[derive(Debug, Clone, Default)]
pub struct TurboCcChannel {
    cfg: TurboCcConfig,
}

/// A decoded TurboCC transmission.
#[derive(Debug, Clone)]
pub struct TurboCcTx {
    /// Bits sent.
    pub sent: Vec<bool>,
    /// Bits decoded.
    pub received: Vec<bool>,
    /// Probe durations (TSC cycles), one per bit.
    pub durations: Vec<u64>,
    /// Throughput in bits/s.
    pub throughput_bps: f64,
}

impl TurboCcTx {
    /// Fraction of wrong bits; a bit the receiver missed counts as
    /// wrong.
    pub fn bit_error_rate(&self) -> f64 {
        super::bit_error_rate(&self.sent, &self.received)
    }
}

impl TurboCcChannel {
    /// Runs a bit sequence; returns the receiver probe durations.
    pub fn run_bits(&self, bits: &[bool]) -> Vec<u64> {
        let cfg = &self.cfg;
        let mut soc = Soc::new(cfg.soc.clone());
        let tsc = *soc.tsc();
        let slot0 = tsc.read(cfg.start_offset);
        let period = tsc.duration_to_cycles(cfg.bit_period);
        // The probe fires near the end of each bit window, after the
        // license state has settled.
        let probe_offset = tsc.duration_to_cycles(cfg.bit_period.scale(0.7));
        let recorder = Recorder::new();
        soc.spawn(
            0,
            0,
            Box::new(TurboSender {
                bits: bits.to_vec(),
                idx: 0,
                running: false,
                slot0,
                period,
                block_insts: 40_000,
            }),
        );
        soc.spawn(
            1,
            0,
            Box::new(TurboReceiver {
                n: bits.len(),
                idx: 0,
                stage: 0,
                slot0: slot0 + probe_offset,
                period,
                probe_insts: cfg.probe_insts,
                t_start: 0,
                recorder: recorder.clone(),
            }),
        );
        let deadline = cfg.start_offset + cfg.bit_period.scale((bits.len() + 1) as f64);
        soc.run_until_idle(deadline);
        recorder.values()
    }

    /// Calibrates `(mean_one, mean_zero)` probe durations.
    pub fn calibrate(&self, reps: usize) -> (f64, f64) {
        let ones = self.run_bits(&vec![true; reps]);
        let zeros = self.run_bits(&vec![false; reps]);
        let mean = |v: &[u64]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
        (mean(&ones), mean(&zeros))
    }

    /// Transmits and decodes a bit sequence.
    pub fn transmit(&self, bits: &[bool], cal: (f64, f64)) -> TurboCcTx {
        let durations = self.run_bits(bits);
        let received: Vec<bool> = durations
            .iter()
            .map(|&d| {
                let d = d as f64;
                (d - cal.0).abs() < (d - cal.1).abs()
            })
            .collect();
        TurboCcTx {
            sent: bits.to_vec(),
            received,
            durations,
            throughput_bps: 1.0 / self.cfg.bit_period.as_secs(),
        }
    }
}

/// Sender: saturate the core with AVX-512 blocks for bit 1, idle for 0.
struct TurboSender {
    bits: Vec<bool>,
    idx: usize,
    running: bool,
    slot0: u64,
    period: u64,
    block_insts: u64,
}

impl std::fmt::Debug for TurboSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TurboSender(idx={})", self.idx)
    }
}

impl Program for TurboSender {
    fn next(&mut self, ctx: &ProgCtx) -> Action {
        loop {
            if self.idx >= self.bits.len() {
                return Action::Halt;
            }
            let slot_start = self.slot0 + self.idx as u64 * self.period;
            let slot_end = slot_start + self.period * 6 / 10; // stop at 60% so the license can release
            if !self.running {
                self.running = true;
                if ctx.tsc < slot_start {
                    return Action::WaitUntilTsc(slot_start);
                }
            }
            if ctx.tsc >= slot_end {
                self.running = false;
                self.idx += 1;
                continue;
            }
            if self.bits[self.idx] {
                return Action::Run {
                    class: InstClass::Heavy512,
                    instructions: self.block_insts,
                };
            }
            self.running = false;
            self.idx += 1;
            return Action::WaitUntilTsc(self.slot0 + self.idx as u64 * self.period);
        }
    }

    fn name(&self) -> &str {
        "TurboCC sender"
    }
}

/// Receiver: timed scalar loop — duration ∝ 1/frequency.
struct TurboReceiver {
    n: usize,
    idx: usize,
    stage: u8,
    slot0: u64,
    period: u64,
    probe_insts: u64,
    t_start: u64,
    recorder: Recorder,
}

impl std::fmt::Debug for TurboReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TurboReceiver(idx={})", self.idx)
    }
}

impl Program for TurboReceiver {
    fn next(&mut self, ctx: &ProgCtx) -> Action {
        loop {
            if self.idx >= self.n {
                return Action::Halt;
            }
            match self.stage {
                0 => {
                    self.stage = 1;
                    return Action::WaitUntilTsc(self.slot0 + self.idx as u64 * self.period);
                }
                1 => {
                    self.stage = 2;
                    self.t_start = ctx.tsc;
                    return Action::Run {
                        class: InstClass::Scalar64,
                        instructions: self.probe_insts,
                    };
                }
                _ => {
                    self.recorder.push(ctx.tsc.saturating_sub(self.t_start));
                    self.idx += 1;
                    self.stage = 0;
                }
            }
        }
    }

    fn name(&self) -> &str {
        "TurboCC receiver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbo_channel_round_trips() {
        let ch = TurboCcChannel::default();
        let cal = ch.calibrate(2);
        let bits = [true, false, true, true, false];
        let tx = ch.transmit(&bits, cal);
        assert_eq!(tx.received, bits, "durations = {:?}", tx.durations);
    }

    #[test]
    fn throughput_is_about_61_bps() {
        let ch = TurboCcChannel::default();
        let cal = ch.calibrate(1);
        let tx = ch.transmit(&[true, false], cal);
        assert!(
            (55.0..70.0).contains(&tx.throughput_bps),
            "bps = {}",
            tx.throughput_bps
        );
    }

    #[test]
    fn mechanism_is_three_orders_slower_than_ichannels() {
        // §6.2: IChannels works at the tens-of-µs scale, TurboCC at ms.
        let turbo_bit = TurboCcConfig::default().bit_period;
        let ich_tx = SimTime::from_us(40.0);
        assert!(turbo_bit / ich_tx > 100.0);
    }
}

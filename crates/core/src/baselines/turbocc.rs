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

use std::rc::Rc;

use ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_soc::program::{Action, ProgCtx, Program};
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;
use ichannels_uarch::tsc::Tsc;

use super::{bit_levels, two_level_means, BitTransmission};
use crate::channel::{ChannelKind, SymbolRun};

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

impl TurboCcChannel {
    /// The receiver's schedule: a timed scalar loop on the second core
    /// (duration ∝ 1/frequency), unjittered, fired 70% into each bit
    /// window after the license state has settled. The send table is
    /// empty — the sender is [`TurboSender`], spawned per run.
    fn symbol_run(&self) -> SymbolRun {
        let cfg = &self.cfg;
        let tsc = Tsc::new(cfg.soc.platform.tsc_freq);
        SymbolRun {
            kind: ChannelKind::Cores,
            soc_cfg: cfg.soc.clone(),
            start_offset: cfg.start_offset,
            slot_period: cfg.bit_period,
            slot0: tsc.read(cfg.start_offset),
            period: tsc.duration_to_cycles(cfg.bit_period),
            send: Rc::from([]),
            recv_class: InstClass::Scalar64,
            recv_insts: cfg.probe_insts,
            recv_delay: tsc.duration_to_cycles(cfg.bit_period.scale(0.7)),
            jitter_seed: 0,
            jitter_sigma_cycles: 0.0,
            soc: None,
        }
    }

    /// Runs `bits` on `run`, spawning their sender first.
    fn record(run: &mut SymbolRun, bits: &[bool]) -> Vec<u64> {
        let sender = TurboSender {
            bits: bits.to_vec(),
            idx: 0,
            running: false,
            slot0: run.slot0,
            period: run.period,
            block_insts: 40_000,
        };
        run.record(bit_levels(bits), |soc| soc.spawn(0, 0, Box::new(sender)))
    }

    /// Runs a bit sequence; returns the receiver probe durations.
    pub fn run_bits(&self, bits: &[bool]) -> Vec<u64> {
        TurboCcChannel::record(&mut self.symbol_run(), bits)
    }

    /// Calibrates `(mean_one, mean_zero)` probe durations.
    pub fn calibrate(&self, reps: usize) -> (f64, f64) {
        let mut run = self.symbol_run();
        two_level_means(reps, |bits| TurboCcChannel::record(&mut run, bits))
    }

    /// Transmits and decodes a bit sequence.
    pub fn transmit(&self, bits: &[bool], cal: (f64, f64)) -> BitTransmission {
        BitTransmission::decode(
            bits,
            self.run_bits(bits),
            cal,
            1.0 / self.cfg.bit_period.as_secs(),
        )
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

//! Phase workloads: programs whose instruction class changes over time.
//!
//! Used to regenerate Figure 6 (cores starting/stopping AVX2 phases;
//! 454.calculix-like behaviour) and Figure 7(b) (the
//! Non-AVX → AVX2 → AVX512 sequence).

use ichannels_soc::program::{Action, ProgCtx, Program};
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;

/// One workload phase: a class executed (in repeated blocks) for a
/// duration, or an idle period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Instruction class of the phase; `None` = idle (sleep).
    pub class: Option<InstClass>,
    /// Phase length (wall-clock).
    pub duration: SimTime,
}

impl Phase {
    /// A busy phase.
    pub fn busy(class: InstClass, duration: SimTime) -> Self {
        Phase {
            class: Some(class),
            duration,
        }
    }
}

/// A program that walks through a list of phases, issuing fixed-size
/// instruction blocks until each phase's wall-clock budget elapses.
#[derive(Debug)]
pub struct PhaseProgram {
    phases: Vec<Phase>,
    block_insts: u64,
    idx: usize,
    phase_end: Option<SimTime>,
    label: String,
}

impl PhaseProgram {
    /// Creates a phase program; `block_insts` controls the granularity at
    /// which the phase boundary is honoured (smaller = more precise, more
    /// simulator events).
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or `block_insts` is zero.
    pub fn new(phases: Vec<Phase>, block_insts: u64) -> Self {
        assert!(!phases.is_empty(), "phase program needs phases");
        assert!(block_insts > 0, "block size must be non-zero");
        PhaseProgram {
            phases,
            block_insts,
            idx: 0,
            phase_end: None,
            label: "phase program".to_string(),
        }
    }

    /// The three-phase Figure 7(b) workload: Non-AVX, then AVX2, then
    /// AVX512, each for the given duration.
    pub fn three_phase(per_phase: SimTime, block_insts: u64) -> Self {
        PhaseProgram::new(
            vec![
                Phase::busy(InstClass::Scalar64, per_phase),
                Phase::busy(InstClass::Heavy256, per_phase),
                Phase::busy(InstClass::Heavy512, per_phase),
            ],
            block_insts,
        )
    }

    /// A 454.calculix-like trace (Figure 6(b)): alternating AVX2 solver
    /// phases and scalar assembly phases.
    pub fn calculix_like(total: SimTime, block_insts: u64) -> Self {
        let mut phases = Vec::new();
        let mut elapsed = SimTime::ZERO;
        let mut avx = false;
        // Irregular-ish alternation (solver bursts longer than assembly).
        let pattern_us = [
            180_000.0, 120_000.0, 260_000.0, 90_000.0, 210_000.0, 140_000.0,
        ];
        let mut k = 0usize;
        while elapsed < total {
            let d = SimTime::from_us(pattern_us[k % pattern_us.len()]);
            let d = if elapsed + d > total {
                total - elapsed
            } else {
                d
            };
            phases.push(Phase {
                class: Some(if avx {
                    InstClass::Heavy256
                } else {
                    InstClass::Scalar64
                }),
                duration: d,
            });
            elapsed += d;
            avx = !avx;
            k += 1;
        }
        PhaseProgram::new(phases, block_insts)
    }
}

impl Program for PhaseProgram {
    fn next(&mut self, ctx: &ProgCtx) -> Action {
        loop {
            if self.idx >= self.phases.len() {
                return Action::Halt;
            }
            let phase = self.phases[self.idx];
            let end = *self.phase_end.get_or_insert(ctx.now + phase.duration);
            if ctx.now >= end {
                self.idx += 1;
                self.phase_end = None;
                continue;
            }
            match phase.class {
                Some(class) => {
                    return Action::Run {
                        class,
                        instructions: self.block_insts,
                    }
                }
                None => {
                    let remaining = end - ctx.now;
                    return Action::SleepFor(remaining);
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels_soc::config::{PlatformSpec, SocConfig};
    use ichannels_soc::sim::Soc;
    use ichannels_uarch::time::Freq;

    #[test]
    fn phases_run_for_their_duration() {
        let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
        let mut soc = Soc::new(cfg);
        let prog = PhaseProgram::new(
            vec![
                Phase::busy(InstClass::Scalar64, SimTime::from_us(100.0)),
                Phase {
                    class: None,
                    duration: SimTime::from_us(50.0),
                },
                Phase::busy(InstClass::Heavy256, SimTime::from_us(100.0)),
            ],
            1_000,
        );
        soc.spawn(0, 0, Box::new(prog));
        let end = soc.run_until_idle(SimTime::from_ms(5.0));
        // Total ≈ 250 µs plus the AVX2 throttle stretch of the last phase
        // blocks (bounded by a block length).
        assert!(end.as_us() >= 250.0, "end = {end}");
        assert!(end.as_us() < 300.0, "end = {end}");
        // Both classes actually retired instructions.
        assert!(soc.inst_retired(0, 0) > 100_000.0);
    }

    #[test]
    fn three_phase_sequence_steps_frequency_down() {
        // Figure 7(b): at the performance governor on the mobile part,
        // each successive phase lowers the sustained frequency.
        let cfg = SocConfig::quiet(PlatformSpec::cannon_lake()).with_trace(SimTime::from_us(200.0));
        let mut soc = Soc::new(cfg);
        soc.spawn(
            0,
            0,
            Box::new(PhaseProgram::three_phase(SimTime::from_ms(20.0), 20_000)),
        );
        soc.run_until_idle(SimTime::from_ms(120.0));
        let freqs = soc.trace().freq_series();
        let f_scalar = freqs
            .iter()
            .filter(|(t, _)| *t > 0.010 && *t < 0.018)
            .map(|(_, f)| *f)
            .fold(0.0, f64::max);
        let f_avx2 = freqs
            .iter()
            .filter(|(t, _)| *t > 0.030 && *t < 0.038)
            .map(|(_, f)| *f)
            .fold(0.0, f64::max);
        let f_avx512 = freqs
            .iter()
            .filter(|(t, _)| *t > 0.052 && *t < 0.058)
            .map(|(_, f)| *f)
            .fold(0.0, f64::max);
        assert!(f_scalar > f_avx2, "scalar {f_scalar} vs avx2 {f_avx2}");
        assert!(f_avx2 > f_avx512, "avx2 {f_avx2} vs avx512 {f_avx512}");
    }

    #[test]
    fn calculix_phases_cover_total() {
        let p = PhaseProgram::calculix_like(SimTime::from_secs(2.0), 10_000);
        let total: SimTime = p.phases.iter().map(|ph| ph.duration).sum();
        assert_eq!(total, SimTime::from_secs(2.0));
        assert!(p.phases.len() >= 8);
    }
}

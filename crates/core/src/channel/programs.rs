//! The one simulated program every timed-loop channel spawns onto the
//! SoC — [`SlotProgram`] — plus the receiver's measurement-jitter
//! source.
//!
//! Every channel here has the per-transaction shape of Figure 3: in
//! each fixed slot the sender may run a PHI loop for the slot's level,
//! then the receiver times its own loop with `rdtsc` and records the
//! duration. A [`SlotProgram`] plays either role or both.

use std::rc::Rc;

use ichannels_soc::program::{Action, ProgCtx, Program};
use ichannels_uarch::isa::InstClass;
use ichannels_workload::loops::Recorder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Gaussian measurement jitter on the receiver's `rdtsc` delta.
#[derive(Debug)]
pub(super) struct JitterSource {
    rng: SmallRng,
    sigma_cycles: f64,
}

impl JitterSource {
    pub(super) fn new(seed: u64, sigma_cycles: f64) -> Self {
        JitterSource {
            rng: SmallRng::seed_from_u64(seed),
            sigma_cycles,
        }
    }

    fn apply(&mut self, cycles: u64) -> u64 {
        if self.sigma_cycles <= 0.0 {
            return cycles;
        }
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let jittered = cycles as f64 + g * self.sigma_cycles;
        jittered.max(0.0).round() as u64
    }
}

/// The receiver role of a [`SlotProgram`]: a timed loop whose jittered
/// duration is recorded once per slot.
#[derive(Debug)]
struct Measure {
    class: InstClass,
    insts: u64,
    recorder: Recorder,
    jitter: JitterSource,
}

/// Where a [`SlotProgram`] is within the current slot.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Wait,
    Send,
    Measure,
    Record { t_start: u64 },
}

/// One slotted channel program. Slot `i` starts at TSC
/// `slot0 + i * period` and carries level `levels[i]`; in it the
/// program waits for the slot, runs the level's sender loop (if
/// [`SlotProgram::sending`] gives one), runs the timed receiver loop
/// (if [`SlotProgram::measuring`] was called) and records its
/// duration. It halts after the last slot.
#[derive(Debug)]
pub(super) struct SlotProgram {
    name: &'static str,
    levels: Rc<[u8]>,
    slot0: u64,
    period: u64,
    send: Rc<[Option<(InstClass, u64)>]>,
    measure: Option<Measure>,
    idx: usize,
    stage: Stage,
}

impl SlotProgram {
    /// A program over one slot per entry of `levels` that neither sends
    /// nor measures until configured.
    pub(super) fn new(name: &'static str, levels: Rc<[u8]>, slot0: u64, period: u64) -> Self {
        SlotProgram {
            name,
            levels,
            slot0,
            period,
            send: Rc::from([]),
            measure: None,
            idx: 0,
            stage: Stage::Wait,
        }
    }

    /// The sender loop per level: `send[level]` is the `(class,
    /// instructions)` run in a slot of that level, `None` to send
    /// nothing.
    pub(super) fn sending(mut self, send: Rc<[Option<(InstClass, u64)>]>) -> Self {
        self.send = send;
        self
    }

    /// Times an `insts`-instruction `class` loop in every slot and
    /// pushes its duration, perturbed by `jitter`, to `recorder`.
    pub(super) fn measuring(
        mut self,
        class: InstClass,
        insts: u64,
        recorder: Recorder,
        jitter: JitterSource,
    ) -> Self {
        self.measure = Some(Measure {
            class,
            insts,
            recorder,
            jitter,
        });
        self
    }
}

impl Program for SlotProgram {
    fn next(&mut self, ctx: &ProgCtx) -> Action {
        loop {
            let Some(&level) = self.levels.get(self.idx) else {
                return Action::Halt;
            };
            match self.stage {
                Stage::Wait => {
                    self.stage = Stage::Send;
                    return Action::WaitUntilTsc(self.slot0 + self.idx as u64 * self.period);
                }
                Stage::Send => {
                    self.stage = Stage::Measure;
                    if let Some(&Some((class, instructions))) = self.send.get(usize::from(level)) {
                        return Action::Run {
                            class,
                            instructions,
                        };
                    }
                    continue;
                }
                Stage::Measure => {
                    if let Some(m) = &self.measure {
                        self.stage = Stage::Record { t_start: ctx.tsc };
                        return Action::Run {
                            class: m.class,
                            instructions: m.insts,
                        };
                    }
                }
                Stage::Record { t_start } => {
                    if let Some(m) = &mut self.measure {
                        let d = m.jitter.apply(ctx.tsc.saturating_sub(t_start));
                        m.recorder.push(d);
                    }
                }
            }
            self.idx += 1;
            self.stage = Stage::Wait;
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actions(mut prog: SlotProgram) -> Vec<Action> {
        let mut ctx = ProgCtx {
            now: ichannels_uarch::time::SimTime::ZERO,
            tsc: 0,
            core: 0,
            smt: 0,
        };
        let mut out = Vec::new();
        loop {
            let a = prog.next(&ctx);
            out.push(a);
            if a == Action::Halt {
                return out;
            }
            ctx.tsc += 100;
        }
    }

    fn run(class: InstClass, instructions: u64) -> Action {
        Action::Run {
            class,
            instructions,
        }
    }

    #[test]
    fn each_slot_waits_then_sends_its_level_then_measures() {
        let recorder = Recorder::new();
        let prog = SlotProgram::new("test", Rc::from([1, 0]), 1_000, 500)
            .sending(Rc::from([None, Some((InstClass::Heavy256, 7))]))
            .measuring(
                InstClass::Heavy512,
                9,
                recorder.clone(),
                JitterSource::new(0, 0.0),
            );
        assert_eq!(
            actions(prog),
            [
                Action::WaitUntilTsc(1_000),
                run(InstClass::Heavy256, 7),
                run(InstClass::Heavy512, 9),
                // Level 0 sends nothing: straight to the timed loop.
                Action::WaitUntilTsc(1_500),
                run(InstClass::Heavy512, 9),
                Action::Halt,
            ]
        );
        assert_eq!(recorder.values(), [100, 100]);
    }

    #[test]
    fn a_sender_alone_records_nothing() {
        let prog = SlotProgram::new("test", Rc::from([0, 0]), 0, 10)
            .sending(Rc::from([Some((InstClass::Light128, 3))]));
        assert_eq!(
            actions(prog),
            [
                Action::WaitUntilTsc(0),
                run(InstClass::Light128, 3),
                Action::WaitUntilTsc(10),
                run(InstClass::Light128, 3),
                Action::Halt,
            ]
        );
    }
}

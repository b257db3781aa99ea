//! Voltage regulator models.
//!
//! The paper evaluates three PDN styles (§2, §7): motherboard VRs
//! (**MBVR**, shared by all cores — Coffee Lake, Cannon Lake), fully
//! integrated VRs (**FIVR** — Haswell, faster but still shared), and
//! per-core low-dropout regulators (**LDO** — recent AMD parts, the
//! paper's proposed mitigation, <0.5 µs transitions).
//!
//! A [`Vr`] is a little state machine: the PMU issues a setpoint via
//! [`Vr::begin_transition`]; the output then holds for the command
//! latency (SVID round-trip + controller response) and ramps linearly at
//! the slew rate. The ~µs-scale ramp is precisely what creates the
//! multi-level throttling period the covert channels exploit: the core
//! stays throttled until [`Vr::transition_end`].

use ichannels_uarch::time::SimTime;

/// The three PDN regulator styles discussed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VrKind {
    /// Motherboard voltage regulator shared by all cores (Coffee Lake,
    /// Cannon Lake). Slow command interface (off-chip SVID) + slow ramp.
    Mbvr,
    /// Fully-integrated VR (Haswell). On-die, faster ramp, still shared.
    Fivr,
    /// Per-core low-dropout regulator (the §7 mitigation; AMD Zen-style).
    /// Very fast transitions (< 0.5 µs).
    Ldo,
}

impl std::fmt::Display for VrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VrKind::Mbvr => write!(f, "MBVR"),
            VrKind::Fivr => write!(f, "FIVR"),
            VrKind::Ldo => write!(f, "LDO"),
        }
    }
}

/// Electrical/timing parameters of a voltage regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrModel {
    /// Regulator style.
    pub kind: VrKind,
    /// Output slew rate while ramping, in mV/µs.
    pub slew_mv_per_us: f64,
    /// Latency from setpoint command to the start of the ramp (SVID
    /// serialization + controller response).
    pub cmd_latency: SimTime,
}

impl VrModel {
    /// Coffee Lake-style motherboard VR.
    pub fn mbvr() -> Self {
        VrModel {
            kind: VrKind::Mbvr,
            slew_mv_per_us: 2.4,
            cmd_latency: SimTime::from_us(1.2),
        }
    }

    /// Haswell-style FIVR: ~1.5× faster ramp, much lower command latency.
    pub fn fivr() -> Self {
        VrModel {
            kind: VrKind::Fivr,
            slew_mv_per_us: 3.8,
            cmd_latency: SimTime::from_ns(300.0),
        }
    }

    /// Per-core LDO (mitigation): 200 ns/V-class transitions.
    pub fn ldo() -> Self {
        VrModel {
            kind: VrKind::Ldo,
            slew_mv_per_us: 80.0,
            cmd_latency: SimTime::from_ns(100.0),
        }
    }

    /// Time to ramp across `delta_mv` (excluding command latency).
    ///
    /// # Panics
    ///
    /// Panics if `delta_mv` is negative or not finite.
    pub fn ramp_time(&self, delta_mv: f64) -> SimTime {
        assert!(
            delta_mv.is_finite() && delta_mv >= 0.0,
            "invalid ramp delta: {delta_mv}"
        );
        SimTime::from_us(delta_mv / self.slew_mv_per_us)
    }

    /// Full transition time for `delta_mv` including command latency.
    pub fn transition_time(&self, delta_mv: f64) -> SimTime {
        self.cmd_latency + self.ramp_time(delta_mv)
    }
}

/// A single in-flight voltage transition.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transition {
    issued_at: SimTime,
    ramp_start: SimTime,
    end: SimTime,
    from_mv: f64,
    to_mv: f64,
}

/// A voltage regulator output: setpoint + linear ramp state machine.
///
/// # Examples
///
/// ```
/// use ichannels_pdn::regulator::{Vr, VrModel};
/// use ichannels_uarch::time::SimTime;
///
/// let mut vr = Vr::new(VrModel::mbvr(), 788.0);
/// let done = vr.begin_transition(SimTime::ZERO, 818.0);
/// // 30 mV at 2.4 mV/us + 1.2 us latency = 13.7 us.
/// assert!((done.as_us() - 13.7).abs() < 0.01);
/// assert_eq!(vr.voltage_mv(SimTime::ZERO), 788.0);
/// assert_eq!(vr.voltage_mv(done), 818.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Vr {
    model: VrModel,
    settled_mv: f64,
    transition: Option<Transition>,
}

impl Vr {
    /// Creates a regulator settled at `initial_mv`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_mv` is negative or not finite.
    pub fn new(model: VrModel, initial_mv: f64) -> Self {
        assert!(
            initial_mv.is_finite() && initial_mv >= 0.0,
            "invalid initial voltage: {initial_mv}"
        );
        Vr {
            model,
            settled_mv: initial_mv,
            transition: None,
        }
    }

    /// The regulator's electrical model.
    pub fn model(&self) -> &VrModel {
        &self.model
    }

    /// Starts (or redirects) a transition toward `target_mv` at `now`,
    /// returning the completion instant.
    ///
    /// If a transition is already in flight, the output first settles at
    /// its instantaneous value and the new ramp starts from there — the
    /// behaviour of a VR receiving a new SVID setpoint mid-ramp.
    pub fn begin_transition(&mut self, now: SimTime, target_mv: f64) -> SimTime {
        let from = self.voltage_mv(now);
        let delta = (target_mv - from).abs();
        let ramp_start = now + self.model.cmd_latency;
        let end = ramp_start + self.model.ramp_time(delta);
        self.settled_mv = target_mv;
        self.transition = Some(Transition {
            issued_at: now,
            ramp_start,
            end,
            from_mv: from,
            to_mv: target_mv,
        });
        end
    }

    /// Completion time of the in-flight transition, if any.
    pub fn transition_end(&self) -> Option<SimTime> {
        self.transition.map(|t| t.end)
    }

    /// True if the output is still moving (or waiting on the command
    /// latency) at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.transition.is_some_and(|t| now < t.end)
    }

    /// Instantaneous output voltage at `now`.
    pub fn voltage_mv(&self, now: SimTime) -> f64 {
        match self.transition {
            None => self.settled_mv,
            Some(t) => {
                if now <= t.ramp_start {
                    t.from_mv
                } else if now >= t.end {
                    t.to_mv
                } else {
                    let frac = (now - t.ramp_start) / (t.end - t.ramp_start);
                    t.from_mv + (t.to_mv - t.from_mv) * frac
                }
            }
        }
    }

    /// Final setpoint voltage (where the output will settle).
    pub fn setpoint_mv(&self) -> f64 {
        self.settled_mv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn models_ordering() {
        // FIVR ramps faster than MBVR; LDO fastest — this ordering is
        // what makes Haswell's TP (~9 µs) shorter than Coffee Lake's
        // (12–15 µs), Figure 8(a).
        let mbvr = VrModel::mbvr();
        let fivr = VrModel::fivr();
        let ldo = VrModel::ldo();
        let d = 30.0;
        assert!(fivr.transition_time(d) < mbvr.transition_time(d));
        assert!(ldo.transition_time(d) < fivr.transition_time(d));
        // LDO: <0.5 µs for a typical transition (paper §7).
        assert!(ldo.transition_time(d).as_us() < 0.5);
    }

    #[test]
    fn ramp_up_is_linear() {
        let mut vr = Vr::new(VrModel::mbvr(), 700.0);
        let end = vr.begin_transition(SimTime::ZERO, 724.0);
        let ramp_start = SimTime::from_us(1.2);
        let mid = ramp_start + (end - ramp_start).scale(0.5);
        assert!((vr.voltage_mv(mid) - 712.0).abs() < 0.05);
        assert_eq!(vr.voltage_mv(end + SimTime::from_us(1.0)), 724.0);
        assert!(vr.is_busy(SimTime::from_us(2.0)));
        assert!(!vr.is_busy(end));
    }

    #[test]
    fn ramp_down_works() {
        let mut vr = Vr::new(VrModel::mbvr(), 800.0);
        let end = vr.begin_transition(SimTime::ZERO, 776.0);
        assert_eq!(vr.voltage_mv(end), 776.0);
        assert!(vr.voltage_mv(end.scale(0.7)) <= 800.0);
    }

    #[test]
    fn redirect_mid_ramp_starts_from_instantaneous_value() {
        let mut vr = Vr::new(VrModel::mbvr(), 700.0);
        vr.begin_transition(SimTime::ZERO, 748.0);
        // Halfway through the ramp, redirect back down.
        let t = SimTime::from_us(11.2); // 1.2 latency + 10 of 20 us ramp
        let v_mid = vr.voltage_mv(t);
        assert!((v_mid - 724.0).abs() < 0.1);
        let end = vr.begin_transition(t, 700.0);
        assert!((vr.voltage_mv(t) - v_mid).abs() < 1e-9);
        assert_eq!(vr.voltage_mv(end), 700.0);
    }

    #[test]
    fn zero_delta_transition_costs_only_latency() {
        let mut vr = Vr::new(VrModel::mbvr(), 800.0);
        let end = vr.begin_transition(SimTime::ZERO, 800.0);
        assert_eq!(end, VrModel::mbvr().cmd_latency);
    }

    proptest! {
        /// The output never overshoots the [from, to] envelope.
        #[test]
        fn no_overshoot(from in 600.0f64..1200.0, to in 600.0f64..1200.0, at_us in 0.0f64..50.0) {
            let mut vr = Vr::new(VrModel::mbvr(), from);
            vr.begin_transition(SimTime::ZERO, to);
            let v = vr.voltage_mv(SimTime::from_us(at_us));
            let (lo, hi) = if from <= to { (from, to) } else { (to, from) };
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        /// Transition time grows with the voltage delta.
        #[test]
        fn transition_time_monotone(d1 in 0.0f64..60.0, extra in 0.1f64..60.0) {
            let m = VrModel::mbvr();
            prop_assert!(m.transition_time(d1 + extra) > m.transition_time(d1));
        }
    }
}

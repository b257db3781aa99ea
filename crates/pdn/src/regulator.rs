//! Voltage regulator models.
//!
//! The paper evaluates three PDN styles (§2, §7): motherboard VRs
//! (**MBVR**, shared by all cores — Coffee Lake, Cannon Lake), fully
//! integrated VRs (**FIVR** — Haswell, faster but still shared), and
//! per-core low-dropout regulators (**LDO** — recent AMD parts, the
//! paper's proposed mitigation, <0.5 µs transitions).
//!
//! A [`VrModel`] holds a regulator's timing: after a setpoint command the
//! output holds for the command latency (SVID round-trip + controller
//! response) and then ramps linearly at the slew rate. The rail that
//! applies it is `ichannels_pmu::central::VrRail`, which queues each
//! transition behind the one in flight. The ~µs-scale ramp is precisely
//! what creates the multi-level throttling period the covert channels
//! exploit: a core stays throttled until its transition completes.

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
    #[inline]
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

    proptest! {
        /// Transition time grows with the voltage delta.
        #[test]
        fn transition_time_monotone(d1 in 0.0f64..60.0, extra in 0.1f64..60.0) {
            let m = VrModel::mbvr();
            prop_assert!(m.transition_time(d1 + extra) > m.transition_time(d1));
        }
    }
}

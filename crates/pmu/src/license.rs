//! Per-core voltage-guardband licenses with the 650 µs hysteresis.
//!
//! Paper §4.1.2: "the processor keeps a hysteresis counter that keeps the
//! voltage at a high level corresponding to the highest power PHI
//! executed within the reset-time frame. If no executed PHIs are within a
//! 650 µs time frame, the processor reduces the voltage to the baseline
//! voltage level." The covert channels must wait this *reset-time*
//! between transactions, which bounds their symbol rate.

use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;

/// Number of license levels — one per [`InstClass`] intensity rank.
const N_LEVELS: usize = 7;

/// Tracks, per intensity rank, when a core last executed instructions of
/// at least that rank, and derives the *effective license* — the highest
/// rank still inside the hysteresis window.
///
/// # Examples
///
/// ```
/// use ichannels_pmu::license::CoreLicense;
/// use ichannels_uarch::isa::InstClass;
/// use ichannels_uarch::time::SimTime;
///
/// let mut lic = CoreLicense::new(SimTime::from_us(650.0));
/// lic.record_execution(InstClass::Heavy512, SimTime::ZERO);
/// assert_eq!(lic.effective_level(SimTime::from_us(100.0)), 6);
/// // 650 us later the license has fully decayed.
/// assert_eq!(lic.effective_level(SimTime::from_us(651.0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreLicense {
    reset_time: SimTime,
    /// `last_exec[r]` = last instant the core executed rank-`r`
    /// instructions; `None` if never.
    last_exec: [Option<SimTime>; N_LEVELS],
}

impl CoreLicense {
    /// Creates a license tracker with the given hysteresis window.
    pub fn new(reset_time: SimTime) -> Self {
        CoreLicense {
            reset_time,
            last_exec: [None; N_LEVELS],
        }
    }

    /// Records that the core executed `class` instructions at `now`.
    pub fn record_execution(&mut self, class: InstClass, now: SimTime) {
        self.last_exec[class.intensity_rank() as usize] = Some(now);
    }

    /// The effective license level (intensity rank 0‥6) at `now`: the
    /// highest rank executed within the last `reset_time`.
    #[inline]
    pub fn effective_level(&self, now: SimTime) -> u8 {
        for rank in (1..N_LEVELS).rev() {
            if let Some(t) = self.last_exec[rank] {
                if now.saturating_sub(t) < self.reset_time {
                    return rank as u8;
                }
            }
        }
        0
    }

    /// The effective license as an instruction class.
    #[inline]
    pub fn effective_class(&self, now: SimTime) -> InstClass {
        // `effective_level` is always a valid rank; fall back to the
        // baseline class rather than panicking.
        InstClass::from_rank(self.effective_level(now)).unwrap_or(InstClass::Scalar64)
    }

    /// The next instant at which the effective level will drop, if any.
    /// (The level drops when the hysteresis window of the currently
    /// dominant rank expires.)
    #[inline]
    pub fn next_decay(&self, now: SimTime) -> Option<SimTime> {
        let level = self.effective_level(now);
        if level == 0 {
            return None;
        }
        // A non-zero level implies a recorded execution at that rank.
        self.last_exec[level as usize].map(|t| t + self.reset_time)
    }

    /// Clears all history (e.g., after a deep package sleep).
    pub fn reset(&mut self) {
        self.last_exec = [None; N_LEVELS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A license with the paper's measured 650 µs reset-time.
    fn lic() -> CoreLicense {
        CoreLicense::new(SimTime::from_ns_u64(650_000))
    }

    #[test]
    fn fresh_license_is_baseline() {
        assert_eq!(lic().effective_level(SimTime::from_ms(1.0)), 0);
        assert_eq!(lic().next_decay(SimTime::ZERO), None);
    }

    #[test]
    fn highest_recent_rank_wins() {
        let mut l = lic();
        l.record_execution(InstClass::Heavy256, SimTime::from_us(10.0));
        l.record_execution(InstClass::Light128, SimTime::from_us(20.0));
        assert_eq!(l.effective_level(SimTime::from_us(30.0)), 4);
    }

    #[test]
    fn decays_level_by_level() {
        let mut l = lic();
        l.record_execution(InstClass::Heavy512, SimTime::ZERO);
        l.record_execution(InstClass::Heavy128, SimTime::from_us(400.0));
        // At 500 us both are live: 512b Heavy dominates.
        assert_eq!(l.effective_level(SimTime::from_us(500.0)), 6);
        // At 700 us the 512b window (0..650) expired, 128b (400..1050) live.
        assert_eq!(l.effective_level(SimTime::from_us(700.0)), 2);
        // At 1100 us everything expired.
        assert_eq!(l.effective_level(SimTime::from_us(1100.0)), 0);
    }

    #[test]
    fn refresh_extends_window() {
        let mut l = lic();
        l.record_execution(InstClass::Heavy256, SimTime::ZERO);
        l.record_execution(InstClass::Heavy256, SimTime::from_us(600.0));
        assert_eq!(l.effective_level(SimTime::from_us(1200.0)), 4);
    }

    #[test]
    fn next_decay_matches_effective_level_boundary() {
        let mut l = lic();
        l.record_execution(InstClass::Heavy512, SimTime::from_us(100.0));
        let decay = l.next_decay(SimTime::from_us(200.0)).unwrap();
        assert_eq!(decay, SimTime::from_us(750.0));
        // Just before: still licensed. At the boundary: decayed.
        assert_eq!(l.effective_level(SimTime::from_us(749.9)), 6);
        assert_eq!(l.effective_level(decay), 0);
    }

    #[test]
    fn scalar_execution_never_licenses() {
        let mut l = lic();
        l.record_execution(InstClass::Scalar64, SimTime::ZERO);
        assert_eq!(l.effective_level(SimTime::from_us(1.0)), 0);
    }

    #[test]
    fn reset_clears() {
        let mut l = lic();
        l.record_execution(InstClass::Heavy512, SimTime::ZERO);
        l.reset();
        assert_eq!(l.effective_level(SimTime::from_us(1.0)), 0);
    }
}

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
/// The level is a non-increasing step function of time that changes
/// only when an execution is recorded, so each record precomputes it:
/// `live_until[r]` is the latest window end among ranks `r` and above.
/// Rank `r` or higher is live at `now` exactly when `now` lies before
/// that end, so the effective level is the count of such ranks, found
/// in a fixed number of comparisons at any instant.
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
    /// `window_end[r]` = end of the hysteresis window of the last
    /// rank-`r` execution (`last + reset_time`); `ZERO` if never, and
    /// always `ZERO` with a zero reset-time, whose windows are empty.
    window_end: [SimTime; N_LEVELS],
    /// `live_until[r]` = the latest `window_end` of ranks `r‥6`: a
    /// function of `window_end`, so it never changes equality.
    live_until: [SimTime; N_LEVELS],
}

impl CoreLicense {
    /// Creates a license tracker with the given hysteresis window.
    pub fn new(reset_time: SimTime) -> Self {
        CoreLicense {
            reset_time,
            window_end: [SimTime::ZERO; N_LEVELS],
            live_until: [SimTime::ZERO; N_LEVELS],
        }
    }

    /// Records that the core executed `class` instructions at `now`.
    ///
    /// A window is `[last, last + reset_time)`, and an instant before the
    /// last execution counts as inside it, as
    /// `now.saturating_sub(last) < reset_time` does.
    #[inline]
    pub fn record_execution(&mut self, class: InstClass, now: SimTime) {
        if self.reset_time.is_zero() {
            return;
        }
        self.window_end[class.intensity_rank() as usize] = now + self.reset_time;
        let mut latest = SimTime::ZERO;
        for rank in (0..N_LEVELS).rev() {
            latest = latest.max(self.window_end[rank]);
            self.live_until[rank] = latest;
        }
    }

    /// The effective license level (intensity rank 0‥6) at `now`: the
    /// highest rank executed within the last `reset_time`.
    #[inline]
    pub fn effective_level(&self, now: SimTime) -> u8 {
        self.live_until[1..]
            .iter()
            .map(|&until| u8::from(now < until))
            .sum()
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
        match self.effective_level(now) {
            0 => None,
            // Every rank above the level has ended by `now`, so the
            // latest end from the level up is the level's own.
            level => Some(self.live_until[level as usize]),
        }
    }

    /// Clears all history (e.g., after a deep package sleep).
    pub fn reset(&mut self) {
        self.window_end = [SimTime::ZERO; N_LEVELS];
        self.live_until = [SimTime::ZERO; N_LEVELS];
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

    /// The rank scan the license answered with before it precomputed
    /// its levels: the highest rank whose last execution is within
    /// `reset_time`, next decay at that execution plus `reset_time`.
    struct RankScan {
        reset_time: SimTime,
        last_exec: [Option<SimTime>; N_LEVELS],
    }

    impl RankScan {
        fn level(&self, now: SimTime) -> u8 {
            (1..N_LEVELS)
                .rev()
                .find(|&r| {
                    self.last_exec[r].is_some_and(|t| now.saturating_sub(t) < self.reset_time)
                })
                .map_or(0, |r| r as u8)
        }

        fn next_decay(&self, now: SimTime) -> Option<SimTime> {
            match self.level(now) {
                0 => None,
                level => self.last_exec[level as usize].map(|t| t + self.reset_time),
            }
        }
    }

    /// Level, class and next decay answer like the rank scan before, at
    /// and after every operation of seeded schedules: executions of
    /// every class (same-level re-executions included), records at an
    /// earlier instant than the last, and resets; probed at instants
    /// before the last execution, inside the window, at its edges and
    /// past it. Also with a zero reset-time, whose windows are empty.
    #[test]
    fn levels_answer_like_the_rank_scan() {
        for reset_ns in [650_000u64, 30_000, 0] {
            let reset_time = SimTime::from_ns_u64(reset_ns);
            for seed in 1..=6u64 {
                let mut lic = CoreLicense::new(reset_time);
                let mut scan = RankScan {
                    reset_time,
                    last_exec: [None; N_LEVELS],
                };
                let mut x = seed;
                let mut t = SimTime::ZERO;
                for step in 0..2_000 {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let check = |lic: &CoreLicense, scan: &RankScan, at: SimTime| {
                        let mut probes = vec![at, at.saturating_sub(SimTime::from_ns_u64(1))];
                        for d in [
                            1u64, 5_000, 29_999, 30_000, 400_000, 649_999, 650_000, 650_001,
                        ] {
                            probes.push(at + SimTime::from_ns_u64(d));
                        }
                        for &e in scan.last_exec.iter().flatten() {
                            probes.extend([e, e.saturating_sub(SimTime::from_ps(1))]);
                            probes.extend([
                                e + reset_time,
                                (e + reset_time).saturating_sub(SimTime::from_ps(1)),
                            ]);
                        }
                        for p in probes {
                            assert_eq!(
                                lic.effective_level(p),
                                scan.level(p),
                                "seed {seed} step {step} at {p}"
                            );
                            assert_eq!(
                                lic.next_decay(p),
                                scan.next_decay(p),
                                "seed {seed} step {step} at {p}"
                            );
                            assert_eq!(
                                lic.effective_class(p),
                                InstClass::from_rank(scan.level(p)).unwrap()
                            );
                        }
                    };
                    check(&lic, &scan, t);
                    match (x >> 40) % 16 {
                        0 => {
                            lic.reset();
                            scan.last_exec = [None; N_LEVELS];
                        }
                        k => {
                            // Mostly forward in time; sometimes a record
                            // at an earlier instant than the last.
                            t = if k == 1 {
                                t.saturating_sub(SimTime::from_ns_u64((x >> 20) % 100_000))
                            } else {
                                t + SimTime::from_ns_u64((x >> 24) % 400_000)
                            };
                            // Repeat the last class now and then, a
                            // same-level re-execution.
                            let rank = if k < 5 {
                                (x >> 8) % 2 + 4
                            } else {
                                (x >> 8) % 7
                            };
                            let class = InstClass::ALL[rank as usize];
                            lic.record_execution(class, t);
                            scan.last_exec[rank as usize] = Some(t);
                        }
                    }
                    check(&lic, &scan, t);
                }
            }
        }
    }

    #[test]
    fn reset_clears() {
        let mut l = lic();
        l.record_execution(InstClass::Heavy512, SimTime::ZERO);
        l.reset();
        assert_eq!(l.effective_level(SimTime::from_us(1.0)), 0);
    }
}

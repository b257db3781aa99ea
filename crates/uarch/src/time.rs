//! Simulation time and frequency primitives.
//!
//! The whole reproduction runs on a single discrete notion of time:
//! [`SimTime`], a picosecond-resolution instant/duration. Picoseconds are
//! fine enough to resolve the ~8–15 ns AVX power-gate wake-up the paper
//! measures in Figure 8(b) while a `u64` still covers ~213 days of
//! simulated time, far beyond the 60 s experiments of §6.3.
//!
//! [`Freq`] is a Hz-resolution clock frequency used for core clocks, the
//! invariant TSC, and DAQ sample rates.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// `x.round() as u64` for finite `x >= 0`, without the libm call.
///
/// From 2^52 up every `f64` is an integer, so the saturating cast is
/// already exact. Below it, `x - trunc(x)` is computed exactly and
/// rounding half away from zero adds one at a fraction of 0.5 or more.
/// Unlike `(x + 0.5) as u64`, this keeps 0.49999999999999994 at 0.
#[inline]
fn round_ps(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x >= EXACT {
        return x as u64;
    }
    let i = x as u64;
    i + u64::from(x - i as f64 >= 0.5)
}

/// An instant or duration on the simulated timeline, in picoseconds.
///
/// `SimTime` is used both as a point in time (measured from simulation
/// start) and as a span between two points; the arithmetic is identical
/// and the dual use keeps the simulator code free of conversions.
///
/// # Examples
///
/// ```
/// use ichannels_uarch::time::SimTime;
///
/// let reset = SimTime::from_us(650.0); // the paper's hysteresis reset-time
/// let tx = SimTime::from_us(40.0);     // one covert-channel transaction
/// assert_eq!((reset + tx).as_us(), 690.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start) / empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from integer nanoseconds.
    pub const fn from_ns_u64(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates a time from fractional nanoseconds (rounded to ps).
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "invalid nanosecond value: {ns}"
        );
        SimTime(round_ps(ns * PS_PER_NS as f64))
    }

    /// Creates a time from fractional microseconds (rounded to ps).
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "invalid microsecond value: {us}"
        );
        SimTime(round_ps(us * PS_PER_US as f64))
    }

    /// Creates a time from fractional milliseconds (rounded to ps).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "invalid millisecond value: {ms}"
        );
        SimTime(round_ps(ms * PS_PER_MS as f64))
    }

    /// Creates a time from fractional seconds (rounded to ps).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid second value: {s}");
        SimTime(round_ps(s * PS_PER_S as f64))
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds.
    fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Value in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Value in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// True if this is the zero instant.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies a duration by a dimensionless factor (rounding to ps).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimTime(round_ps(self.0 as f64 * factor))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                // lint:allow(R001): `Add` has no error channel, and
                // reaching 2^64 ps (~213 simulated days) means a corrupt
                // schedule; saturating would freeze the timeline silently.
                .expect("SimTime addition overflow"),
        )
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                // lint:allow(R001): `Sub` has no error channel, and a
                // negative duration means the schedule itself is corrupt
                // (pinned by `sub_underflow_panics`).
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc + t)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    /// Ratio of two durations.
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        assert!(!rhs.is_zero(), "division by zero SimTime");
        self.0 as f64 / rhs.0 as f64
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        self.scale(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_S {
            write!(f, "{:.6}s", self.as_secs())
        } else if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us())
        } else if self.0 >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock frequency in Hz.
///
/// # Examples
///
/// ```
/// use ichannels_uarch::time::Freq;
///
/// let f = Freq::from_ghz(2.2); // Cannon Lake base clock
/// assert_eq!(f.as_hz(), 2_200_000_000);
/// assert_eq!(f.to_string(), "2.20GHz");
/// assert!(f > Freq::from_mhz(800.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Freq(u64);

impl Freq {
    /// Zero frequency (clock gated).
    pub const ZERO: Freq = Freq(0);

    /// Creates a frequency from raw Hz.
    pub const fn from_hz(hz: u64) -> Self {
        Freq(hz)
    }

    /// Creates a frequency from MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is negative or not finite.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz >= 0.0, "invalid MHz value: {mhz}");
        Freq((mhz * 1e6).round() as u64)
    }

    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is negative or not finite.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz >= 0.0, "invalid GHz value: {ghz}");
        Freq((ghz * 1e9).round() as u64)
    }

    /// Raw Hz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Value in MHz.
    fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in GHz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GHz", self.as_ghz())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1}MHz", self.as_mhz())
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_us(12.5);
        assert_eq!(t.as_ps(), 12_500_000);
        assert!((t.as_us() - 12.5).abs() < 1e-12);
        assert!((t.as_ns() - 12_500.0).abs() < 1e-9);
        assert!((t.as_ms() - 0.0125).abs() < 1e-12);
        assert!((t.as_secs() - 12.5e-6).abs() < 1e-15);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10.0);
        let b = SimTime::from_ns(4.0);
        assert_eq!((a + b).as_ns(), 14.0);
        assert_eq!((a - b).as_ns(), 6.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.scale(0.5).as_ns(), 5.0);
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ns(1.0) - SimTime::from_ns(2.0);
    }

    #[test]
    fn min_max_and_zero() {
        let a = SimTime::from_us(1.0);
        let b = SimTime::from_us(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(SimTime::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_ns(i as f64)).sum();
        assert_eq!(total.as_ns(), 10.0);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", SimTime::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimTime::from_ns(8.0)), "8.000ns");
        assert_eq!(format!("{}", SimTime::from_us(12.0)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_ms(650.0)), "650.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.000000s");
    }

    #[test]
    fn freq_cycles() {
        let f = Freq::from_ghz(1.4);
        assert_eq!(f.as_hz(), 1_400_000_000);
    }

    /// `round_ps` is `x.round() as u64` bit for bit on every finite
    /// `x >= 0`: ties, the largest double below one half, the edge at
    /// 2^52 where every double becomes an integer, saturation past
    /// 2^64, and a seeded sweep over many magnitudes.
    #[test]
    fn round_ps_matches_libm_round() {
        let p52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            p52 - 0.5,
            p52 - 1.5,
            p52 + 0.5,
            p52,
            p52 + 1.0,
            (1u64 << 53) as f64 + 1.0,
            (1u64 << 53) as f64 + 2.0,
            u64::MAX as f64,
            2.0 * u64::MAX as f64,
            f64::MAX,
        ];
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            let exponent = (x % 72) as i32 - 4;
            xs.push(mantissa * 2f64.powi(exponent));
            xs.push(((x >> 20) as f64).floor() + 0.5);
        }
        for x in xs {
            assert_eq!(round_ps(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn freq_display() {
        assert_eq!(format!("{}", Freq::from_ghz(3.6)), "3.60GHz");
        assert_eq!(format!("{}", Freq::from_mhz(100.0)), "100.0MHz");
    }
}

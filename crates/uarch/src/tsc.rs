//! The invariant time-stamp counter (`rdtsc`).
//!
//! Both the covert-channel receiver ("measuring its own throttling period
//! (TP) using the `rdtsc` instruction", §4) and the sender/receiver
//! synchronization ("each thread can obtain the wall clock using rdtsc",
//! §4.3.3) depend on the TSC. On all modern Intel parts the TSC is
//! *invariant*: it ticks at a constant rate regardless of the core
//! P-state, which is exactly why it can measure throttling periods that
//! coincide with frequency changes.

use crate::time::{Freq, SimTime};

/// An invariant TSC: converts between simulated wall-clock time and TSC
/// cycle counts at a fixed reference frequency.
///
/// # Examples
///
/// ```
/// use ichannels_uarch::tsc::Tsc;
/// use ichannels_uarch::time::{Freq, SimTime};
///
/// let tsc = Tsc::new(Freq::from_ghz(2.2)); // Cannon Lake reference clock
/// let t = SimTime::from_us(10.0);
/// assert_eq!(tsc.read(t), 22_000);
/// assert!((tsc.to_time(22_000).as_us() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tsc {
    freq: Freq,
}

impl Tsc {
    /// Creates a TSC ticking at `freq`.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is zero.
    pub fn new(freq: Freq) -> Self {
        assert!(freq.as_hz() > 0, "TSC frequency must be non-zero");
        Tsc { freq }
    }

    /// `rdtsc` at simulated instant `now`.
    pub fn read(&self, now: SimTime) -> u64 {
        // now_ps * hz / 1e12, computed in u128 to avoid overflow.
        (u128::from(now.as_ps()) * u128::from(self.freq.as_hz()) / 1_000_000_000_000u128) as u64
    }

    /// Converts a TSC value back to a simulated instant (inverse of
    /// [`Tsc::read`], up to rounding).
    pub fn to_time(&self, tsc: u64) -> SimTime {
        SimTime::from_ps(
            (u128::from(tsc) * 1_000_000_000_000u128 / u128::from(self.freq.as_hz())) as u64,
        )
    }

    /// Converts a TSC-cycle *count* into a duration.
    pub fn cycles_to_duration(&self, cycles: u64) -> SimTime {
        self.to_time(cycles)
    }

    /// Converts a duration into TSC cycles.
    pub fn duration_to_cycles(&self, dt: SimTime) -> u64 {
        self.read(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let tsc = Tsc::new(Freq::from_ghz(3.0));
        let mut last = 0;
        for us in 0..1000 {
            let v = tsc.read(SimTime::from_us(us as f64));
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn round_trip() {
        let tsc = Tsc::new(Freq::from_ghz(2.2));
        for us in [0.0, 1.5, 650.0, 1_000_000.0] {
            let t = SimTime::from_us(us);
            let back = tsc.to_time(tsc.read(t));
            let err = t.as_ps().abs_diff(back.as_ps());
            assert!(err <= 1000, "round trip error {err}ps at {us}us");
        }
    }

    #[test]
    fn no_overflow_at_large_times() {
        let tsc = Tsc::new(Freq::from_ghz(5.0));
        // One simulated day.
        let t = SimTime::from_secs(86_400.0);
        let v = tsc.read(t);
        assert_eq!(v, 5_000_000_000 * 86_400);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_freq_panics() {
        let _ = Tsc::new(Freq::ZERO);
    }
}

//! AVX-unit power gating (paper §2, §5.4).
//!
//! Each AVX unit sits behind a dedicated power-gate (Skylake onward).
//! Waking a gate uses a *staggered wake-up* to limit di/dt noise and
//! takes tens of nanoseconds — the paper measures 8–15 ns on Coffee Lake
//! and shows this accounts for only ~0.1 % of the throttling period
//! (Key Conclusion 3, refuting NetSpectre's power-gating hypothesis).

use ichannels_uarch::time::SimTime;

/// State of a power-gated domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateState {
    /// Gate closed: domain unpowered (saves leakage).
    Closed,
    /// Gate opening: staggered wake in progress until the given instant.
    Opening {
        /// Instant at which the domain becomes usable.
        ready_at: SimTime,
    },
    /// Gate open: domain powered.
    Open,
}

/// A power-gate with staggered wake-up.
///
/// # Examples
///
/// ```
/// use ichannels_pdn::power_gate::{PowerGate, GateState};
/// use ichannels_uarch::time::SimTime;
///
/// let mut pg = PowerGate::new(SimTime::from_ns(12.0));
/// let ready = pg.request_open(SimTime::ZERO);
/// assert_eq!(ready, SimTime::from_ns(12.0));  // first use pays the wake
/// pg.tick(ready);
/// assert_eq!(pg.request_open(ready), ready);  // already open: free
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerGate {
    wake_latency: SimTime,
    state: GateState,
}

impl PowerGate {
    /// Creates a closed gate with the given staggered wake-up latency.
    pub fn new(wake_latency: SimTime) -> Self {
        PowerGate {
            wake_latency,
            state: GateState::Closed,
        }
    }

    /// A gate that is always open (parts without AVX power gating, e.g.
    /// Haswell — Figure 8(c) shows no first-iteration penalty there).
    pub fn always_open() -> Self {
        PowerGate {
            wake_latency: SimTime::ZERO,
            state: GateState::Open,
        }
    }

    /// Current state.
    pub fn state(&self) -> GateState {
        self.state
    }

    /// Requests the domain at `now`; returns the instant it is usable.
    /// Opening is idempotent while a wake is in flight.
    #[inline]
    pub fn request_open(&mut self, now: SimTime) -> SimTime {
        match self.state {
            GateState::Open => now,
            GateState::Opening { ready_at } => ready_at.max(now),
            GateState::Closed => {
                let ready_at = now + self.wake_latency;
                self.state = GateState::Opening { ready_at };
                ready_at
            }
        }
    }

    /// Advances gate state to `now` (completes a finished wake).
    #[inline]
    pub fn tick(&mut self, now: SimTime) {
        if let GateState::Opening { ready_at } = self.state {
            if now >= ready_at {
                self.state = GateState::Open;
            }
        }
    }

    /// Closes the gate (local PMU decision after an idle period).
    #[inline]
    pub fn close(&mut self) {
        if self.wake_latency.is_zero() {
            // An always-open gate cannot be closed.
            return;
        }
        self.state = GateState::Closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_open_pays_wake_latency() {
        let mut pg = PowerGate::new(SimTime::from_ns(10.0));
        let t0 = SimTime::from_us(1.0);
        let ready = pg.request_open(t0);
        assert_eq!(ready - t0, SimTime::from_ns(10.0));
    }

    #[test]
    fn reopen_while_opening_is_idempotent() {
        let mut pg = PowerGate::new(SimTime::from_ns(10.0));
        let r1 = pg.request_open(SimTime::ZERO);
        let r2 = pg.request_open(SimTime::from_ns(4.0));
        assert_eq!(r1, r2);
    }

    #[test]
    fn open_gate_is_free() {
        let mut pg = PowerGate::new(SimTime::from_ns(10.0));
        let ready = pg.request_open(SimTime::ZERO);
        pg.tick(ready);
        assert_eq!(pg.state(), GateState::Open);
        let t = SimTime::from_us(5.0);
        assert_eq!(pg.request_open(t), t);
    }

    #[test]
    fn close_and_reopen_pays_again() {
        let mut pg = PowerGate::new(SimTime::from_ns(12.0));
        let r = pg.request_open(SimTime::ZERO);
        pg.tick(r);
        pg.close();
        assert_eq!(pg.state(), GateState::Closed);
        let r2 = pg.request_open(SimTime::from_us(700.0));
        assert_eq!(r2 - SimTime::from_us(700.0), SimTime::from_ns(12.0));
    }

    #[test]
    fn always_open_never_closes() {
        let mut pg = PowerGate::always_open();
        assert_eq!(pg.state(), GateState::Open);
        pg.close();
        assert_eq!(pg.state(), GateState::Open);
        assert_eq!(
            pg.request_open(SimTime::from_ns(3.0)),
            SimTime::from_ns(3.0)
        );
    }

    #[test]
    fn wake_is_tiny_fraction_of_throttle_period() {
        // Key Conclusion 3: wake (8–15 ns) ≈ 0.1% of TP (12–15 µs).
        let wake = SimTime::from_ns(12.0);
        let tp = SimTime::from_us(13.0);
        let frac = wake / tp;
        assert!(frac < 0.002, "frac = {frac}");
    }
}

//! P-states (performance states) and frequency transitions.
//!
//! Figure 9(c) of the paper shows the Vccmax/Iccmax protection mechanism
//! throttling the core "while initiating a P-state transition to reduce
//! the voltage and frequency". Frequency transitions take on the order
//! of tens of microseconds (the paper's Fig. 7 observations happen
//! "within tens of microseconds" of PHI execution).

use ichannels_uarch::time::{Freq, SimTime};

/// A table of discrete operating frequencies (P-states), highest first.
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    freqs: Vec<Freq>,
    transition_latency: SimTime,
}

impl PStateTable {
    /// Builds a table from a list of frequencies (any order; stored
    /// descending) and a per-transition latency.
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is empty or contains duplicates.
    pub fn new(mut freqs: Vec<Freq>, transition_latency: SimTime) -> Self {
        assert!(!freqs.is_empty(), "P-state table must not be empty");
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            freqs.windows(2).all(|w| w[0] != w[1]),
            "duplicate P-state frequencies"
        );
        PStateTable {
            freqs,
            transition_latency,
        }
    }

    /// All P-state frequencies, highest first.
    pub fn freqs(&self) -> &[Freq] {
        &self.freqs
    }

    /// Latency of one frequency transition.
    fn transition_latency(&self) -> SimTime {
        self.transition_latency
    }

    /// Highest frequency in the table.
    pub fn max(&self) -> Freq {
        self.freqs[0]
    }

    /// Lowest frequency in the table.
    pub fn min(&self) -> Freq {
        // Construction rejects empty tables.
        self.freqs[self.freqs.len() - 1]
    }

    /// Highest table frequency that does not exceed `cap`; falls back to
    /// the lowest P-state if even that exceeds the cap.
    pub fn highest_not_above(&self, cap: Freq) -> Freq {
        self.freqs
            .iter()
            .copied()
            .find(|f| *f <= cap)
            .unwrap_or(self.min())
    }

    /// The next P-state strictly below `freq`, if any.
    pub fn next_below(&self, freq: Freq) -> Option<Freq> {
        self.freqs.iter().copied().find(|f| *f < freq)
    }
}

/// An in-flight or settled frequency state of the (shared) clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PStateEngine {
    current: Freq,
    target: Freq,
    /// Completion time of the in-flight transition (== now if settled).
    settle_at: SimTime,
}

impl PStateEngine {
    /// Starts settled at `freq`.
    pub fn new(freq: Freq) -> Self {
        PStateEngine {
            current: freq,
            target: freq,
            settle_at: SimTime::ZERO,
        }
    }

    /// The frequency in force at `now` (the old frequency until the
    /// transition settles — clocks keep running during the PLL relock in
    /// our model; the execution *throttle* during the transition is
    /// handled by the SoC layer).
    pub fn freq_at(&self, now: SimTime) -> Freq {
        if now >= self.settle_at {
            self.target
        } else {
            self.current
        }
    }

    /// Final target frequency.
    pub fn target(&self) -> Freq {
        self.target
    }

    /// True if a transition is still in flight at `now`.
    pub fn in_transition(&self, now: SimTime) -> bool {
        now < self.settle_at
    }

    /// Instant the in-flight transition settles.
    pub fn settle_at(&self) -> SimTime {
        self.settle_at
    }

    /// Requests a transition to `freq` at `now`; returns the settle time.
    /// Requesting the current target is a no-op.
    pub fn request(&mut self, now: SimTime, freq: Freq, table: &PStateTable) -> SimTime {
        if freq == self.target {
            return self.settle_at.max(now);
        }
        // Fold an in-flight transition: the new one starts from the
        // frequency in force now.
        self.current = self.freq_at(now);
        self.target = freq;
        self.settle_at = now + table.transition_latency();
        self.settle_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::new(
            vec![
                Freq::from_ghz(3.1),
                Freq::from_ghz(2.6),
                Freq::from_ghz(2.2),
                Freq::from_ghz(1.4),
                Freq::from_ghz(1.0),
            ],
            SimTime::from_us(12.0),
        )
    }

    #[test]
    fn table_is_sorted_descending() {
        let t = table();
        assert_eq!(t.max(), Freq::from_ghz(3.1));
        assert_eq!(t.min(), Freq::from_ghz(1.0));
        assert!(t.freqs().windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn highest_not_above() {
        let t = table();
        assert_eq!(
            t.highest_not_above(Freq::from_ghz(2.8)),
            Freq::from_ghz(2.6)
        );
        assert_eq!(
            t.highest_not_above(Freq::from_ghz(3.5)),
            Freq::from_ghz(3.1)
        );
        // Below the lowest P-state: clamp to the lowest.
        assert_eq!(
            t.highest_not_above(Freq::from_ghz(0.5)),
            Freq::from_ghz(1.0)
        );
    }

    #[test]
    fn next_below() {
        let t = table();
        assert_eq!(t.next_below(Freq::from_ghz(3.1)), Some(Freq::from_ghz(2.6)));
        assert_eq!(t.next_below(Freq::from_ghz(1.0)), None);
    }

    #[test]
    fn transition_takes_latency() {
        let t = table();
        let mut e = PStateEngine::new(Freq::from_ghz(3.1));
        let settle = e.request(SimTime::from_us(100.0), Freq::from_ghz(2.2), &t);
        assert_eq!(settle, SimTime::from_us(112.0));
        assert_eq!(e.freq_at(SimTime::from_us(105.0)), Freq::from_ghz(3.1));
        assert_eq!(e.freq_at(settle), Freq::from_ghz(2.2));
        assert!(e.in_transition(SimTime::from_us(111.0)));
        assert!(!e.in_transition(settle));
    }

    #[test]
    fn rerequest_same_target_is_noop() {
        let t = table();
        let mut e = PStateEngine::new(Freq::from_ghz(2.2));
        let s1 = e.request(SimTime::ZERO, Freq::from_ghz(1.4), &t);
        let s2 = e.request(SimTime::from_us(5.0), Freq::from_ghz(1.4), &t);
        assert_eq!(s1, s2);
    }

    #[test]
    fn redirect_mid_transition() {
        let t = table();
        let mut e = PStateEngine::new(Freq::from_ghz(3.1));
        e.request(SimTime::ZERO, Freq::from_ghz(2.2), &t);
        // Redirect before settling: old frequency still in force.
        let s2 = e.request(SimTime::from_us(6.0), Freq::from_ghz(1.0), &t);
        assert_eq!(e.freq_at(SimTime::from_us(10.0)), Freq::from_ghz(3.1));
        assert_eq!(e.freq_at(s2), Freq::from_ghz(1.0));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_freqs_panic() {
        let _ = PStateTable::new(
            vec![Freq::from_ghz(2.0), Freq::from_ghz(2.0)],
            SimTime::ZERO,
        );
    }
}

//! Turbo frequency licenses (paper §5.3).
//!
//! "The Intel architecture provides three Turbo frequency licenses
//! (`LVL{0,1,2}_TURBO_LICENSE`) that the processor operates at. This
//! depends on the instructions that are being executed and the number of
//! active cores." These licenses cap the *maximum frequency*; they are
//! distinct from the (at least five) guardband throttling levels of
//! §5.5, which act at any frequency (footnote 11).
//!
//! TurboCC exploits the *slow* (tens of ms) frequency changes that follow
//! license transitions; IChannels does not depend on them — but we model
//! them so the TurboCC baseline can be reproduced faithfully.

use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::{Freq, SimTime};

/// The three Intel turbo licenses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TurboLicense {
    /// LVL0: scalar / SSE / light-AVX2 code — full turbo.
    Lvl0,
    /// LVL1: heavy AVX2 or light AVX-512 — reduced turbo.
    Lvl1,
    /// LVL2: heavy AVX-512 — lowest turbo.
    Lvl2,
}

impl TurboLicense {
    /// License required by an instruction class (Intel SDM-style mapping).
    pub const fn for_class(class: InstClass) -> TurboLicense {
        match class {
            InstClass::Scalar64
            | InstClass::Light128
            | InstClass::Heavy128
            | InstClass::Light256 => TurboLicense::Lvl0,
            InstClass::Heavy256 | InstClass::Light512 => TurboLicense::Lvl1,
            InstClass::Heavy512 => TurboLicense::Lvl2,
        }
    }

    /// Index 0..=2.
    pub const fn index(self) -> usize {
        match self {
            TurboLicense::Lvl0 => 0,
            TurboLicense::Lvl1 => 1,
            TurboLicense::Lvl2 => 2,
        }
    }
}

impl std::fmt::Display for TurboLicense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LVL{}_TURBO_LICENSE", self.index())
    }
}

/// Per-license, per-active-core-count maximum turbo frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct TurboTable {
    /// `max_freq[license][active_cores - 1]`.
    max_freq: [Vec<Freq>; 3],
    /// Time the PMU takes to *grant* a higher license (frequency drop):
    /// fast, the hardware reacts within tens of µs.
    grant_latency: SimTime,
    /// Time before the PMU *releases* a license after the last demanding
    /// instruction (frequency recovers): slow, ~ms (this is the time
    /// constant TurboCC's covert channel is built on).
    release_latency: SimTime,
}

impl TurboTable {
    /// Builds a turbo table.
    ///
    /// Each of the three license rows must list the maximum frequency for
    /// 1‥=n active cores (same length, non-increasing within a row, and
    /// row LVL0 ≥ LVL1 ≥ LVL2 pointwise).
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty, differ in length, or violate the
    /// ordering constraints.
    pub fn new(
        lvl0: Vec<Freq>,
        lvl1: Vec<Freq>,
        lvl2: Vec<Freq>,
        grant_latency: SimTime,
        release_latency: SimTime,
    ) -> Self {
        assert!(!lvl0.is_empty(), "turbo table must cover at least 1 core");
        assert!(
            lvl0.len() == lvl1.len() && lvl1.len() == lvl2.len(),
            "turbo table rows must have equal length"
        );
        for row in [&lvl0, &lvl1, &lvl2] {
            assert!(
                row.windows(2).all(|w| w[1] <= w[0]),
                "turbo frequency must not increase with active cores"
            );
        }
        for i in 0..lvl0.len() {
            assert!(
                lvl0[i] >= lvl1[i] && lvl1[i] >= lvl2[i],
                "higher licenses must not allow higher frequency"
            );
        }
        TurboTable {
            max_freq: [lvl0, lvl1, lvl2],
            grant_latency,
            release_latency,
        }
    }

    /// Maximum frequency under `license` with `active_cores` running.
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` is zero.
    pub fn max_freq(&self, license: TurboLicense, active_cores: usize) -> Freq {
        assert!(active_cores > 0, "need at least one active core");
        let row = &self.max_freq[license.index()];
        let idx = (active_cores - 1).min(row.len() - 1);
        row[idx]
    }

    /// Latency for granting a more restrictive license (freq drop).
    fn grant_latency(&self) -> SimTime {
        self.grant_latency
    }

    /// Latency for releasing a license (freq recovery) — the ms-scale
    /// time constant exploited by TurboCC.
    fn release_latency(&self) -> SimTime {
        self.release_latency
    }

    /// Number of core counts covered.
    pub fn core_counts(&self) -> usize {
        self.max_freq[0].len()
    }
}

/// Tracks the package turbo license over time (grant fast, release slow).
#[derive(Debug, Clone, PartialEq)]
pub struct TurboState {
    current: TurboLicense,
    /// Last time an instruction *demanding* the current license executed.
    last_demand: SimTime,
    pending: Option<(TurboLicense, SimTime)>,
}

impl Default for TurboState {
    fn default() -> Self {
        Self::new()
    }
}

impl TurboState {
    /// Starts at LVL0.
    pub fn new() -> Self {
        TurboState {
            current: TurboLicense::Lvl0,
            last_demand: SimTime::ZERO,
            pending: None,
        }
    }

    /// Current license.
    pub fn current(&self) -> TurboLicense {
        self.current
    }

    /// Notifies that `class` instructions execute at `now`. A higher
    /// license is granted only after the table's grant latency: it stays
    /// pending until [`TurboState::advance`] reaches its effective
    /// instant, which [`TurboState::next_event`] reports.
    pub fn on_execute(&mut self, class: InstClass, now: SimTime, table: &TurboTable) {
        let needed = TurboLicense::for_class(class);
        if needed > self.current {
            self.pending = Some((needed, now + table.grant_latency()));
        }
        if needed >= self.current {
            self.last_demand = now;
        }
    }

    /// Advances the state to `now`: applies due grants and releases the
    /// license if nothing demanded it for the release latency.
    pub fn advance(&mut self, now: SimTime, table: &TurboTable) {
        if let Some((lic, at)) = self.pending {
            if now >= at {
                self.current = lic;
                self.last_demand = self.last_demand.max(at);
                self.pending = None;
            }
        }
        if self.current > TurboLicense::Lvl0
            && now.saturating_sub(self.last_demand) >= table.release_latency()
        {
            self.current = TurboLicense::Lvl0;
        }
    }

    /// Next instant the state could change on its own (grant or release).
    pub fn next_event(&self, table: &TurboTable) -> Option<SimTime> {
        let release = if self.current > TurboLicense::Lvl0 {
            Some(self.last_demand + table.release_latency())
        } else {
            None
        };
        match (self.pending.map(|(_, t)| t), release) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TurboTable {
        TurboTable::new(
            vec![Freq::from_ghz(4.9), Freq::from_ghz(4.6)],
            vec![Freq::from_ghz(4.4), Freq::from_ghz(4.2)],
            vec![Freq::from_ghz(4.0), Freq::from_ghz(3.8)],
            SimTime::from_us(50.0),
            SimTime::from_ms(2.0),
        )
    }

    #[test]
    fn class_mapping() {
        assert_eq!(
            TurboLicense::for_class(InstClass::Light256),
            TurboLicense::Lvl0
        );
        assert_eq!(
            TurboLicense::for_class(InstClass::Heavy256),
            TurboLicense::Lvl1
        );
        assert_eq!(
            TurboLicense::for_class(InstClass::Heavy512),
            TurboLicense::Lvl2
        );
    }

    #[test]
    fn max_freq_lookup() {
        let t = table();
        assert_eq!(t.max_freq(TurboLicense::Lvl0, 1), Freq::from_ghz(4.9));
        assert_eq!(t.max_freq(TurboLicense::Lvl1, 2), Freq::from_ghz(4.2));
        // Clamped beyond the table.
        assert_eq!(t.max_freq(TurboLicense::Lvl2, 8), Freq::from_ghz(3.8));
    }

    #[test]
    fn grant_is_fast_release_is_slow() {
        let t = table();
        let mut s = TurboState::new();
        s.on_execute(InstClass::Heavy256, SimTime::ZERO, &t);
        // Not yet granted before the grant latency.
        s.advance(SimTime::from_us(10.0), &t);
        assert_eq!(s.current(), TurboLicense::Lvl0);
        // Granted after.
        s.advance(SimTime::from_us(60.0), &t);
        assert_eq!(s.current(), TurboLicense::Lvl1);
        // Stays granted while within the release window…
        s.advance(SimTime::from_ms(1.0), &t);
        assert_eq!(s.current(), TurboLicense::Lvl1);
        // …and releases after ~ms of no demand (the TurboCC time base).
        s.advance(SimTime::from_ms(3.0), &t);
        assert_eq!(s.current(), TurboLicense::Lvl0);
    }

    #[test]
    fn demand_refresh_blocks_release() {
        let t = table();
        let mut s = TurboState::new();
        s.on_execute(InstClass::Heavy512, SimTime::ZERO, &t);
        s.advance(SimTime::from_us(60.0), &t);
        assert_eq!(s.current(), TurboLicense::Lvl2);
        // Keep demanding every 1 ms: license must persist at 10 ms.
        for k in 1..10 {
            let now = SimTime::from_ms(k as f64);
            s.on_execute(InstClass::Heavy512, now, &t);
            s.advance(now, &t);
        }
        s.advance(SimTime::from_ms(10.5), &t);
        assert_eq!(s.current(), TurboLicense::Lvl2);
    }

    #[test]
    fn next_event_reports_release() {
        let t = table();
        let mut s = TurboState::new();
        s.on_execute(InstClass::Heavy256, SimTime::ZERO, &t);
        s.advance(SimTime::from_us(60.0), &t);
        let ev = s.next_event(&t).unwrap();
        assert!(ev >= SimTime::from_ms(2.0));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_rows_panic() {
        let _ = TurboTable::new(
            vec![Freq::from_ghz(4.9)],
            vec![Freq::from_ghz(4.4), Freq::from_ghz(4.2)],
            vec![Freq::from_ghz(4.0)],
            SimTime::ZERO,
            SimTime::ZERO,
        );
    }
}

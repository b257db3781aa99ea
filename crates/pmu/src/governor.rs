//! Software-level CPU frequency governors.
//!
//! §5.7 of the paper checks whether software power-management policies
//! affect the throttling mechanisms and finds they do not: "the
//! underlying mechanism of IChannels persists across all three policies"
//! (userspace, powersave, performance), because hardware throttling is
//! implemented inside the core for ns-scale response. The governors are
//! still needed as workload context — DFScovert (a baseline we compare
//! against) communicates *through* them.

use crate::pstate::PStateTable;
use ichannels_uarch::time::Freq;

/// A Linux-style CPU frequency governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Governor {
    /// Pin the frequency to a user-chosen value (the paper's fixed-2 GHz
    /// experiments, Figure 6).
    Userspace(Freq),
    /// Always run at the lowest P-state.
    Powersave,
    /// Always request the highest P-state (turbo); the hardware limit
    /// mechanisms may still cap it.
    Performance,
}

impl Governor {
    /// The frequency this governor requests, given the P-state table and
    /// the measured load ∈ \[0,1\]. None of the three policies reads
    /// the load; it is still validated.
    ///
    /// # Panics
    ///
    /// Panics if `load` is outside \[0,1\].
    pub fn requested_freq(&self, table: &PStateTable, load: f64) -> Freq {
        assert!((0.0..=1.0).contains(&load), "load must be in [0,1]: {load}");
        match self {
            Governor::Userspace(f) => table.highest_not_above(*f),
            Governor::Powersave => table.min(),
            Governor::Performance => table.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels_uarch::time::SimTime;

    fn table() -> PStateTable {
        PStateTable::new(
            vec![
                Freq::from_ghz(3.6),
                Freq::from_ghz(3.0),
                Freq::from_ghz(2.0),
                Freq::from_ghz(1.0),
            ],
            SimTime::from_us(12.0),
        )
    }

    #[test]
    fn userspace_pins_frequency() {
        let g = Governor::Userspace(Freq::from_ghz(2.0));
        assert_eq!(g.requested_freq(&table(), 1.0), Freq::from_ghz(2.0));
        assert_eq!(g.requested_freq(&table(), 0.0), Freq::from_ghz(2.0));
    }

    #[test]
    fn powersave_and_performance() {
        assert_eq!(
            Governor::Powersave.requested_freq(&table(), 1.0),
            Freq::from_ghz(1.0)
        );
        assert_eq!(
            Governor::Performance.requested_freq(&table(), 0.0),
            Freq::from_ghz(3.6)
        );
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn load_validated() {
        let _ = Governor::Performance.requested_freq(&table(), 1.5);
    }
}

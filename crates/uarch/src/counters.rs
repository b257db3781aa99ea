//! Performance monitoring counters (PMCs).
//!
//! The paper's characterization (§5.1, §5.6) relies on two counters:
//! `CPU_CLK_UNHALTED` and `IDQ_UOPS_NOT_DELIVERED` ("counts the number of
//! uops not delivered by the Instruction Decode Queue (IDQ) to the
//! back-end of the pipeline when there were no back-end stalls"). We also
//! track delivered uops and retired instructions for IPC computation.

use crate::ipc::ISSUE_WIDTH;

/// A snapshot of the per-hardware-thread performance counters.
///
/// # Examples
///
/// ```
/// use ichannels_uarch::counters::PerfCounters;
///
/// let c = PerfCounters {
///     cpu_clk_unhalted: 1000,
///     idq_uops_not_delivered: 3000,
///     uops_delivered: 1000,
///     inst_retired: 1000,
///     ..Default::default()
/// };
/// // Figure 11(a) metric: 3000 / (4*1000) = 0.75 → throttled.
/// assert!((c.normalized_undelivered() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfCounters {
    /// Unhalted core clock cycles attributed to this thread.
    pub cpu_clk_unhalted: u64,
    /// Delivery slots that went unused while the back-end was not stalled.
    pub idq_uops_not_delivered: u64,
    /// Uops actually delivered from the IDQ to the back-end.
    pub uops_delivered: u64,
    /// Instructions retired.
    pub inst_retired: u64,
    /// Delivery slots visible to this thread (4/cycle when alone on the
    /// core, 2/cycle when the SMT sibling is also active). Equals
    /// `4 × CPU_CLK_UNHALTED` in the single-thread case.
    pub slots_visible: u64,
}

impl PerfCounters {
    /// `IDQ_UOPS_NOT_DELIVERED / (4 × CPU_CLK_UNHALTED)` — the normalized
    /// undelivered-uops metric of Figure 11(a). When the SMT sibling is
    /// active the denominator is the thread's visible slot count, which
    /// is what the per-thread counter measures against on real parts.
    /// Returns 0 for an idle thread (no unhalted cycles).
    pub fn normalized_undelivered(&self) -> f64 {
        let denom = if self.slots_visible > 0 {
            self.slots_visible
        } else {
            u64::from(ISSUE_WIDTH) * self.cpu_clk_unhalted
        };
        if denom == 0 {
            return 0.0;
        }
        self.idq_uops_not_delivered as f64 / denom as f64
    }

    /// Retired instructions per unhalted cycle.
    pub fn ipc(&self) -> f64 {
        if self.cpu_clk_unhalted == 0 {
            return 0.0;
        }
        self.inst_retired as f64 / self.cpu_clk_unhalted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_undelivered_zero_when_idle() {
        assert_eq!(PerfCounters::default().normalized_undelivered(), 0.0);
    }

    #[test]
    fn ipc_computation() {
        let c = PerfCounters {
            cpu_clk_unhalted: 500,
            inst_retired: 1000,
            ..Default::default()
        };
        assert!((c.ipc() - 2.0).abs() < 1e-12);
    }
}

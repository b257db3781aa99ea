//! Cycle-accurate model of the Instruction Decode Queue (IDQ) to
//! back-end interface, including the throttling gate.
//!
//! §5.6 of the paper discovers that during a throttling period the core
//! "limits the number of uops delivered from the IDQ to the back-end
//! during a certain time window … During a time window of four core clock
//! cycles, the IDQ delivers uops to the back-end in only one cycle, while
//! in the remaining three cycles, the throttling mechanism blocks the
//! IDQ" (Figure 11(b)). Crucially, the gate sits on the *shared*
//! IDQ→back-end interface, so it throttles **both** SMT threads.
//!
//! The event-driven SoC simulator uses the analytic rates from
//! [`crate::ipc`]; this cycle-level model exists to (a) validate those
//! rates, (b) regenerate Figure 11(a) from first principles, and (c) host
//! the "improved core throttling" mitigation (paper §7) at the
//! granularity where it is actually defined — per-uop gating.

use crate::counters::PerfCounters;
use crate::ipc::{ISSUE_WIDTH, THROTTLE_WINDOW_CYCLES};
use crate::isa::InstClass;

/// Identifies one of the (up to two) SMT hardware threads of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmtId(pub u8);

impl SmtId {
    /// The first hardware thread.
    pub const T0: SmtId = SmtId(0);
    /// The second hardware thread.
    pub const T1: SmtId = SmtId(1);
}

/// Throttle gating policy on the IDQ→back-end interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThrottlePolicy {
    /// Baseline Intel behaviour (Figure 11(b)): while throttled, block
    /// *all* uops of *all* threads for 3 cycles in every 4-cycle window.
    #[default]
    BlockEntireCore,
    /// The paper's proposed "Improved Core Throttling" mitigation (§7):
    /// block only the uops that belong to the thread executing the PHI,
    /// and do not block non-PHI uops at all.
    PerThreadPhiOnly,
}

/// Per-thread input state: what the thread is currently trying to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadDemand {
    /// Class of the uops at the head of this thread's IDQ partition.
    pub class: InstClass,
    /// Whether the thread has uops ready to deliver this cycle.
    pub active: bool,
}

impl ThreadDemand {
    /// An idle thread (nothing to deliver).
    pub const IDLE: ThreadDemand = ThreadDemand {
        class: InstClass::Scalar64,
        active: false,
    };

    /// A thread continuously issuing uops of `class`.
    pub const fn busy(class: InstClass) -> ThreadDemand {
        ThreadDemand {
            class,
            active: true,
        }
    }
}

/// Result of one IDQ cycle: uops delivered per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryResult {
    /// Uops delivered for thread 0 this cycle.
    pub t0_uops: u32,
    /// Uops delivered for thread 1 this cycle.
    pub t1_uops: u32,
    /// True if the throttle gate blocked the interface this cycle.
    pub gate_blocked: bool,
}

impl DeliveryResult {
    /// Total uops delivered across both threads.
    pub fn total(&self) -> u32 {
        self.t0_uops + self.t1_uops
    }
}

/// Cycle-level IDQ→back-end interface with the throttle gate and SMT
/// round-robin arbitration.
///
/// # Examples
///
/// ```
/// use ichannels_uarch::idq::{Idq, ThreadDemand, SmtId};
/// use ichannels_uarch::isa::InstClass;
///
/// let mut idq = Idq::new();
/// idq.set_throttled(true, Some(SmtId::T0));
/// let mut delivered = 0;
/// for _ in 0..400 {
///     let r = idq.cycle(ThreadDemand::busy(InstClass::Heavy256), ThreadDemand::IDLE);
///     delivered += r.total();
/// }
/// // Throttled: only ~1 in 4 cycles delivers → ~25% of 400*4 slots.
/// assert_eq!(delivered, 400);
/// ```
#[derive(Debug, Clone)]
pub struct Idq {
    policy: ThrottlePolicy,
    throttled: bool,
    /// The thread whose PHI triggered the throttle (needed by the
    /// per-thread mitigation policy).
    phi_thread: Option<SmtId>,
    window_pos: u32,
    /// Round-robin arbitration pointer for SMT.
    rr_next: SmtId,
    counters: [PerfCounters; 2],
}

impl Default for Idq {
    fn default() -> Self {
        Self::new()
    }
}

impl Idq {
    /// Creates an IDQ with the baseline (entire-core) throttle policy.
    pub fn new() -> Self {
        Self::with_policy(ThrottlePolicy::BlockEntireCore)
    }

    /// Creates an IDQ with an explicit throttle policy.
    fn with_policy(policy: ThrottlePolicy) -> Self {
        Idq {
            policy,
            throttled: false,
            phi_thread: None,
            window_pos: 0,
            rr_next: SmtId::T0,
            counters: [PerfCounters::default(), PerfCounters::default()],
        }
    }

    /// Engages/disengages the throttle gate. `phi_thread` identifies the
    /// hardware thread whose PHI caused the transition (used by
    /// [`ThrottlePolicy::PerThreadPhiOnly`]).
    pub fn set_throttled(&mut self, throttled: bool, phi_thread: Option<SmtId>) {
        self.throttled = throttled;
        self.phi_thread = if throttled { phi_thread } else { None };
        if throttled {
            self.window_pos = 0;
        }
    }

    /// Per-thread performance counters.
    pub fn counters(&self, thread: SmtId) -> &PerfCounters {
        &self.counters[thread.0 as usize]
    }

    /// Resets all performance counters (like `WRMSR` clearing PMCs).
    fn reset_counters(&mut self) {
        self.counters = [PerfCounters::default(), PerfCounters::default()];
    }

    /// Advances the interface by one core clock cycle.
    ///
    /// Applies the throttle gate, arbitrates the `ISSUE_WIDTH` slots
    /// between active threads, and updates `CPU_CLK_UNHALTED` /
    /// `IDQ_UOPS_NOT_DELIVERED` style counters.
    pub fn cycle(&mut self, t0: ThreadDemand, t1: ThreadDemand) -> DeliveryResult {
        let demands = [t0, t1];
        for (i, d) in demands.iter().enumerate() {
            if d.active {
                self.counters[i].cpu_clk_unhalted += 1;
            }
        }

        // Which cycle of the 4-cycle throttle window are we in? The gate
        // opens on exactly one cycle per window.
        let gate_open_cycle = self.window_pos == 0;
        if self.throttled {
            self.window_pos = (self.window_pos + 1) % THROTTLE_WINDOW_CYCLES;
        }

        let mut result = DeliveryResult::default();
        let mut slots = ISSUE_WIDTH;

        // Determine per-thread eligibility under the active policy.
        let eligible = |id: SmtId, d: &ThreadDemand| -> bool {
            if !d.active {
                return false;
            }
            if !self.throttled {
                return true;
            }
            match self.policy {
                ThrottlePolicy::BlockEntireCore => gate_open_cycle,
                ThrottlePolicy::PerThreadPhiOnly => {
                    // Only the offending thread's PHI uops are gated; the
                    // sibling and non-PHI uops flow freely.
                    let is_offender = self.phi_thread == Some(id);
                    if is_offender && d.class.is_phi() {
                        gate_open_cycle
                    } else {
                        true
                    }
                }
            }
        };

        let t0_ok = eligible(SmtId::T0, &demands[0]);
        let t1_ok = eligible(SmtId::T1, &demands[1]);
        result.gate_blocked = self.throttled && !gate_open_cycle;

        // Round-robin split of the issue slots between eligible threads.
        match (t0_ok, t1_ok) {
            (true, true) => {
                let first_half = slots / 2 + u32::from(self.rr_next == SmtId::T0) * (slots % 2);
                let t0_slots = if self.rr_next == SmtId::T0 {
                    first_half
                } else {
                    slots - (slots / 2 + (slots % 2))
                };
                result.t0_uops = t0_slots.max(slots / 2);
                result.t1_uops = slots - result.t0_uops;
                self.rr_next = if self.rr_next == SmtId::T0 {
                    SmtId::T1
                } else {
                    SmtId::T0
                };
            }
            (true, false) => result.t0_uops = slots,
            (false, true) => result.t1_uops = slots,
            (false, false) => slots = 0,
        }
        let _ = slots;

        // Book-keeping: IDQ_UOPS_NOT_DELIVERED counts undelivered slots
        // on cycles where the back-end was not stalled (always true for
        // our register-only loops).
        for (i, d) in demands.iter().enumerate() {
            if d.active {
                let delivered = if i == 0 {
                    result.t0_uops
                } else {
                    result.t1_uops
                };
                // When both threads are active each thread's view of the
                // interface is half the slots.
                let view = if demands[0].active && demands[1].active {
                    ISSUE_WIDTH / 2
                } else {
                    ISSUE_WIDTH
                };
                let not_delivered = view.saturating_sub(delivered);
                self.counters[i].idq_uops_not_delivered += u64::from(not_delivered);
                self.counters[i].uops_delivered += u64::from(delivered);
                self.counters[i].inst_retired += u64::from(delivered); // 1 uop = 1 inst
                self.counters[i].slots_visible += u64::from(view);
            }
        }

        result
    }

    /// Runs `cycles` cycles with constant demand and returns the fraction
    /// of delivery slots that went unused for `thread`
    /// (`IDQ_UOPS_NOT_DELIVERED / (4 × CPU_CLK_UNHALTED)`, the normalized
    /// metric of Figure 11(a)).
    pub fn run_normalized_undelivered(
        &mut self,
        t0: ThreadDemand,
        t1: ThreadDemand,
        cycles: u64,
        thread: SmtId,
    ) -> f64 {
        self.reset_counters();
        for _ in 0..cycles {
            self.cycle(t0, t1);
        }
        self.counters(thread).normalized_undelivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_single_thread_gets_full_width() {
        let mut idq = Idq::new();
        let r = idq.cycle(ThreadDemand::busy(InstClass::Scalar64), ThreadDemand::IDLE);
        assert_eq!(r.t0_uops, ISSUE_WIDTH);
        assert_eq!(r.t1_uops, 0);
        assert!(!r.gate_blocked);
    }

    #[test]
    fn throttled_delivers_one_cycle_in_four() {
        let mut idq = Idq::new();
        idq.set_throttled(true, Some(SmtId::T0));
        let mut delivered_cycles = 0;
        let n = 4000;
        for _ in 0..n {
            let r = idq.cycle(ThreadDemand::busy(InstClass::Heavy256), ThreadDemand::IDLE);
            if r.total() > 0 {
                delivered_cycles += 1;
            }
        }
        assert_eq!(delivered_cycles, n / 4);
    }

    #[test]
    fn normalized_undelivered_matches_figure11() {
        // Throttled iteration: ~75% of slots undelivered.
        let mut idq = Idq::new();
        idq.set_throttled(true, Some(SmtId::T0));
        let frac = idq.run_normalized_undelivered(
            ThreadDemand::busy(InstClass::Heavy256),
            ThreadDemand::IDLE,
            10_000,
            SmtId::T0,
        );
        assert!((frac - 0.75).abs() < 0.01, "throttled frac = {frac}");

        // Unthrottled iteration: ~0% undelivered.
        let mut idq = Idq::new();
        let frac = idq.run_normalized_undelivered(
            ThreadDemand::busy(InstClass::Heavy256),
            ThreadDemand::IDLE,
            10_000,
            SmtId::T0,
        );
        assert!(frac < 0.01, "unthrottled frac = {frac}");
    }

    #[test]
    fn throttle_blocks_both_smt_threads() {
        // Key observation 2: the sibling running scalar code is throttled
        // too, because the gate is on the shared interface.
        let mut idq = Idq::new();
        idq.set_throttled(true, Some(SmtId::T0));
        let frac_sibling = idq.run_normalized_undelivered(
            ThreadDemand::busy(InstClass::Heavy256),
            ThreadDemand::busy(InstClass::Scalar64),
            10_000,
            SmtId::T1,
        );
        assert!(
            frac_sibling > 0.70,
            "sibling should be ~75% blocked, got {frac_sibling}"
        );
    }

    #[test]
    fn improved_throttling_spares_sibling() {
        // Mitigation (§7): per-thread PHI-only gating leaves the sibling
        // 64b loop untouched.
        let mut idq = Idq::with_policy(ThrottlePolicy::PerThreadPhiOnly);
        idq.set_throttled(true, Some(SmtId::T0));
        let frac_sibling = idq.run_normalized_undelivered(
            ThreadDemand::busy(InstClass::Heavy256),
            ThreadDemand::busy(InstClass::Scalar64),
            10_000,
            SmtId::T1,
        );
        // The sibling sees its fair SMT share every cycle → ~0 undelivered.
        assert!(frac_sibling < 0.01, "sibling frac = {frac_sibling}");

        // The offender is still gated.
        let mut idq = Idq::with_policy(ThrottlePolicy::PerThreadPhiOnly);
        idq.set_throttled(true, Some(SmtId::T0));
        let frac_offender = idq.run_normalized_undelivered(
            ThreadDemand::busy(InstClass::Heavy256),
            ThreadDemand::IDLE,
            10_000,
            SmtId::T0,
        );
        assert!(frac_offender > 0.70, "offender frac = {frac_offender}");
    }

    #[test]
    fn improved_throttling_spares_non_phi_uops_of_offender() {
        // Second stage of the mitigation: non-PHI uops of the offending
        // thread are not blocked either.
        let mut idq = Idq::with_policy(ThrottlePolicy::PerThreadPhiOnly);
        idq.set_throttled(true, Some(SmtId::T0));
        let frac = idq.run_normalized_undelivered(
            ThreadDemand::busy(InstClass::Scalar64),
            ThreadDemand::IDLE,
            10_000,
            SmtId::T0,
        );
        assert!(frac < 0.01, "non-PHI frac = {frac}");
    }

    #[test]
    fn smt_splits_slots_fairly() {
        let mut idq = Idq::new();
        let mut t0 = 0u64;
        let mut t1 = 0u64;
        for _ in 0..1000 {
            let r = idq.cycle(
                ThreadDemand::busy(InstClass::Scalar64),
                ThreadDemand::busy(InstClass::Scalar64),
            );
            t0 += u64::from(r.t0_uops);
            t1 += u64::from(r.t1_uops);
        }
        let ratio = t0 as f64 / t1 as f64;
        assert!((ratio - 1.0).abs() < 0.05, "t0={t0} t1={t1}");
    }

    #[test]
    fn counters_reset() {
        let mut idq = Idq::new();
        idq.cycle(ThreadDemand::busy(InstClass::Scalar64), ThreadDemand::IDLE);
        assert!(idq.counters(SmtId::T0).cpu_clk_unhalted > 0);
        idq.reset_counters();
        assert_eq!(idq.counters(SmtId::T0).cpu_clk_unhalted, 0);
    }
}

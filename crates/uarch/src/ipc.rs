//! The IPC (instructions-per-cycle) model used by the event-driven core.
//!
//! Figure 4 of the paper assumes a nominal IPC of 2 for scalar loops and 1
//! for PHI loops, with throttling reducing the *effective* IPC to 1/4 of
//! nominal ("the IPC is reduced to 1/4th of its baseline value"). This
//! module captures those rates plus SMT slot sharing.

use crate::isa::InstClass;

/// Front-end issue width (uops per cycle): Skylake-class cores deliver up
/// to 4 uops/cycle from the IDQ to the back-end.
pub const ISSUE_WIDTH: u32 = 4;

/// Fraction of cycles the IDQ is *blocked* while throttled (Figure 11:
/// "the IDQ does not deliver any uop in approximately three-quarters of
/// the core cycles").
pub const THROTTLE_BLOCKED_FRACTION: f64 = 0.75;

/// Effective rate multiplier during a throttling period: 1 delivery cycle
/// in every window of 4 (Key Conclusion 5).
const THROTTLE_IPC_FACTOR: f64 = 1.0 - THROTTLE_BLOCKED_FRACTION;

/// Length, in core cycles, of the throttling duty-cycle window.
pub const THROTTLE_WINDOW_CYCLES: u32 = 4;

/// Per-class nominal (unthrottled, single-thread) IPC.
///
/// Scalar micro-benchmark loops sustain IPC ≈ 2; vector PHI loops sustain
/// IPC ≈ 1 (paper Figure 4 assumptions; register-only Agner Fog loops).
pub fn nominal_ipc(class: InstClass) -> f64 {
    match class {
        InstClass::Scalar64 => 2.0,
        InstClass::Light128 | InstClass::Heavy128 => 1.4,
        InstClass::Light256 | InstClass::Heavy256 => 1.0,
        InstClass::Light512 | InstClass::Heavy512 => 1.0,
    }
}

/// Effective IPC of one hardware thread given throttle state and whether
/// the sibling SMT context is active.
///
/// While throttled, the 1-of-4 delivery window is shared by the *entire
/// core* (both SMT threads), so each of two active threads receives half
/// of the surviving slots. Unthrottled, the register-only loops used by
/// the paper's micro-benchmarks do not contend for ports, so the sibling
/// costs nothing.
pub fn effective_ipc(class: InstClass, throttled: bool, sibling_active: bool) -> f64 {
    let base = nominal_ipc(class);
    if throttled {
        let share = if sibling_active { 0.5 } else { 1.0 };
        base * THROTTLE_IPC_FACTOR * share
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_faster_than_vector() {
        assert!(nominal_ipc(InstClass::Scalar64) > nominal_ipc(InstClass::Heavy256));
    }

    #[test]
    fn throttle_quarters_ipc() {
        for class in InstClass::ALL {
            let full = effective_ipc(class, false, false);
            let thr = effective_ipc(class, true, false);
            assert!((thr / full - 0.25).abs() < 1e-12, "class {class}");
        }
    }

    #[test]
    fn smt_sharing_only_matters_when_throttled() {
        let alone = effective_ipc(InstClass::Heavy256, false, false);
        let shared = effective_ipc(InstClass::Heavy256, false, true);
        assert_eq!(alone, shared);

        let thr_alone = effective_ipc(InstClass::Heavy256, true, false);
        let thr_shared = effective_ipc(InstClass::Heavy256, true, true);
        assert!((thr_shared / thr_alone - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constants_consistent() {
        assert!((THROTTLE_BLOCKED_FRACTION + THROTTLE_IPC_FACTOR - 1.0).abs() < 1e-12);
        assert_eq!(THROTTLE_WINDOW_CYCLES, ISSUE_WIDTH);
    }
}

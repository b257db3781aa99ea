//! Maximum voltage / current design limits (paper §2, §5.3).
//!
//! "When dynamically increasing the voltage guardband … the processor may
//! reduce the cores' frequency 1) to keep the voltage within the maximum
//! operational voltage (Vccmax) and 2) to keep the current consumed from
//! the VR within the maximum current limit (Iccmax)." Exceeding Iccmax
//! "can result in irreversible damage to the VR or the processor chip".

/// Package electrical design limits.
///
/// # Examples
///
/// ```
/// use ichannels_pdn::limits::{ElectricalLimits, LimitViolation};
///
/// // Cannon Lake mobile limits (Figure 7(a)).
/// let lim = ElectricalLimits::new(1150.0, 29.0);
/// assert_eq!(lim.check(1100.0, 33.3), Some(LimitViolation::IccMax));
/// assert_eq!(lim.check(1100.0, 20.0), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectricalLimits {
    vccmax_mv: f64,
    iccmax_a: f64,
}

/// Which electrical limit a proposed operating point violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitViolation {
    /// The VR output voltage would exceed `Vccmax` (desktop Figure 7(a)).
    VccMax,
    /// The supply current would exceed `Iccmax` (mobile Figure 7(a)).
    IccMax,
}

impl std::fmt::Display for LimitViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitViolation::VccMax => write!(f, "Vccmax limit violation"),
            LimitViolation::IccMax => write!(f, "Iccmax limit violation"),
        }
    }
}

impl ElectricalLimits {
    /// Creates the limits.
    ///
    /// # Panics
    ///
    /// Panics if either limit is non-positive or not finite.
    pub fn new(vccmax_mv: f64, iccmax_a: f64) -> Self {
        assert!(
            vccmax_mv.is_finite() && vccmax_mv > 0.0,
            "invalid Vccmax: {vccmax_mv}"
        );
        assert!(
            iccmax_a.is_finite() && iccmax_a > 0.0,
            "invalid Iccmax: {iccmax_a}"
        );
        ElectricalLimits {
            vccmax_mv,
            iccmax_a,
        }
    }

    /// Maximum operational voltage (mV).
    pub fn vccmax_mv(&self) -> f64 {
        self.vccmax_mv
    }

    /// Maximum VR output current (A).
    pub fn iccmax_a(&self) -> f64 {
        self.iccmax_a
    }

    /// Checks a proposed operating point. Vccmax is reported first when
    /// both are violated (voltage damage is the harder constraint).
    pub fn check(&self, vcc_mv: f64, icc_a: f64) -> Option<LimitViolation> {
        if vcc_mv > self.vccmax_mv {
            Some(LimitViolation::VccMax)
        } else if icc_a > self.iccmax_a {
            Some(LimitViolation::IccMax)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_vccmax_case() {
        // Figure 7(a): desktop AVX2 at 4.9 GHz exceeds Vccmax = 1.27 V
        // while current stays below Iccmax = 100 A.
        let lim = ElectricalLimits::new(1270.0, 100.0);
        assert_eq!(lim.check(1310.0, 45.0), Some(LimitViolation::VccMax));
        assert_eq!(lim.check(1258.0, 44.0), None);
    }

    #[test]
    fn mobile_iccmax_case() {
        // Figure 7(a): mobile AVX2 at 3.1 GHz exceeds Iccmax = 29 A while
        // voltage stays below Vccmax = 1.15 V.
        let lim = ElectricalLimits::new(1150.0, 29.0);
        assert_eq!(lim.check(1120.0, 33.0), Some(LimitViolation::IccMax));
        assert_eq!(lim.check(900.0, 19.0), None);
    }

    #[test]
    fn vccmax_takes_priority() {
        let lim = ElectricalLimits::new(1000.0, 10.0);
        assert_eq!(lim.check(1100.0, 20.0), Some(LimitViolation::VccMax));
    }

    #[test]
    #[should_panic(expected = "invalid Iccmax")]
    fn rejects_nonpositive_limits() {
        let _ = ElectricalLimits::new(1000.0, 0.0);
    }
}

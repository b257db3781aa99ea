//! The load-line (adaptive voltage positioning) model of paper §2.
//!
//! "Load-line or adaptive voltage positioning is a model that describes
//! the voltage and current relationship under a given system impedance,
//! denoted by RLL. … The voltage at the load is defined as
//! `Vccload = Vcc – RLL · Icc`." RLL is typically 1.6–2.4 mΩ for recent
//! client processors.

/// A load-line with impedance `RLL` (milliohms).
///
/// # Examples
///
/// ```
/// use ichannels_pdn::loadline::LoadLine;
///
/// let ll = LoadLine::new(1.9);
/// // 20 A through 1.9 mΩ drops 38 mV at the load.
/// assert!((ll.vccload_mv(1000.0, 20.0) - 962.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadLine {
    rll_mohm: f64,
}

impl LoadLine {
    /// Creates a load-line with the given impedance in milliohms.
    ///
    /// # Panics
    ///
    /// Panics if `rll_mohm` is negative or not finite.
    pub fn new(rll_mohm: f64) -> Self {
        assert!(
            rll_mohm.is_finite() && rll_mohm >= 0.0,
            "invalid load-line impedance: {rll_mohm} mΩ"
        );
        LoadLine { rll_mohm }
    }

    /// Load-line impedance in milliohms.
    pub fn rll_mohm(&self) -> f64 {
        self.rll_mohm
    }

    /// Voltage drop across the load-line for a given current (mV).
    pub fn drop_mv(&self, icc_a: f64) -> f64 {
        icc_a * self.rll_mohm
    }

    /// Voltage at the load input: `Vccload = Vcc − RLL·Icc` (all mV / A).
    pub fn vccload_mv(&self, vcc_mv: f64, icc_a: f64) -> f64 {
        vcc_mv - self.drop_mv(icc_a)
    }

    /// The weakest client load-line of the paper's platform catalog
    /// (Coffee Lake's 1.6 mΩ) — the reference rail against which
    /// cross-core separation compression is measured.
    pub const CLIENT_REFERENCE_RLL_MOHM: f64 = 1.6;

    /// The reference client load-line (see
    /// [`LoadLine::CLIENT_REFERENCE_RLL_MOHM`]).
    pub fn client_reference() -> Self {
        LoadLine::new(Self::CLIENT_REFERENCE_RLL_MOHM)
    }

    /// Cross-core separation-compression factor of this rail versus a
    /// reference rail.
    ///
    /// A remote core's PHI reaches the receiver only through the shared
    /// rail's IR drop, `RLL · ΔIcc`, so the receiver-visible voltage
    /// separation between adjacent sender levels scales linearly with
    /// `RLL`. A stiffer (lower-impedance) rail therefore *compresses*
    /// the cross-core level separation by `RLL / RLL_ref`, clamped to
    /// 1.0 — a softer rail widens separation rather than compressing
    /// it. This is the factor the adaptive receiver calibrates against:
    /// 0.56 for the 0.9 mΩ Skylake-SP rail vs the 1.6 mΩ client
    /// reference, 1.0 for every client part.
    pub fn separation_compression(&self, reference: &LoadLine) -> f64 {
        if reference.rll_mohm <= 0.0 {
            return 1.0;
        }
        (self.rll_mohm / reference.rll_mohm).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_drop() {
        let ll = LoadLine::new(2.0);
        assert_eq!(ll.drop_mv(10.0), 20.0);
        assert_eq!(ll.vccload_mv(800.0, 10.0), 780.0);
    }

    #[test]
    fn zero_impedance_is_ideal() {
        let ll = LoadLine::new(0.0);
        assert_eq!(ll.vccload_mv(800.0, 100.0), 800.0);
    }

    #[test]
    #[should_panic(expected = "invalid load-line impedance")]
    fn negative_impedance_panics() {
        let _ = LoadLine::new(-1.0);
    }

    #[test]
    fn separation_compression_is_clamped_and_linear() {
        let reference = LoadLine::client_reference();
        // The server rail compresses cross-core separation by RLL ratio.
        let server = LoadLine::new(0.9);
        assert!((server.separation_compression(&reference) - 0.9 / 1.6).abs() < 1e-12);
        // Client rails at or above the reference do not compress.
        assert_eq!(reference.separation_compression(&reference), 1.0);
        assert_eq!(LoadLine::new(1.9).separation_compression(&reference), 1.0);
        // A zero-impedance reference cannot define compression.
        assert_eq!(server.separation_compression(&LoadLine::new(0.0)), 1.0);
    }

    proptest! {
        /// Paper §2: "the voltage at the load input (Vccload) decreases
        /// when the load's current (Icc) increases."
        #[test]
        fn vccload_monotonically_decreasing_in_current(
            rll in 0.1f64..5.0,
            vcc in 500.0f64..1500.0,
            i1 in 0.0f64..100.0,
            delta in 0.01f64..50.0,
        ) {
            let ll = LoadLine::new(rll);
            let i2 = i1 + delta;
            prop_assert!(ll.vccload_mv(vcc, i2) < ll.vccload_mv(vcc, i1));
        }

        /// The drop is linear in current: superposition holds.
        #[test]
        fn drop_is_linear(rll in 0.1f64..5.0, a in 0.0f64..50.0, b in 0.0f64..50.0) {
            let ll = LoadLine::new(rll);
            let lhs = ll.drop_mv(a + b);
            let rhs = ll.drop_mv(a) + ll.drop_mv(b);
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }
    }
}

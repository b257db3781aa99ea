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
/// let server = LoadLine::new(0.9);
/// // A 0.9 mΩ rail compresses cross-core separation to 0.9/1.6 of the
/// // 1.6 mΩ client reference.
/// let c = server.separation_compression(&LoadLine::client_reference());
/// assert!((c - 0.5625).abs() < 1e-12);
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

    /// The reference client load-line: the weakest of the paper's
    /// platform catalog (Coffee Lake's 1.6 mΩ), against which cross-core
    /// separation compression is measured.
    pub fn client_reference() -> Self {
        LoadLine::new(1.6)
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
}

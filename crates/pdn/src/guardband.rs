//! The adaptive voltage guardband model (paper §2, Equation 1).
//!
//! Modern processors define multiple power-virus levels based on the
//! maximum dynamic capacitance (`Cdyn`) an architectural state can draw.
//! When moving from level 1 to level 2 the required guardband is
//!
//! ```text
//! ΔV = Vcc2 − Vcc1 ≈ (Icc2 − Icc1) · RLL
//!    = (Cdyn2 − Cdyn1) · Vcc1 · F · RLL        (Equation 1)
//! ```
//!
//! `Cdyn` per core is a function of the computational intensity and width
//! of the executing instructions; core contributions are additive across
//! the package (the Figure 6(a) voltage steps: +8 mV when core 1 starts
//! AVX2, a further +9 mV when core 0 joins).

use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::Freq;

/// Per-class core dynamic capacitance (nF) while running a tight loop of
/// instructions of that class.
///
/// The absolute values are calibrated so that the derived throttling
/// periods land in the paper's measured ranges:
/// AVX2 (`256b Heavy`) at 3 GHz / ~1 V / 1.6 mΩ gives ΔV ≈ 30 mV and a
/// 12–15 µs TP on an MBVR platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CdynTable {
    nf: [f64; 7],
}

impl Default for CdynTable {
    fn default() -> Self {
        CdynTable {
            // Indexed by InstClass::intensity_rank():
            //   64b, 128bL, 128bH, 256bL, 256bH, 512bL, 512bH
            nf: [1.2, 2.6, 3.8, 5.2, 7.4, 9.8, 14.0],
        }
    }
}

impl CdynTable {
    /// Builds a table from per-class capacitances (nF), indexed by
    /// [`InstClass::intensity_rank`].
    ///
    /// # Panics
    ///
    /// Panics if values are not finite, negative, or not non-decreasing
    /// in intensity rank (higher intensity must not draw less).
    pub fn new(nf: [f64; 7]) -> Self {
        assert!(
            nf.iter().all(|c| c.is_finite() && *c >= 0.0),
            "invalid Cdyn values"
        );
        assert!(
            nf.windows(2).all(|w| w[1] >= w[0]),
            "Cdyn must be non-decreasing in intensity"
        );
        CdynTable { nf }
    }

    /// Dynamic capacitance (nF) of a core running `class` in a loop.
    pub fn cdyn_nf(&self, class: InstClass) -> f64 {
        self.nf[class.intensity_rank() as usize]
    }
}

/// Equation 1 of the paper: the guardband `ΔV` (mV) required when the
/// per-core dynamic capacitance rises from `cdyn1_nf` to `cdyn2_nf` at
/// supply voltage `vcc_mv` and core frequency `freq`, through load-line
/// impedance `rll_mohm`.
fn delta_v_mv(cdyn1_nf: f64, cdyn2_nf: f64, vcc_mv: f64, freq: Freq, rll_mohm: f64) -> f64 {
    // ΔIcc = ΔCdyn · Vcc · F  (nF · V · Hz → A when Cdyn in F)
    let delta_icc_a = (cdyn2_nf - cdyn1_nf) * 1e-9 * (vcc_mv * 1e-3) * freq.as_hz() as f64;
    // ΔV = ΔIcc · RLL (A · mΩ → mV)
    delta_icc_a * rll_mohm
}

/// The adaptive guardband model: maps the set of per-core executing
/// classes to the total guardband the VR output must carry above the
/// V/F-curve base voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardbandModel {
    cdyn: CdynTable,
    rll_mohm: f64,
}

impl GuardbandModel {
    /// Creates a guardband model.
    ///
    /// # Panics
    ///
    /// Panics if `rll_mohm` is negative or not finite.
    pub fn new(cdyn: CdynTable, rll_mohm: f64) -> Self {
        assert!(
            rll_mohm.is_finite() && rll_mohm >= 0.0,
            "invalid RLL: {rll_mohm}"
        );
        GuardbandModel { cdyn, rll_mohm }
    }

    /// Guardband contribution (mV) of a single core executing `class` at
    /// `vcc_mv` / `freq`, relative to the same core running scalar code.
    pub fn core_guardband_mv(&self, class: InstClass, vcc_mv: f64, freq: Freq) -> f64 {
        delta_v_mv(
            self.cdyn.cdyn_nf(InstClass::Scalar64),
            self.cdyn.cdyn_nf(class),
            vcc_mv,
            freq,
            self.rll_mohm,
        )
    }

    /// Fraction of a core's guardband that is *per-core* (di/dt
    /// emergency margin, additive across PHI cores — the Figure 6(a)
    /// voltage steps and the Figure 10(a) two-core TP exacerbation).
    /// The remaining `1 − PER_CORE_SHARE` is a *package-shared*
    /// component that follows the highest licensed class across all
    /// cores — this shared component is what lets a concurrent
    /// application's higher-level PHI shift the voltage under a covert
    /// channel and corrupt its symbols (Figure 14(b)).
    const PER_CORE_SHARE: f64 = 0.75;

    /// Total guardband (mV) above the base voltage for a package state:
    /// one entry per core giving the most intense class that core is
    /// licensed for (`None` ⇒ idle/scalar).
    ///
    /// `= PER_CORE_SHARE · Σ_c ΔV(class_c) + (1 − PER_CORE_SHARE) · ΔV(max_c class_c)`
    pub fn package_guardband_mv(
        &self,
        core_classes: &[Option<InstClass>],
        vcc_mv: f64,
        freq: Freq,
    ) -> f64 {
        self.package_guardband_iter_mv(core_classes.iter().copied(), vcc_mv, freq)
    }

    /// [`Self::package_guardband_mv`] over any class iterator, so hot
    /// callers (the PMU's per-event rail retargeting) need not build a
    /// slice. Single pass: the per-core sum and the shared max-class
    /// component are accumulated together, in iteration order, so the
    /// result is bit-identical to the slice form.
    pub fn package_guardband_iter_mv<I>(&self, core_classes: I, vcc_mv: f64, freq: Freq) -> f64
    where
        I: IntoIterator<Item = Option<InstClass>>,
    {
        let mut per_core = 0.0f64;
        let mut max_class: Option<InstClass> = None;
        for class in core_classes.into_iter().flatten() {
            per_core += self.core_guardband_mv(class, vcc_mv, freq);
            max_class = Some(max_class.map_or(class, |m| m.max(class)));
        }
        let shared = self.core_guardband_mv(max_class.unwrap_or(InstClass::Scalar64), vcc_mv, freq);
        Self::PER_CORE_SHARE * per_core + (1.0 - Self::PER_CORE_SHARE) * shared
    }

    /// The guardband (mV) of the worst-case power virus: all `n_cores`
    /// executing the most intense class. This is the level the paper's
    /// proposed *secure-mode* mitigation (§7) pins the system at.
    pub fn secure_mode_guardband_mv(&self, n_cores: usize, vcc_mv: f64, freq: Freq) -> f64 {
        let classes = std::iter::repeat_n(Some(InstClass::Heavy512), n_cores);
        self.package_guardband_iter_mv(classes, vcc_mv, freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> GuardbandModel {
        GuardbandModel::new(CdynTable::default(), 1.9)
    }

    #[test]
    fn equation1_dimensional_check() {
        // ΔCdyn = 5 nF at 1 V, 2 GHz: ΔIcc = 5e-9 * 1 * 2e9 = 10 A;
        // through 2 mΩ: ΔV = 20 mV.
        let dv = delta_v_mv(0.0, 5.0, 1000.0, Freq::from_ghz(2.0), 2.0);
        assert!((dv - 20.0).abs() < 1e-9, "dv = {dv}");
    }

    #[test]
    fn guardband_increases_with_intensity() {
        let m = model();
        let f = Freq::from_ghz(1.4);
        let mut last = -1.0;
        for class in InstClass::ALL {
            let gb = m.core_guardband_mv(class, 760.0, f);
            assert!(gb >= last, "class {class}: {gb} < {last}");
            last = gb;
        }
        assert_eq!(m.core_guardband_mv(InstClass::Scalar64, 760.0, f), 0.0);
    }

    #[test]
    fn guardband_scales_with_frequency() {
        // Equation 1: ΔV ∝ F. Figure 10(a): TP grows with frequency.
        let m = model();
        let g1 = m.core_guardband_mv(InstClass::Heavy256, 760.0, Freq::from_ghz(1.0));
        let g14 = m.core_guardband_mv(InstClass::Heavy256, 760.0, Freq::from_ghz(1.4));
        assert!((g14 / g1 - 1.4).abs() < 1e-9);
    }

    #[test]
    fn package_guardband_grows_per_core_plus_shared() {
        let m = model();
        let f = Freq::from_ghz(2.0);
        let gb = m.core_guardband_mv(InstClass::Heavy256, 850.0, f);
        let one = m.package_guardband_mv(&[Some(InstClass::Heavy256), None], 850.0, f);
        let two = m.package_guardband_mv(
            &[Some(InstClass::Heavy256), Some(InstClass::Heavy256)],
            850.0,
            f,
        );
        // One core: full guardband (per-core + shared components).
        assert!((one - gb).abs() < 1e-9);
        // Second identical core adds the per-core share only — the
        // Figure 10(a) exacerbation is ~1.75x, matching the paper's
        // measured 5 µs → 9 µs.
        let expected = gb * (1.0 + GuardbandModel::PER_CORE_SHARE);
        assert!((two - expected).abs() < 1e-9, "two = {two}");
    }

    #[test]
    fn shared_component_follows_max_class() {
        // A second core licensed *higher* raises the shared component —
        // the Figure 14(b) interference path.
        let m = model();
        let f = Freq::from_ghz(1.4);
        let with_low_app = m.package_guardband_mv(
            &[Some(InstClass::Heavy128), Some(InstClass::Light128)],
            760.0,
            f,
        );
        let with_high_app = m.package_guardband_mv(
            &[Some(InstClass::Heavy128), Some(InstClass::Heavy512)],
            760.0,
            f,
        );
        let shared_delta = (1.0 - GuardbandModel::PER_CORE_SHARE)
            * (m.core_guardband_mv(InstClass::Heavy512, 760.0, f)
                - m.core_guardband_mv(InstClass::Heavy128, 760.0, f));
        let per_core_delta = GuardbandModel::PER_CORE_SHARE
            * (m.core_guardband_mv(InstClass::Heavy512, 760.0, f)
                - m.core_guardband_mv(InstClass::Light128, 760.0, f));
        assert!((with_high_app - with_low_app - shared_delta - per_core_delta).abs() < 1e-9);
    }

    #[test]
    fn figure6a_step_sizes_are_plausible() {
        // Coffee Lake at 2 GHz: each core starting AVX2 should add a step
        // in the high-single-digit mV range (paper: ~8 mV, ~9 mV).
        let m = GuardbandModel::new(CdynTable::default(), 1.6);
        let step = m.core_guardband_mv(InstClass::Heavy256, 850.0, Freq::from_ghz(2.0));
        assert!((5.0..25.0).contains(&step), "step = {step} mV");
    }

    #[test]
    fn avx2_guardband_matches_calibration_target() {
        // Calibration target: AVX2 at 3 GHz / ~1 V / 1.6 mΩ → ΔV ≈ 30 mV.
        let m = GuardbandModel::new(CdynTable::default(), 1.6);
        let dv = m.core_guardband_mv(InstClass::Heavy256, 1000.0, Freq::from_ghz(3.0));
        assert!((25.0..36.0).contains(&dv), "dv = {dv} mV");
    }

    #[test]
    fn secure_mode_is_the_upper_bound() {
        let m = model();
        let f = Freq::from_ghz(2.2);
        let secure = m.secure_mode_guardband_mv(2, 900.0, f);
        let any = m.package_guardband_mv(
            &[Some(InstClass::Heavy256), Some(InstClass::Light512)],
            900.0,
            f,
        );
        assert!(secure >= any);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn cdyn_table_must_be_monotone() {
        let _ = CdynTable::new([1.0, 2.0, 1.5, 3.0, 4.0, 5.0, 6.0]);
    }

    proptest! {
        /// ΔV is monotone in the class intensity for any operating point.
        #[test]
        fn monotone_in_class(vcc in 600.0f64..1300.0, ghz in 0.8f64..5.0, rll in 1.0f64..3.0) {
            let m = GuardbandModel::new(CdynTable::default(), rll);
            let f = Freq::from_ghz(ghz);
            for w in InstClass::ALL.windows(2) {
                let lo = m.core_guardband_mv(w[0], vcc, f);
                let hi = m.core_guardband_mv(w[1], vcc, f);
                prop_assert!(hi >= lo);
            }
        }

        /// Equation 1 linearity: ΔV(c1→c3) = ΔV(c1→c2) + ΔV(c2→c3).
        #[test]
        fn delta_v_is_additive(
            c1 in 0.0f64..5.0, d1 in 0.0f64..5.0, d2 in 0.0f64..5.0,
            vcc in 600.0f64..1300.0, ghz in 0.8f64..5.0, rll in 1.0f64..3.0,
        ) {
            let f = Freq::from_ghz(ghz);
            let c2 = c1 + d1;
            let c3 = c2 + d2;
            let whole = delta_v_mv(c1, c3, vcc, f, rll);
            let parts = delta_v_mv(c1, c2, vcc, f, rll) + delta_v_mv(c2, c3, vcc, f, rll);
            prop_assert!((whole - parts).abs() < 1e-9);
        }
    }
}

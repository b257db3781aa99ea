//! Package supply-current model.
//!
//! Total `Icc` drawn from the core VR is modelled as the sum of
//!
//! * per-core **dynamic** current `Cdyn · Vcc · F · activity`,
//! * a **base** current for the always-on core-domain logic, and
//! * **leakage**, proportional to voltage with a mild temperature
//!   coefficient (paper §2: the minimum current is the leakage current
//!   once clocks are gated).

use crate::guardband::CdynTable;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::Freq;

/// Per-core execution state relevant to current draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreActivity {
    /// Class of instructions the core is executing.
    pub class: InstClass,
    /// Activity factor ∈ [0, 1]: fraction of peak switching for that
    /// class (1.0 = tight micro-benchmark loop / power virus).
    pub activity: f64,
    /// Whether the core's clocks are running at all.
    pub clocks_on: bool,
}

impl CoreActivity {
    /// An idle, clock-gated core (leakage only).
    pub const IDLE: CoreActivity = CoreActivity {
        class: InstClass::Scalar64,
        activity: 0.0,
        clocks_on: false,
    };

    /// A core running a tight loop of `class` instructions.
    pub fn busy(class: InstClass) -> Self {
        CoreActivity {
            class,
            activity: 1.0,
            clocks_on: true,
        }
    }

    /// A core running `class` at partial intensity (typical application).
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside [0, 1].
    #[inline]
    pub fn partial(class: InstClass, activity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0,1]: {activity}"
        );
        CoreActivity {
            class,
            activity,
            clocks_on: true,
        }
    }
}

/// Fraction of the worst-case (guardband-provisioning) dynamic
/// capacitance that a sustained loop actually toggles. Voltage
/// guardbands are provisioned for worst-case transients (Equation 1,
/// power-virus `Cdyn`); sustained current draw is roughly half of that
/// on real parts, which is what reconciles the paper's 12–15 µs
/// throttling periods with its ~30 A Figure 7(a) current measurements.
const SUSTAINED_UTILIZATION: f64 = 0.5;

/// The package current model.
///
/// # Examples
///
/// ```
/// use ichannels_pdn::current::{CurrentModel, CoreActivity};
/// use ichannels_pdn::guardband::CdynTable;
/// use ichannels_uarch::isa::InstClass;
/// use ichannels_uarch::time::Freq;
///
/// let m = CurrentModel::new(CdynTable::default(), 2.0, 1.5, 0.004);
/// let icc = m.icc_a(
///     &[CoreActivity::busy(InstClass::Heavy256)],
///     1120.0,
///     Freq::from_ghz(3.1),
///     60.0,
/// );
/// assert!(icc > 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentModel {
    cdyn: CdynTable,
    base_a: f64,
    leak_a_at_nominal: f64,
    leak_temp_coeff_per_c: f64,
}

impl CurrentModel {
    /// Nominal voltage for leakage normalization (mV).
    const NOMINAL_VCC_MV: f64 = 1000.0;
    /// Reference temperature for leakage normalization (°C).
    const NOMINAL_TEMP_C: f64 = 50.0;

    /// Creates a current model.
    ///
    /// * `base_a` — always-on core-domain current (A) while any clock runs.
    /// * `leak_a_at_nominal` — leakage at 1 V / 50 °C (A).
    /// * `leak_temp_coeff_per_c` — fractional leakage increase per °C.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite parameters.
    pub fn new(
        cdyn: CdynTable,
        base_a: f64,
        leak_a_at_nominal: f64,
        leak_temp_coeff_per_c: f64,
    ) -> Self {
        for (name, v) in [
            ("base_a", base_a),
            ("leak_a_at_nominal", leak_a_at_nominal),
            ("leak_temp_coeff_per_c", leak_temp_coeff_per_c),
        ] {
            assert!(v.is_finite() && v >= 0.0, "invalid {name}: {v}");
        }
        CurrentModel {
            cdyn,
            base_a,
            leak_a_at_nominal,
            leak_temp_coeff_per_c,
        }
    }

    /// Leakage current (A) at the given voltage/temperature.
    #[inline]
    pub fn leakage_a(&self, vcc_mv: f64, temp_c: f64) -> f64 {
        let v_scale = vcc_mv / Self::NOMINAL_VCC_MV;
        let t_scale = 1.0 + self.leak_temp_coeff_per_c * (temp_c - Self::NOMINAL_TEMP_C);
        (self.leak_a_at_nominal * v_scale * t_scale).max(0.0)
    }

    /// Dynamic current (A) of a single core.
    #[inline]
    fn core_dynamic_a(&self, act: &CoreActivity, vcc_mv: f64, freq: Freq) -> f64 {
        if !act.clocks_on {
            return 0.0;
        }
        self.cdyn.cdyn_nf(act.class)
            * SUSTAINED_UTILIZATION
            * 1e-9
            * (vcc_mv * 1e-3)
            * freq.as_hz() as f64
            * act.activity
    }

    /// Total package current (A) for the given per-core activities.
    #[inline]
    pub fn icc_a(&self, cores: &[CoreActivity], vcc_mv: f64, freq: Freq, temp_c: f64) -> f64 {
        let dynamic: f64 = cores
            .iter()
            .map(|a| self.core_dynamic_a(a, vcc_mv, freq))
            .sum();
        let base = if cores.iter().any(|a| a.clocks_on) {
            self.base_a
        } else {
            0.0
        };
        dynamic + base + self.leakage_a(vcc_mv, temp_c)
    }

    /// Package power (W) at the operating point.
    #[inline]
    pub fn power_w(&self, cores: &[CoreActivity], vcc_mv: f64, freq: Freq, temp_c: f64) -> f64 {
        self.icc_a(cores, vcc_mv, freq, temp_c) * vcc_mv * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> CurrentModel {
        CurrentModel::new(CdynTable::default(), 2.0, 1.5, 0.004)
    }

    #[test]
    fn idle_package_draws_only_leakage() {
        let m = model();
        let icc = m.icc_a(
            &[CoreActivity::IDLE, CoreActivity::IDLE],
            800.0,
            Freq::from_ghz(2.0),
            50.0,
        );
        assert!((icc - m.leakage_a(800.0, 50.0)).abs() < 1e-12);
    }

    #[test]
    fn avx2_draws_more_than_scalar() {
        let m = model();
        let f = Freq::from_ghz(3.1);
        let scalar = m.icc_a(&[CoreActivity::busy(InstClass::Scalar64)], 1120.0, f, 60.0);
        let avx2 = m.icc_a(&[CoreActivity::busy(InstClass::Heavy256)], 1120.0, f, 60.0);
        assert!(avx2 > scalar * 1.5, "scalar={scalar} avx2={avx2}");
    }

    #[test]
    fn mobile_iccmax_scenario() {
        // Figure 7(a): two Cannon Lake cores running AVX2 at 3.1 GHz must
        // exceed Iccmax = 29 A; at 2.2 GHz they must not.
        let m = model();
        let both = [
            CoreActivity::busy(InstClass::Heavy256),
            CoreActivity::busy(InstClass::Heavy256),
        ];
        let at_31 = m.icc_a(&both, 1120.0, Freq::from_ghz(3.1), 60.0);
        let at_22 = m.icc_a(&both, 900.0, Freq::from_ghz(2.2), 60.0);
        assert!(at_31 > 29.0, "icc@3.1GHz = {at_31}");
        assert!(at_22 < 29.0, "icc@2.2GHz = {at_22}");
    }

    #[test]
    fn leakage_grows_with_temp_and_voltage() {
        let m = model();
        assert!(m.leakage_a(1000.0, 90.0) > m.leakage_a(1000.0, 50.0));
        assert!(m.leakage_a(1200.0, 50.0) > m.leakage_a(1000.0, 50.0));
    }

    #[test]
    fn power_is_v_times_i() {
        let m = model();
        let cores = [CoreActivity::busy(InstClass::Heavy256)];
        let f = Freq::from_ghz(2.0);
        let p = m.power_w(&cores, 900.0, f, 55.0);
        let i = m.icc_a(&cores, 900.0, f, 55.0);
        assert!((p - i * 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "activity must be in")]
    fn partial_activity_validated() {
        let _ = CoreActivity::partial(InstClass::Scalar64, 1.5);
    }

    proptest! {
        /// Icc is monotone in activity factor.
        #[test]
        fn monotone_in_activity(a1 in 0.0f64..1.0, d in 0.001f64..0.5) {
            let m = model();
            let a2 = (a1 + d).min(1.0);
            let f = Freq::from_ghz(2.0);
            let i1 = m.icc_a(&[CoreActivity::partial(InstClass::Heavy256, a1)], 900.0, f, 50.0);
            let i2 = m.icc_a(&[CoreActivity::partial(InstClass::Heavy256, a2)], 900.0, f, 50.0);
            prop_assert!(i2 >= i1);
        }

        /// Icc never falls as the temperature rises, down to the next
        /// representable temperature: leakage is linear in temperature
        /// with a non-negative coefficient, and every IEEE-754 step on
        /// that path is weakly monotone. The SoC's limit-search verdicts
        /// rely on this to hold a pass at Tjmax for every cooler die.
        #[test]
        fn monotone_in_temperature(
            classes in proptest::collection::vec(0usize..7, 0..6),
            activity in 0.0f64..1.0,
            vcc in 500.0f64..1500.0,
            ghz in 0.4f64..5.5,
            coeff in 0.0f64..0.05,
            t1 in -60.0f64..160.0,
            dt in 0.0f64..80.0,
        ) {
            let m = CurrentModel::new(CdynTable::default(), 2.0, 1.5, coeff);
            let cores: Vec<CoreActivity> = classes
                .iter()
                .enumerate()
                .map(|(i, &c)| match i % 3 {
                    0 => CoreActivity::IDLE,
                    1 => CoreActivity::busy(InstClass::ALL[c]),
                    _ => CoreActivity::partial(InstClass::ALL[c], activity),
                })
                .collect();
            let f = Freq::from_ghz(ghz);
            let ulp_up = f64::from_bits(t1.to_bits().wrapping_add(if t1 >= 0.0 { 1 } else { u64::MAX }));
            for t2 in [t1 + dt, ulp_up.max(t1), t1] {
                prop_assert!(m.icc_a(&cores, vcc, f, t1) <= m.icc_a(&cores, vcc, f, t2));
            }
        }

        /// Icc is monotone in frequency and voltage.
        #[test]
        fn monotone_in_freq(g1 in 0.8f64..4.0, d in 0.05f64..1.0) {
            let m = model();
            let cores = [CoreActivity::busy(InstClass::Heavy256)];
            let i1 = m.icc_a(&cores, 900.0, Freq::from_ghz(g1), 50.0);
            let i2 = m.icc_a(&cores, 900.0, Freq::from_ghz(g1 + d), 50.0);
            prop_assert!(i2 > i1);
        }
    }
}

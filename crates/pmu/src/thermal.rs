//! First-order RC thermal model of the core junction.
//!
//! The paper uses temperature to *refute* TurboCC's hypothesis: the
//! frequency reduction after PHI execution happens while "the junction
//! temperature (between 58 °C and 62 °C) is much lower than the maximum
//! allowed junction temperature, Tjmax (100 °C)" (Figure 7(b)), and
//! thermal mechanisms "typically take tens of milliseconds to tens of
//! seconds to develop". A single-pole RC model captures exactly that
//! separation of time scales.

use ichannels_uarch::time::SimTime;

/// A first-order (single RC pole) junction thermal model.
///
/// Steady state: `T = T_ambient + R_th · P`. The temperature relaxes
/// toward steady state with time constant `τ = R_th · C_th`.
///
/// # Examples
///
/// ```
/// use ichannels_pmu::thermal::ThermalModel;
/// use ichannels_uarch::time::SimTime;
///
/// let mut th = ThermalModel::client_default();
/// // 25 W sustained for 2 s heats the die noticeably but slowly.
/// th.advance(25.0, SimTime::from_secs(2.0));
/// assert!(th.temp_c() > 40.0 && th.temp_c() < 100.0); // well below Tjmax
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThermalModel {
    temp_c: f64,
    ambient_c: f64,
    r_th_c_per_w: f64,
    tau: SimTime,
    tjmax_c: f64,
    /// One-entry memo for the relaxation factor `exp(-dt/τ)`:
    /// event-driven stepping repeats the same `dt` constantly, and `exp`
    /// over identical bits is deterministic, so replaying the cached
    /// factor is exact. Never observable — excluded from equality.
    alpha_memo: (SimTime, f64),
}

/// Equality over the physical state only; the `alpha_memo` cache is an
/// internal accelerator and two models that differ only in it are the
/// same model.
impl PartialEq for ThermalModel {
    fn eq(&self, other: &Self) -> bool {
        self.temp_c == other.temp_c
            && self.ambient_c == other.ambient_c
            && self.r_th_c_per_w == other.r_th_c_per_w
            && self.tau == other.tau
            && self.tjmax_c == other.tjmax_c
    }
}

impl ThermalModel {
    /// Typical client-SoC parameters: 40 °C local ambient, 1.6 °C/W to
    /// ambient, ~3 s time constant, Tjmax = 100 °C.
    pub fn client_default() -> Self {
        ThermalModel::new(40.0, 1.6, SimTime::from_secs(3.0), 100.0)
    }

    /// Creates a thermal model at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics on non-finite parameters, non-positive `r_th` or `tjmax`,
    /// or a zero time constant.
    pub fn new(ambient_c: f64, r_th_c_per_w: f64, tau: SimTime, tjmax_c: f64) -> Self {
        assert!(ambient_c.is_finite(), "invalid ambient: {ambient_c}");
        assert!(
            r_th_c_per_w.is_finite() && r_th_c_per_w > 0.0,
            "invalid thermal resistance: {r_th_c_per_w}"
        );
        assert!(!tau.is_zero(), "thermal time constant must be non-zero");
        assert!(
            tjmax_c.is_finite() && tjmax_c > ambient_c,
            "invalid Tjmax: {tjmax_c}"
        );
        ThermalModel {
            temp_c: ambient_c,
            ambient_c,
            r_th_c_per_w,
            tau,
            tjmax_c,
            alpha_memo: (SimTime::MAX, 0.0),
        }
    }

    /// Current junction temperature (°C).
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Steady-state temperature under sustained power `p_w`.
    fn steady_state_c(&self, p_w: f64) -> f64 {
        self.ambient_c + self.r_th_c_per_w * p_w
    }

    /// Advances the model by `dt` with constant dissipated power `p_w`.
    pub fn advance(&mut self, p_w: f64, dt: SimTime) {
        let target = self.steady_state_c(p_w);
        let alpha = if self.alpha_memo.0 == dt {
            self.alpha_memo.1
        } else {
            let a = (-(dt / self.tau)).exp();
            self.alpha_memo = (dt, a);
            a
        };
        self.temp_c = target + (self.temp_c - target) * alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxes_to_steady_state() {
        let mut th = ThermalModel::client_default();
        for _ in 0..100 {
            th.advance(20.0, SimTime::from_secs(1.0));
        }
        let ss = th.steady_state_c(20.0);
        assert!((th.temp_c() - ss).abs() < 0.1, "T = {}", th.temp_c());
    }

    #[test]
    fn microsecond_phi_bursts_do_not_move_temperature() {
        // Key Conclusion 2 relies on this separation of time scales: a
        // tens-of-µs throttling event cannot be thermal.
        let mut th = ThermalModel::client_default();
        th.advance(15.0, SimTime::from_secs(10.0)); // warm up
        let before = th.temp_c();
        th.advance(35.0, SimTime::from_us(40.0)); // one PHI transaction
        assert!((th.temp_c() - before).abs() < 0.01);
    }

    #[test]
    fn figure7b_temperature_band() {
        // Mobile part at ~12-14 W: temperature settles around 58–62 °C,
        // far below Tjmax (Figure 7(b)).
        let mut th = ThermalModel::client_default();
        for _ in 0..30 {
            th.advance(12.5, SimTime::from_secs(1.0));
        }
        assert!(
            th.temp_c() > 55.0 && th.temp_c() < 65.0,
            "T = {}",
            th.temp_c()
        );
    }

    #[test]
    fn cooling_works() {
        let mut th = ThermalModel::client_default();
        th.advance(30.0, SimTime::from_secs(30.0));
        let hot = th.temp_c();
        th.advance(0.0, SimTime::from_secs(30.0));
        assert!(th.temp_c() < hot);
        assert!(th.temp_c() > 39.9);
    }
}

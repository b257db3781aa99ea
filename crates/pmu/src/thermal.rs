//! First-order RC thermal model of the core junction.
//!
//! The paper uses temperature to *refute* TurboCC's hypothesis: the
//! frequency reduction after PHI execution happens while "the junction
//! temperature (between 58 °C and 62 °C) is much lower than the maximum
//! allowed junction temperature, Tjmax (100 °C)" (Figure 7(b)), and
//! thermal mechanisms "typically take tens of milliseconds to tens of
//! seconds to develop". A single-pole RC model captures exactly that
//! separation of time scales.

use crate::memo::ExactMemo;
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    temp_c: f64,
    ambient_c: f64,
    r_th_c_per_w: f64,
    tau: SimTime,
    tjmax_c: f64,
}

/// The relaxation factor `exp(-dt/τ)` of one step of length `dt`.
fn relaxation(dt: SimTime, tau: SimTime) -> f64 {
    (-(dt / tau)).exp()
}

/// Slots of a [`RelaxationTable`].
const RELAXATION_SLOTS: usize = 256;

/// A memo of the relaxation factor `exp(-dt/τ)` for one time constant
/// `τ`, keyed by the step length `dt`.
///
/// Event-driven stepping repeats a small set of step lengths (slot
/// periods, ramp and settle latencies), and `exp` over identical bits
/// is deterministic, so a stored factor is exactly the one a fresh
/// `exp` would return. Every slot starts as `dt = 0` with factor
/// `exp(-0) = 1`, the true factor of that key. It carries no model
/// state: one table can serve every run of models sharing `τ`.
#[derive(Debug, Clone)]
pub struct RelaxationTable {
    tau: SimTime,
    memo: ExactMemo<SimTime, f64, RELAXATION_SLOTS>,
}

impl RelaxationTable {
    /// The factor for a step of `dt`, computing and storing it on a miss.
    #[inline]
    fn factor(&mut self, dt: SimTime) -> f64 {
        let tau = self.tau;
        self.memo.get_or_insert_with(dt, || relaxation(dt, tau))
    }

    /// How many [`ThermalModel::advance_memo`] calls since creation or
    /// the last [`Self::clear_misses`] computed `exp` instead of reading
    /// a stored factor.
    pub fn misses(&self) -> u64 {
        self.memo.misses()
    }

    /// Zeroes the miss count, keeping the stored factors.
    pub fn clear_misses(&mut self) {
        self.memo.clear_misses();
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
        }
    }

    /// An empty relaxation-factor memo for this model's time constant.
    pub fn relaxation_table(&self) -> RelaxationTable {
        RelaxationTable {
            tau: self.tau,
            memo: ExactMemo::new(SimTime::ZERO, relaxation(SimTime::ZERO, self.tau)),
        }
    }

    /// Current junction temperature (°C).
    #[inline]
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// The maximum allowed junction temperature, Tjmax (°C).
    #[inline]
    pub fn tjmax_c(&self) -> f64 {
        self.tjmax_c
    }

    /// Steady-state temperature under sustained power `p_w`.
    fn steady_state_c(&self, p_w: f64) -> f64 {
        self.ambient_c + self.r_th_c_per_w * p_w
    }

    /// Advances the model by `dt` with constant dissipated power `p_w`.
    pub fn advance(&mut self, p_w: f64, dt: SimTime) {
        self.relax(p_w, relaxation(dt, self.tau));
    }

    /// [`Self::advance`], reading the relaxation factor from `memo`
    /// (built by [`Self::relaxation_table`] for the same time constant).
    /// Bit-identical to `advance`.
    #[inline]
    pub fn advance_memo(&mut self, p_w: f64, dt: SimTime, memo: &mut RelaxationTable) {
        debug_assert_eq!(memo.tau, self.tau, "relaxation table of another τ");
        let alpha = memo.factor(dt);
        self.relax(p_w, alpha);
    }

    /// Relaxes the temperature toward the steady state under `p_w` by
    /// the factor `alpha`.
    #[inline]
    fn relax(&mut self, p_w: f64, alpha: f64) {
        let target = self.steady_state_c(p_w);
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

    /// Advancing through the table gives the same temperature, bit for
    /// bit, as calling `exp` every step: on repeats, on colliding step
    /// lengths that evict each other, and on the `dt = 0` key every slot
    /// starts with.
    #[test]
    fn relaxation_table_advances_bit_for_bit() {
        assert_eq!(relaxation(SimTime::ZERO, SimTime::from_secs(3.0)), 1.0);
        let mut plain = ThermalModel::client_default();
        let mut memo = plain;
        let mut table = memo.relaxation_table();
        let mut x: u64 = 0xC0FF_EE00_D15E_A5E5;
        for i in 0..50_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let dt = match i % 4 {
                0 => SimTime::ZERO,
                1 => SimTime::from_ps((x >> 33) % 40 * 1_000_000),
                2 => SimTime::from_ps(x >> 24),
                _ => SimTime::from_us(40.0),
            };
            let p_w = 5.0 + (x >> 60) as f64;
            plain.advance(p_w, dt);
            memo.advance_memo(p_w, dt, &mut table);
            assert_eq!(
                plain.temp_c().to_bits(),
                memo.temp_c().to_bits(),
                "step {i}"
            );
        }
        let misses = table.misses();
        assert!(misses > 0 && misses < 25_000, "{misses} misses");
        table.clear_misses();
        assert_eq!(table.misses(), 0);
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

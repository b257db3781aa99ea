//! Voltage/frequency operating curves.
//!
//! Paper §5.3, observation 2: "the voltage is set to a level
//! corresponding to the new frequency based on the voltage/frequency
//! curves". Each platform ships a fused V/F curve; the PMU looks up the
//! base operating voltage for a target frequency and then adds the
//! adaptive guardband on top.

use ichannels_uarch::time::Freq;

/// A piecewise-linear voltage/frequency curve.
///
/// Points must be strictly increasing in frequency and non-decreasing in
/// voltage. Lookups interpolate linearly and clamp at the endpoints.
///
/// # Examples
///
/// ```
/// use ichannels_pdn::vf_curve::VfCurve;
/// use ichannels_uarch::time::Freq;
///
/// let curve = VfCurve::new(vec![
///     (Freq::from_ghz(1.0), 700.0),
///     (Freq::from_ghz(2.0), 850.0),
/// ]).unwrap();
/// assert!((curve.voltage_mv(Freq::from_ghz(1.5)) - 775.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    points: Vec<(Freq, f64)>,
}

/// Error constructing a [`VfCurve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfCurveError {
    /// The curve needs at least two points.
    TooFewPoints,
    /// Frequencies must be strictly increasing.
    NonMonotonicFrequency,
    /// Voltages must be non-decreasing with frequency.
    DecreasingVoltage,
    /// A voltage value was negative or not finite.
    InvalidVoltage,
}

impl std::fmt::Display for VfCurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfCurveError::TooFewPoints => write!(f, "V/F curve needs at least two points"),
            VfCurveError::NonMonotonicFrequency => {
                write!(f, "V/F curve frequencies must be strictly increasing")
            }
            VfCurveError::DecreasingVoltage => {
                write!(f, "V/F curve voltages must be non-decreasing")
            }
            VfCurveError::InvalidVoltage => write!(f, "V/F curve voltage invalid"),
        }
    }
}

impl std::error::Error for VfCurveError {}

impl VfCurve {
    /// Builds a curve from `(frequency, voltage_mv)` points.
    ///
    /// # Errors
    ///
    /// Returns a [`VfCurveError`] if fewer than two points are given, the
    /// frequencies are not strictly increasing, voltages decrease, or a
    /// voltage is invalid.
    pub fn new(points: Vec<(Freq, f64)>) -> Result<Self, VfCurveError> {
        if points.len() < 2 {
            return Err(VfCurveError::TooFewPoints);
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(VfCurveError::NonMonotonicFrequency);
            }
            if w[1].1 < w[0].1 {
                return Err(VfCurveError::DecreasingVoltage);
            }
        }
        if points.iter().any(|(_, v)| !v.is_finite() || *v < 0.0) {
            return Err(VfCurveError::InvalidVoltage);
        }
        Ok(VfCurve { points })
    }

    /// Highest frequency on the curve.
    pub fn max_freq(&self) -> Freq {
        self.points[self.points.len() - 1].0
    }

    /// Operating voltage (mV) for `freq`, linearly interpolated and
    /// clamped at the curve endpoints.
    #[inline]
    pub fn voltage_mv(&self, freq: Freq) -> f64 {
        let pts = &self.points;
        if freq <= pts[0].0 {
            return pts[0].1;
        }
        if freq >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // `pts[0] < freq < pts[last]` on a frequency-sorted curve, so
        // the first point at or above `freq` has a predecessor.
        let i = pts
            .iter()
            .position(|&(f, _)| freq <= f)
            .unwrap_or(pts.len() - 1);
        let ((f0, v0), (f1, v1)) = (pts[i - 1], pts[i]);
        let t = (freq.as_hz() - f0.as_hz()) as f64 / (f1.as_hz() - f0.as_hz()) as f64;
        v0 + t * (v1 - v0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn curve() -> VfCurve {
        VfCurve::new(vec![
            (Freq::from_ghz(0.8), 650.0),
            (Freq::from_ghz(1.4), 760.0),
            (Freq::from_ghz(2.2), 900.0),
            (Freq::from_ghz(3.1), 1120.0),
        ])
        .unwrap()
    }

    #[test]
    fn interpolation_at_knots() {
        let c = curve();
        assert_eq!(c.voltage_mv(Freq::from_ghz(1.4)), 760.0);
        assert_eq!(c.voltage_mv(Freq::from_ghz(3.1)), 1120.0);
    }

    #[test]
    fn interpolation_between_knots() {
        let c = curve();
        let v = c.voltage_mv(Freq::from_ghz(1.8));
        assert!((v - 830.0).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn clamps_outside_range() {
        let c = curve();
        assert_eq!(c.voltage_mv(Freq::from_ghz(0.4)), 650.0);
        assert_eq!(c.voltage_mv(Freq::from_ghz(5.0)), 1120.0);
    }

    #[test]
    fn rejects_bad_curves() {
        assert_eq!(
            VfCurve::new(vec![(Freq::from_ghz(1.0), 700.0)]).unwrap_err(),
            VfCurveError::TooFewPoints
        );
        assert_eq!(
            VfCurve::new(vec![
                (Freq::from_ghz(2.0), 700.0),
                (Freq::from_ghz(1.0), 800.0)
            ])
            .unwrap_err(),
            VfCurveError::NonMonotonicFrequency
        );
        assert_eq!(
            VfCurve::new(vec![
                (Freq::from_ghz(1.0), 800.0),
                (Freq::from_ghz(2.0), 700.0)
            ])
            .unwrap_err(),
            VfCurveError::DecreasingVoltage
        );
    }

    proptest! {
        /// Voltage lookups are monotone non-decreasing in frequency.
        #[test]
        fn monotone_lookup(f1 in 0.5f64..4.0, f2 in 0.5f64..4.0) {
            let c = curve();
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let v_lo = c.voltage_mv(Freq::from_ghz(lo));
            let v_hi = c.voltage_mv(Freq::from_ghz(hi));
            prop_assert!(v_lo <= v_hi + 1e-9);
        }

        /// Interpolated values stay within the curve's voltage envelope.
        #[test]
        fn bounded_lookup(f in 0.0f64..6.0) {
            let c = curve();
            let v = c.voltage_mv(Freq::from_ghz(f));
            prop_assert!((650.0..=1120.0).contains(&v));
        }
    }
}

//! Time-series analysis for the characterization traces: automatic step
//! detection (used to quantify the Figure 6 voltage steps without
//! eyeballing plots).

/// A uniformly or non-uniformly sampled `(t_seconds, value)` series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

/// A detected step change in a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Time of the step (s).
    pub time_s: f64,
    /// Level before the step.
    pub before: f64,
    /// Level after the step.
    pub after: f64,
}

impl Step {
    /// Signed step amplitude.
    pub fn amplitude(&self) -> f64 {
        self.after - self.before
    }
}

impl Series {
    /// Creates a series from `(t, v)` points.
    ///
    /// # Panics
    ///
    /// Panics if the timestamps are not strictly increasing or any value
    /// is not finite.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(
            points.windows(2).all(|w| w[1].0 > w[0].0),
            "series timestamps must be strictly increasing"
        );
        assert!(
            points.iter().all(|(t, v)| t.is_finite() && v.is_finite()),
            "non-finite series point"
        );
        Series { points }
    }

    /// The points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Detects level steps: positions where the mean of the next `w`
    /// samples differs from the mean of the previous `w` samples by more
    /// than `threshold`. Consecutive detections within `w` samples merge
    /// into one step.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn detect_steps(&self, w: usize, threshold: f64) -> Vec<Step> {
        assert!(w > 0, "window must be non-zero");
        let n = self.points.len();
        let mut steps = Vec::new();
        if n < 2 * w {
            return steps;
        }
        let mean = |range: std::ops::Range<usize>| -> f64 {
            let len = range.len();
            self.points[range].iter().map(|(_, v)| v).sum::<f64>() / len as f64
        };
        let mut i = w;
        while i + w <= n {
            let before = mean(i - w..i);
            let after = mean(i..i + w);
            if (after - before).abs() > threshold {
                // Refine: slide forward to the point of maximum contrast,
                // so the reported levels are the settled plateaus rather
                // than partial-window mixtures.
                let mut best = i;
                let mut best_diff = (after - before).abs();
                let mut j = i + 1;
                while j + w <= n && j <= i + 2 * w {
                    let d = (mean(j..j + w) - mean(j - w..j)).abs();
                    if d > best_diff {
                        best_diff = d;
                        best = j;
                    }
                    j += 1;
                }
                steps.push(Step {
                    time_s: self.points[best].0,
                    before: mean(best - w..best),
                    after: mean(best..best + w),
                });
                i = best + 2 * w; // skip past this transition entirely
            } else {
                i += 1;
            }
        }
        steps
    }
}

impl FromIterator<(f64, f64)> for Series {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        Series::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> Series {
        // 0 mV for 100 samples, then 8 mV, then 17 mV, back to 0.
        let mut pts = Vec::new();
        for i in 0..400 {
            let v = match i {
                0..=99 => 0.0,
                100..=199 => 8.0,
                200..=299 => 17.0,
                _ => 0.0,
            };
            pts.push((i as f64 * 1e-3, v));
        }
        Series::new(pts)
    }

    #[test]
    fn detects_figure6_style_steps() {
        let s = staircase();
        let steps = s.detect_steps(20, 2.0);
        assert_eq!(steps.len(), 3, "steps = {steps:?}");
        assert!((steps[0].amplitude() - 8.0).abs() < 0.5);
        assert!((steps[1].amplitude() - 9.0).abs() < 0.5);
        assert!((steps[2].amplitude() + 17.0).abs() < 0.5);
    }

    #[test]
    fn no_steps_in_flat_series() {
        let s: Series = (0..100).map(|i| (i as f64, 5.0)).collect();
        assert!(s.detect_steps(10, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unordered_points() {
        let _ = Series::new(vec![(1.0, 0.0), (0.5, 0.0)]);
    }
}

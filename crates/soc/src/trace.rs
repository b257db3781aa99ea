//! Time-series tracing of the simulated SoC.
//!
//! The trace plays the role of the paper's NI-DAQ measurement
//! infrastructure (§5.1): a uniform-rate record of package voltage,
//! current, frequency, temperature, and per-core throttle state, from
//! which the characterization figures are regenerated.

use ichannels_uarch::time::{Freq, SimTime};

/// One trace sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample instant.
    pub time: SimTime,
    /// Package (rail 0) voltage, mV.
    pub vcc_mv: f64,
    /// Package current, A.
    pub icc_a: f64,
    /// Core clock frequency.
    pub freq: Freq,
    /// Junction temperature, °C.
    pub temp_c: f64,
    /// Per-core: is the core currently throttled?
    pub throttled: Vec<bool>,
    /// Per-core: effective instantaneous IPC summed over its hardware
    /// threads (0 when idle).
    pub core_ipc: Vec<f64>,
}

/// A recorded simulation trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    samples: Vec<Sample>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a sample (monotonically increasing time enforced).
    ///
    /// # Panics
    ///
    /// Panics if `sample.time` precedes the last recorded sample.
    pub fn push(&mut self, sample: Sample) {
        if let Some(last) = self.samples.last() {
            assert!(
                sample.time >= last.time,
                "trace samples must be time-ordered"
            );
        }
        self.samples.push(sample);
    }

    /// All samples, time-ordered.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Discards all samples, retaining the storage allocation (used
    /// when a simulator is re-armed for another run).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Voltage series as `(seconds, mV)` pairs.
    pub fn vcc_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.time.as_secs(), s.vcc_mv))
            .collect()
    }

    /// Frequency series as `(seconds, GHz)` pairs.
    pub fn freq_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.time.as_secs(), s.freq.as_ghz()))
            .collect()
    }

    /// Maximum recorded voltage (mV); `None` if the trace is empty.
    pub fn vcc_max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.vcc_mv)
            .max_by(|a, b| a.total_cmp(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(us: f64, vcc: f64) -> Sample {
        Sample {
            time: SimTime::from_us(us),
            vcc_mv: vcc,
            icc_a: 1.0,
            freq: Freq::from_ghz(2.0),
            temp_c: 50.0,
            throttled: vec![false, false],
            core_ipc: vec![0.0, 0.0],
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new();
        t.push(sample(0.0, 780.0));
        t.push(sample(1.0, 790.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.vcc_max(), Some(790.0));
        assert_eq!(t.vcc_series()[1].1, 790.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut t = Trace::new();
        t.push(sample(2.0, 780.0));
        t.push(sample(1.0, 780.0));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.vcc_max(), None);
    }
}

//! Phase spans: RAII guards that time a code region with the wall
//! clock and record the elapsed nanoseconds into a global histogram
//! when dropped.

use std::time::Instant;

/// An RAII phase timer. Created armed via [`Span::start`] (or through
/// [`crate::span()`], which returns a disarmed no-op guard while
/// telemetry is off); on drop, records the elapsed wall-clock
/// nanoseconds into the global histogram named at construction.
///
/// ```
/// ichannels_obs::set_enabled(true);
/// {
///     let _span = ichannels_obs::span("span.doc.example");
///     // ... timed region ...
/// }
/// ichannels_obs::set_enabled(false);
/// let snap = ichannels_obs::global().snapshot();
/// assert_eq!(snap.histogram("span.doc.example").count, 1);
/// ```
#[derive(Debug)]
pub struct Span {
    armed: Option<(&'static str, Instant)>,
}

impl Span {
    /// Starts an armed span recording into histogram `name` on drop.
    pub fn start(name: &'static str) -> Self {
        Span {
            armed: Some((name, Instant::now())),
        }
    }

    /// A no-op guard: drop records nothing.
    pub fn disarmed() -> Self {
        Span { armed: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, started)) = self.armed.take() {
            let elapsed = started.elapsed().as_nanos();
            let ns = u64::try_from(elapsed).unwrap_or(u64::MAX);
            crate::global().observe(name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_span_records_elapsed_nanoseconds() {
        {
            let _span = Span::start("span.test.armed");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = crate::global().snapshot();
        let hist = snap.histogram("span.test.armed");
        assert_eq!(hist.count, 1);
        assert!(hist.sum >= 1_000_000, "slept ≥1ms, recorded {}ns", hist.sum);
    }

    #[test]
    fn disarmed_span_records_nothing() {
        {
            let _span = Span::disarmed();
        }
        let snap = crate::global().snapshot();
        assert!(!snap.histograms.contains_key("span.test.disarmed"));
    }
}

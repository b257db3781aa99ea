//! OS noise injection: interrupts and context switches.
//!
//! §6.3 of the paper analyzes channel accuracy under "system activity,
//! such as interrupts and context switches, which can extend the
//! execution time measured by the Receiver, causing errors in decoding".
//! It cites interrupt latencies "within few microseconds" and
//! context-switch latencies of "few tens of microseconds", at rates from
//! a few hundred to thousands of events per second.
//!
//! Noise events arrive as independent Poisson processes per hardware
//! thread; an event pauses the *currently running* program for its
//! service time (the TSC keeps counting — that is exactly the measured
//! inflation).

use ichannels_uarch::time::SimTime;
use rand::Rng;

/// Rates and service times for OS noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Interrupt arrival rate per hardware thread (events/s).
    pub interrupt_rate_hz: f64,
    /// Interrupt service time (paper: a few µs).
    pub interrupt_service: SimTime,
    /// Context-switch arrival rate per hardware thread (events/s).
    pub ctx_switch_rate_hz: f64,
    /// Context-switch service time (paper: a few tens of µs).
    pub ctx_switch_service: SimTime,
}

impl NoiseConfig {
    /// No noise at all.
    pub fn quiet() -> Self {
        NoiseConfig {
            interrupt_rate_hz: 0.0,
            interrupt_service: SimTime::from_us(2.0),
            ctx_switch_rate_hz: 0.0,
            ctx_switch_service: SimTime::from_us(15.0),
        }
    }

    /// The paper's "relatively low noise" client system: interrupt and
    /// context-switch rates below 1000 events/s (§6.3).
    pub fn low() -> Self {
        NoiseConfig {
            interrupt_rate_hz: 300.0,
            interrupt_service: SimTime::from_us(2.0),
            ctx_switch_rate_hz: 100.0,
            ctx_switch_service: SimTime::from_us(15.0),
        }
    }

    /// A highly noisy system (thousands of events/s).
    pub fn high() -> Self {
        NoiseConfig {
            interrupt_rate_hz: 5_000.0,
            interrupt_service: SimTime::from_us(2.0),
            ctx_switch_rate_hz: 2_000.0,
            ctx_switch_service: SimTime::from_us(15.0),
        }
    }

    /// Only interrupts, at the given rate (Figure 14(a) sweeps).
    pub fn interrupts_only(rate_hz: f64) -> Self {
        let mut n = NoiseConfig::quiet();
        n.interrupt_rate_hz = rate_hz;
        n
    }

    /// Only context switches, at the given rate (Figure 14(a) sweeps).
    pub fn ctx_switches_only(rate_hz: f64) -> Self {
        let mut n = NoiseConfig::quiet();
        n.ctx_switch_rate_hz = rate_hz;
        n
    }
}

/// Kind of OS noise event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Device/timer interrupt.
    Interrupt,
    /// Scheduler context switch.
    ContextSwitch,
}

/// Samples the gap to the next Poisson arrival at `rate_hz`, or `None`
/// for a zero rate.
fn sample_gap<R: Rng + ?Sized>(rng: &mut R, rate_hz: f64) -> Option<SimTime> {
    if rate_hz <= 0.0 {
        return None;
    }
    // Inverse-CDF exponential sampling; clamp u away from 0.
    let u: f64 = rng.gen_range(1e-12..1.0);
    let gap_s = -u.ln() / rate_hz;
    Some(SimTime::from_secs(gap_s))
}

/// Per-hardware-thread noise arrival state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseArrivals {
    /// Next interrupt arrival (absolute), if interrupts are enabled.
    pub next_interrupt: Option<SimTime>,
    /// Next context-switch arrival (absolute), if enabled.
    pub next_ctx_switch: Option<SimTime>,
}

impl NoiseArrivals {
    /// Samples initial arrivals from `now`.
    pub fn init<R: Rng + ?Sized>(cfg: &NoiseConfig, rng: &mut R, now: SimTime) -> Self {
        NoiseArrivals {
            next_interrupt: sample_gap(rng, cfg.interrupt_rate_hz).map(|g| now + g),
            next_ctx_switch: sample_gap(rng, cfg.ctx_switch_rate_hz).map(|g| now + g),
        }
    }

    /// Earliest pending arrival, if any.
    pub fn next(&self) -> Option<(SimTime, NoiseKind)> {
        match (self.next_interrupt, self.next_ctx_switch) {
            (Some(i), Some(c)) => Some(if i <= c {
                (i, NoiseKind::Interrupt)
            } else {
                (c, NoiseKind::ContextSwitch)
            }),
            (Some(i), None) => Some((i, NoiseKind::Interrupt)),
            (None, Some(c)) => Some((c, NoiseKind::ContextSwitch)),
            (None, None) => None,
        }
    }

    /// Consumes every arrival due at or before `now`, returning the total
    /// service time incurred and resampling the streams.
    pub fn consume_due<R: Rng + ?Sized>(
        &mut self,
        cfg: &NoiseConfig,
        rng: &mut R,
        now: SimTime,
    ) -> SimTime {
        let mut service = SimTime::ZERO;
        while let Some(t) = self.next_interrupt {
            if t > now {
                break;
            }
            service += cfg.interrupt_service;
            self.next_interrupt = sample_gap(rng, cfg.interrupt_rate_hz).map(|g| t + g);
        }
        while let Some(t) = self.next_ctx_switch {
            if t > now {
                break;
            }
            service += cfg.ctx_switch_service;
            self.next_ctx_switch = sample_gap(rng, cfg.ctx_switch_rate_hz).map(|g| t + g);
        }
        service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn quiet_config_samples_nothing() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = NoiseArrivals::init(&NoiseConfig::quiet(), &mut rng, SimTime::ZERO);
        assert_eq!(a.next(), None);
    }

    #[test]
    fn poisson_rate_is_respected() {
        // 1000 events/s over 1 simulated second ⇒ ~1000 arrivals.
        let cfg = NoiseConfig::interrupts_only(1000.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut arrivals = NoiseArrivals::init(&cfg, &mut rng, SimTime::ZERO);
        let mut count = 0u32;
        let horizon = SimTime::from_secs(1.0);
        while let Some((t, _)) = arrivals.next() {
            if t > horizon {
                break;
            }
            arrivals.consume_due(&cfg, &mut rng, t);
            count += 1;
        }
        assert!(
            (800..1200).contains(&count),
            "expected ~1000 arrivals, got {count}"
        );
    }

    #[test]
    fn consume_due_accumulates_service() {
        let cfg = NoiseConfig {
            interrupt_rate_hz: 1e6, // very frequent: several due at once
            interrupt_service: SimTime::from_us(2.0),
            ctx_switch_rate_hz: 0.0,
            ctx_switch_service: SimTime::from_us(15.0),
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut arrivals = NoiseArrivals::init(&cfg, &mut rng, SimTime::ZERO);
        let service = arrivals.consume_due(&cfg, &mut rng, SimTime::from_us(100.0));
        // ~100 arrivals in 100 µs at 1 MHz ⇒ ~200 µs of service.
        assert!(service.as_us() > 50.0, "service = {service}");
        // The streams were resampled into the future.
        assert!(arrivals.next().unwrap().0 > SimTime::from_us(100.0));
    }

    #[test]
    fn next_picks_earliest_kind() {
        let a = NoiseArrivals {
            next_interrupt: Some(SimTime::from_us(5.0)),
            next_ctx_switch: Some(SimTime::from_us(3.0)),
        };
        assert_eq!(
            a.next(),
            Some((SimTime::from_us(3.0), NoiseKind::ContextSwitch))
        );
    }

    #[test]
    fn determinism_given_seed() {
        let cfg = NoiseConfig::low();
        let sample = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            NoiseArrivals::init(&cfg, &mut rng, SimTime::ZERO)
        };
        assert_eq!(sample(42), sample(42));
    }
}

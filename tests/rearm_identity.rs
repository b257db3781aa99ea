//! `Soc::rearm()` is pinned bit-identical to fresh construction.
//!
//! The channel hot loop reuses one simulator across symbol runs by
//! re-arming it in place (`crates/core/src/channel/run.rs`), which is
//! only sound if a re-armed SoC is indistinguishable — to the last
//! trace byte and RNG draw — from dropping it and calling `Soc::new`
//! with the same config. This suite drives a *dirtied* simulator
//! (different workload, different stop time) through `rearm()` and
//! replays the same schedule on a fresh twin, across platform × seed ×
//! noise, comparing every observable surface: the sampled trace,
//! retired instruction counts, the final instant, the electrical state
//! (frequency, rail voltage, package current, temperature), and core
//! 0's retained rail ramps. One dirty workload makes more voltage
//! transitions than the rail's ramp history holds, so the re-arm must
//! also clear a history that has wrapped.

use ichannels_repro::ichannels_pmu::central::{VrRail, MAX_SEGMENTS};
use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig, TraceConfig};
use ichannels_repro::ichannels_soc::noise::NoiseConfig;
use ichannels_repro::ichannels_soc::program::{Action, Script};
use ichannels_repro::ichannels_soc::sim::Soc;
use ichannels_repro::ichannels_soc::trace::Sample;
use ichannels_repro::ichannels_uarch::isa::InstClass;
use ichannels_repro::ichannels_uarch::time::{Freq, SimTime};
use proptest::prelude::*;

fn platform(idx: usize) -> PlatformSpec {
    match idx {
        0 => PlatformSpec::cannon_lake(),
        1 => PlatformSpec::coffee_lake(),
        2 => PlatformSpec::haswell(),
        _ => PlatformSpec::skylake_server(),
    }
}

/// Noise points from quiet to interrupt+context-switch heavy, so the
/// redraw-in-construction-order contract is exercised with live
/// arrival streams, not just empty ones.
fn noise(idx: usize) -> NoiseConfig {
    let mut n = NoiseConfig::quiet();
    match idx {
        0 => {}
        1 => n.interrupt_rate_hz = 20_000.0,
        2 => n.ctx_switch_rate_hz = 3_000.0,
        _ => {
            n.interrupt_rate_hz = 50_000.0;
            n.ctx_switch_rate_hz = 5_000.0;
        }
    }
    n
}

/// A traced SoC pinned near 2 GHz on one platform × noise point.
fn soc_config(platform_idx: usize, noise_idx: usize, seed: u64) -> SocConfig {
    let spec = platform(platform_idx);
    let freq = spec.pstates.highest_not_above(Freq::from_ghz(2.0));
    let mut cfg = SocConfig::pinned(spec, freq);
    cfg.noise = noise(noise_idx);
    cfg.seed = seed;
    cfg.trace = TraceConfig {
        sample_period: Some(SimTime::from_us(10.0)),
    };
    cfg
}

/// Everything a run exposes; compared with exact (bitwise) `f64`
/// equality — "close" is not the contract, identical is.
#[derive(Debug, PartialEq)]
struct Observed {
    end: SimTime,
    samples: Vec<Sample>,
    retired_00: f64,
    retired_10: f64,
    freq: Freq,
    vcc_mv: f64,
    icc_a: f64,
    temp_c: f64,
    /// Core 0's rail, retained ramp history included.
    rail: VrRail,
}

/// The reference schedule: a license-raising PHI burst with a sleep in
/// the middle on core 0, and a scalar spin on core 1.
fn drive(soc: &mut Soc) -> Observed {
    soc.spawn(
        0,
        0,
        Box::new(Script::new(
            vec![
                Action::Run {
                    class: InstClass::Heavy256,
                    instructions: 40_000,
                },
                Action::SleepFor(SimTime::from_us(40.0)),
                Action::Run {
                    class: InstClass::Heavy512,
                    instructions: 20_000,
                },
                Action::Halt,
            ],
            "tx",
        )),
    );
    soc.spawn(
        1,
        0,
        Box::new(Script::run_loop(InstClass::Scalar64, 80_000)),
    );
    let end = soc.run_until_idle(SimTime::from_ms(3.0));
    Observed {
        end,
        samples: soc.trace().samples().to_vec(),
        retired_00: soc.inst_retired(0, 0),
        retired_10: soc.inst_retired(1, 0),
        freq: soc.freq(),
        vcc_mv: soc.vcc_mv(),
        icc_a: soc.icc_a(),
        temp_c: soc.temp_c(),
        rail: soc.pmu().rail(0).clone(),
    }
}

/// Dirty work that fills core 0's rail history and keeps scheduling:
/// short 512b-Heavy bursts spaced past the 650 µs license reset-time,
/// so each burst raises the rail and its decay lowers it again — two
/// ramps per burst, 128 ramps past `MAX_SEGMENTS` in total.
fn wrap_rail_history(soc: &mut Soc) {
    let bursts = MAX_SEGMENTS / 2 + 64;
    let mut actions = Vec::with_capacity(2 * bursts + 1);
    for _ in 0..bursts {
        actions.push(Action::Run {
            class: InstClass::Heavy512,
            instructions: 2_000,
        });
        actions.push(Action::SleepFor(SimTime::from_us(700.0)));
    }
    actions.push(Action::Halt);
    soc.spawn(0, 0, Box::new(Script::new(actions, "wrap")));
    soc.run_until_idle(SimTime::from_secs(3.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A dirtied-then-rearmed SoC replays the reference schedule with
    /// byte-identical observables to a freshly constructed twin.
    #[test]
    fn rearm_is_bit_identical_to_fresh_construction(
        platform_idx in 0usize..4,
        noise_idx in 0usize..4,
        seed in any::<u64>(),
        dirty_insts in 1_000u64..60_000,
    ) {
        let cfg = soc_config(platform_idx, noise_idx, seed);
        let mut fresh = Soc::new(cfg.clone());
        let want = drive(&mut fresh);

        // Dirty a second simulator with a different workload and stop
        // time, then re-arm it in place and replay.
        let mut reused = Soc::new(cfg);
        reused.spawn(
            0,
            0,
            Box::new(Script::run_loop(InstClass::Light256, dirty_insts)),
        );
        reused.run_until_idle(SimTime::from_us(900.0));
        reused.rearm();
        let got = drive(&mut reused);

        prop_assert_eq!(want, got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Re-arming after the rail's ramp history has filled and wrapped
    /// still yields a simulator bitwise-equal to a fresh twin.
    #[test]
    fn rearm_after_rail_history_wraps_is_bit_identical(
        platform_idx in 0usize..4,
        noise_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = soc_config(platform_idx, noise_idx, seed);
        let mut fresh = Soc::new(cfg.clone());
        let want = drive(&mut fresh);

        let mut reused = Soc::new(cfg);
        wrap_rail_history(&mut reused);
        prop_assert_eq!(reused.pmu().rail(0).retained_ramps(), MAX_SEGMENTS);
        reused.rearm();
        let got = drive(&mut reused);

        prop_assert_eq!(want, got);
    }
}

//! Randomized scenario generation for the fuzz harness.
//!
//! Every case is a pure function of `(base_seed, case_index)`: the
//! per-case RNG is seeded with `mix(base_seed, case)`, so a case's
//! scenario does not depend on sharding, threading, or which other
//! cases ran — the property that makes a findings report replayable
//! from its recorded seed and case index alone.
//!
//! The sampler only emits [`Scenario::supported`] combinations by
//! construction (channel kinds are drawn from the platform's
//! capabilities, multi-level cells keep the default receiver), so no
//! rejection loop is needed and every case index maps to exactly one
//! runnable scenario.

use ichannels::channel::ChannelKind;
use ichannels::mitigations::Mitigation;
use proptest::test_runner::TestRng;
use rand::Rng;

use crate::grid::fnv1a;
use crate::scenario::{
    mix, AlphabetSpec, AppKind, AppSpec, ChannelSelect, Knob, NoiseSpec, PayloadSpec, PlatformId,
    ReceiverSpec, Scenario,
};

/// The per-case RNG: seeded from the fuzz base seed and case index.
fn case_rng(base_seed: u64, case: u64) -> TestRng {
    TestRng::with_seed(mix(base_seed, case))
}

/// Derives the canonical trial seed for a fuzzed cell — the same
/// cell-key rule [`crate::grid::Grid`] uses (`mix(base ^ fnv1a(cell),
/// trial)`), so a fuzz finding replays the identical trial that a grid
/// sweep of that cell would run, and a shrunk variant gets the seed of
/// *its* cell rather than inheriting the original's.
pub fn cell_seed(base_seed: u64, scenario: &Scenario) -> u64 {
    mix(
        base_seed ^ fnv1a(&scenario.cell_key()),
        u64::from(scenario.trial),
    )
}

/// Rounds to one decimal, keeping cell-key labels short and stable.
fn one_decimal(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// A log-uniform event rate in `[10^lo, 10^hi]`, rounded to an integer
/// so noise/app labels stay compact.
fn log_rate(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo..hi)).round()
}

/// Samples the fuzz scenario of one case. Pure in `(base_seed, case)`.
pub fn sample_scenario(base_seed: u64, case: u64) -> Scenario {
    let rng = &mut case_rng(base_seed, case);

    let platform = PlatformId::ALL[rng.gen_range(0..PlatformId::ALL.len())];
    let spec = platform.spec();
    let mut kinds = vec![ChannelKind::Thread];
    if spec.smt {
        kinds.push(ChannelKind::Smt);
    }
    if spec.n_cores >= 2 {
        kinds.push(ChannelKind::Cores);
    }
    let kind = kinds[rng.gen_range(0..kinds.len())];

    let alphabets = [
        AlphabetSpec::Paper4,
        AlphabetSpec::Phi6,
        AlphabetSpec::Full7,
    ];
    let channel = if rng.gen_bool(0.25) {
        ChannelSelect::MultiLevel(kind, alphabets[rng.gen_range(0..alphabets.len())])
    } else {
        ChannelSelect::Icc(kind)
    };
    let levels = match channel {
        ChannelSelect::MultiLevel(_, alpha) => alpha.levels(),
        _ => 4,
    };

    // The multi-level channel decodes its own alphabet: only the
    // default receiver is a supported combination there.
    let receiver = if matches!(channel, ChannelSelect::MultiLevel(..)) || rng.gen_bool(0.6) {
        ReceiverSpec::Calibrated
    } else if rng.gen_bool(0.5) {
        ReceiverSpec::Legacy
    } else {
        ReceiverSpec::Fixed {
            window_scale: f64::from(rng.gen_range(1u32..=6)) * 0.5,
            votes: rng.gen_range(1..=7),
        }
    };

    let noise = match rng.gen_range(0u32..5) {
        0 => NoiseSpec::Quiet,
        1 => NoiseSpec::Low,
        2 => NoiseSpec::High,
        3 => NoiseSpec::Interrupts(log_rate(rng, 1.0, 4.0)),
        _ => NoiseSpec::CtxSwitches(log_rate(rng, 1.0, 4.0)),
    };

    let mut mitigations = Vec::new();
    for m in [
        Mitigation::PerCoreVr,
        Mitigation::ImprovedThrottling,
        Mitigation::SecureMode,
    ] {
        if rng.gen_bool(0.15) {
            mitigations.push(m);
        }
    }

    let app = rng.gen_bool(0.3).then(|| {
        let kind = match rng.gen_range(0u32..3) {
            0 => AppKind::RandomLevels,
            1 => AppKind::FixedLevel(rng.gen_range(0u8..4)),
            _ => AppKind::SevenZip,
        };
        AppSpec {
            kind,
            rate_hz: log_rate(rng, 1.0, 3.5),
            burst_insts: 20_000,
        }
    });

    let knob = rng.gen_bool(0.25).then(|| match rng.gen_range(0u32..3) {
        // Wide, deliberately including schedule-hostile reset times:
        // the point of fuzzing is configurations nobody hand-picked.
        0 => Knob::VrSlew(one_decimal(rng.gen_range(0.5..12.0))),
        1 => Knob::ResetTimeUs(f64::from(rng.gen_range(5u32..=400))),
        _ => Knob::MeasurementJitterNs(f64::from(rng.gen_range(0u32..=2_000))),
    });

    let payload = if rng.gen_bool(0.8) {
        PayloadSpec::Random
    } else {
        PayloadSpec::Constant(rng.gen_range(0..levels as u8))
    };

    let freq_ghz = rng
        .gen_bool(0.3)
        .then(|| f64::from(rng.gen_range(8u32..=35)) / 10.0);

    let mut s = Scenario {
        platform,
        channel,
        noise,
        mitigations,
        app,
        knob,
        receiver,
        payload,
        payload_symbols: rng.gen_range(4usize..=24),
        calib_reps: rng.gen_range(1usize..=3),
        freq_ghz,
        trial: 0,
        seed: 0,
    };
    debug_assert!(s.supported(), "sampler built unsupported {}", s.label());
    s.seed = cell_seed(base_seed, &s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_pure_and_supported() {
        for case in 0..256 {
            let a = sample_scenario(0xF0552, case);
            let b = sample_scenario(0xF0552, case);
            assert_eq!(a, b, "case {case} is not a pure function of (seed, case)");
            assert!(
                a.supported(),
                "case {case} sampled unsupported {}",
                a.label()
            );
        }
    }

    #[test]
    fn seeds_follow_the_grid_cell_rule() {
        let s = sample_scenario(7, 3);
        assert_eq!(s.seed, mix(7 ^ fnv1a(&s.cell_key()), 0));
    }

    #[test]
    fn different_seeds_draw_different_streams() {
        let a: Vec<String> = (0..32).map(|c| sample_scenario(1, c).label()).collect();
        let b: Vec<String> = (0..32).map(|c| sample_scenario(2, c).label()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn the_space_is_actually_wide() {
        // 256 cases must cover every platform, both channel families,
        // and off-default receivers/knobs/apps — otherwise the sampler
        // is quietly stuck in a corner.
        let scenarios: Vec<Scenario> = (0..256).map(|c| sample_scenario(0xF0552, c)).collect();
        for p in PlatformId::ALL {
            assert!(
                scenarios.iter().any(|s| s.platform == p),
                "{p:?} never sampled"
            );
        }
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.channel, ChannelSelect::MultiLevel(..))));
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.channel, ChannelSelect::Icc(_))));
        assert!(scenarios.iter().any(|s| !s.receiver.is_default()));
        assert!(scenarios.iter().any(|s| s.knob.is_some()));
        assert!(scenarios.iter().any(|s| s.app.is_some()));
        assert!(scenarios.iter().any(|s| !s.mitigations.is_empty()));
    }
}

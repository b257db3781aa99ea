//! The first fuzz finding, pinned: `campaign fuzz` (seed `0xF0552`)
//! flags case 1751 and shrinks it to
//! `cannon_lake/IccThreadCovert/quiet/none/noapp/randomx6/f3.5` — a
//! plain quiet thread channel whose only off-default axis is a pinned
//! 3.5 GHz operating point, decoding at BER ≈ 0.58 where the unpinned
//! twin decodes clean.
//!
//! The root cause is open. It is *not* a receiver trained at the
//! platform's default operating point: `Scenario::channel_config` pins
//! the training SoC and the payload SoC to the same `freq_ghz`, which
//! the first test below asserts. The leading hypothesis is
//! inter-symbol interference (the slot period stays fixed while the
//! throttling period grows with frequency), but it is unconfirmed.
//! This test pins both sides of the A/B so the behavior stays visible
//! until the cause is established and fixed or documented.

use ichannels_repro::ichannels::channel::ChannelKind;
use ichannels_repro::ichannels_lab::fuzz::oracle::{AnomalyKind, Oracle};
use ichannels_repro::ichannels_lab::fuzz::{self, gen};
use ichannels_repro::ichannels_lab::scenario::{
    ChannelSelect, NoiseSpec, PayloadSpec, PlatformId, ReceiverSpec, Scenario,
};
use ichannels_repro::ichannels_lab::{Executor, FuzzConfig, ShardSpec};
use ichannels_repro::ichannels_pmu::governor::Governor;
use ichannels_repro::ichannels_uarch::time::Freq;

const FUZZ_SEED: u64 = 0xF0552;
const CASE: u64 = 1751;
const SHRUNK_CELL: &str = "cannon_lake/IccThreadCovert/quiet/none/noapp/randomx6/f3.5";
const SHRUNK_SEED: u64 = 2066847521854880337;
const SHRUNK_BER: f64 = 0.5833333333333334;

/// The minimal reproducer exactly as the finding row records it: the
/// cell key reconstructs the scenario, and the trial seed re-derives
/// from the fuzz base seed by the grid cell rule.
fn minimal_reproducer() -> Scenario {
    let mut s = Scenario {
        platform: PlatformId::CannonLake,
        channel: ChannelSelect::Icc(ChannelKind::Thread),
        noise: NoiseSpec::Quiet,
        mitigations: Vec::new(),
        app: None,
        knob: None,
        receiver: ReceiverSpec::Calibrated,
        payload: PayloadSpec::Random,
        payload_symbols: 6,
        calib_reps: 1,
        freq_ghz: Some(3.5),
        trial: 0,
        seed: 0,
    };
    s.seed = gen::cell_seed(FUZZ_SEED, &s);
    s
}

#[test]
fn the_pinned_reproducer_replays_the_frequency_pin_anomaly() {
    let s = minimal_reproducer();
    assert_eq!(s.cell_key(), SHRUNK_CELL);
    assert_eq!(
        s.seed, SHRUNK_SEED,
        "the cell-derived seed moved — findings rows would no longer replay"
    );
    // Training and payload share this one configuration, so both run
    // pinned at the 3.5 GHz p-state — not at the platform default.
    let pstate = s
        .platform
        .spec()
        .pstates
        .highest_not_above(Freq::from_ghz(3.5));
    assert_eq!(s.channel_config().soc.governor, Governor::Userspace(pstate));

    // The anomaly side of the A/B: pinned to 3.5 GHz the calibrated
    // receiver confuses over half the symbols. Pinned exactly, so any
    // drift is a deliberate re-bless.
    let pinned = s.run().metrics.ber;
    assert_eq!(
        pinned, SHRUNK_BER,
        "the pinned-frequency BER moved; if the root cause was fixed, \
         retire this pin into a fixed-vs-legacy A/B like the skylake outlier's"
    );

    // The clean side: the same cell at the platform default operating
    // point decodes error-free.
    let mut twin = s.clone();
    twin.freq_ghz = None;
    twin.seed = gen::cell_seed(FUZZ_SEED, &twin);
    assert_eq!(
        twin.run().metrics.ber,
        0.0,
        "the default-frequency twin should decode clean"
    );

    // And the oracle classifies the pinned cell as an envelope break,
    // which is what surfaced it in the first place.
    let anomaly = Oracle::default()
        .judge(&s)
        .expect("the oracle must keep flagging the pinned reproducer");
    assert_eq!(anomaly.kind, AnomalyKind::ErrorRateDeviation);
    assert!(anomaly.measured > anomaly.allowed);
}

#[test]
fn the_fuzzer_rediscovers_and_shrinks_the_finding() {
    // A shard spec that owns exactly case 1751 re-runs the finding's
    // sample → judge → shrink pipeline without the other 2047 cases.
    let config = FuzzConfig {
        seed: FUZZ_SEED,
        cases: CASE + 1,
        shard: ShardSpec::new(CASE as usize, CASE as usize + 1).expect("valid shard"),
        ..FuzzConfig::default()
    };
    let report = fuzz::run(&config, &Executor::serial());
    assert_eq!(report.cases_run, 1);
    let [finding] = &report.findings[..] else {
        panic!(
            "case {CASE} must keep producing exactly one finding, got {:?}",
            report.findings
        );
    };
    assert_eq!(finding.case, CASE);
    assert!(finding.is_kind(AnomalyKind::ErrorRateDeviation));
    // The sampled cell carried noise and a wider payload; the shrinker
    // strips both and keeps the frequency pin — the axis the anomaly
    // actually lives on.
    assert_eq!(
        finding.cell,
        "cannon_lake/IccThreadCovert/low/none/noapp/randomx17/f3.5"
    );
    assert_eq!(finding.shrunk_cell, SHRUNK_CELL);
    assert_eq!(finding.shrunk_seed, SHRUNK_SEED);
    assert_eq!(finding.shrunk_measured, SHRUNK_BER);
    assert!(finding.shrink_steps > 0, "nothing shrank");
}

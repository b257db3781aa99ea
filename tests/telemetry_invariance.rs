//! The telemetry layer's load-bearing guarantee: **byte transparency**.
//! Enabling spans and metrics must not move a single output byte —
//! the whole quick catalog renders identical JSONL with telemetry on
//! and off — and shard snapshots must merge associatively back into
//! the unsharded snapshot (the telemetry analogue of `merge_streams`),
//! pinned by a proptest over arbitrary shard splits.
//!
//! The obs switch is process-global state, so every test here
//! serializes on one lock and restores the disabled default however
//! it exits.

use std::sync::{Mutex, MutexGuard};

use ichannels_repro::ichannels_lab::report::rows_to_jsonl;
use ichannels_repro::ichannels_lab::{campaigns, Executor, TrialRecord, TrialRow};
use ichannels_repro::ichannels_obs as obs;
use proptest::prelude::*;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn records_jsonl(records: &[TrialRecord]) -> String {
    rows_to_jsonl(
        &records
            .iter()
            .map(TrialRow::from_record)
            .collect::<Vec<_>>(),
    )
}

/// Serializes obs-global tests and restores the default (disabled)
/// switch however the test exits.
struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ObsGuard {
    fn acquire() -> Self {
        let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        ObsGuard(guard)
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        obs::set_enabled(false);
    }
}

/// The whole quick catalog renders byte-identical JSONL with telemetry
/// on and off — every span, counter, and histogram lives strictly
/// out-of-band, so the golden suite and the determinism proofs cannot
/// see the difference.
#[test]
fn catalog_jsonl_is_byte_identical_with_telemetry_on_and_off() {
    let _guard = ObsGuard::acquire();
    for (name, grid) in campaigns::catalog(true) {
        let scenarios = grid.scenarios();
        obs::set_enabled(false);
        let off = Executor::new(4).run(&scenarios);
        obs::set_enabled(true);
        obs::reset();
        let on = Executor::new(4).run(&scenarios);
        obs::set_enabled(false);
        assert_eq!(
            records_jsonl(&off),
            records_jsonl(&on),
            "{name}: telemetry leaked into trial bytes"
        );
    }
}

/// An instrumented run actually records: phase spans for every trial,
/// the trial counter, and exactly one calibration training per trial.
#[test]
fn instrumented_catalog_records_the_advertised_metrics() {
    let _guard = ObsGuard::acquire();
    let (_, grid) = campaigns::catalog(true)
        .into_iter()
        .find(|(name, _)| *name == "client_vs_server")
        .expect("catalog campaign");
    let scenarios = grid.scenarios();
    obs::set_enabled(true);
    obs::reset();
    let records = Executor::new(2).run(&scenarios);
    obs::set_enabled(false);
    let snap = obs::global().snapshot();

    let n = scenarios.len() as u64;
    assert_eq!(snap.counter("trial.runs"), n);
    assert_eq!(records.len(), scenarios.len());
    for phase in [
        "trial.total",
        "trial.resolve",
        "trial.config",
        "trial.calibration",
        "trial.transmit",
        "trial.metrics",
    ] {
        assert_eq!(snap.histogram(phase).count, n, "{phase} missed trials");
    }
    // The five sub-phases nest inside trial.total.
    let phases_ns: u64 = [
        "trial.resolve",
        "trial.config",
        "trial.calibration",
        "trial.transmit",
        "trial.metrics",
    ]
    .iter()
    .map(|p| snap.histogram(p).sum)
    .sum();
    let total_ns = snap.histogram("trial.total").sum;
    assert!(
        phases_ns <= total_ns,
        "phase sums {phases_ns}ns exceed trial totals {total_ns}ns"
    );
    // SoC stepping was observed and dominates nothing it shouldn't:
    // every icc trial re-arms at least once (calibration + payload).
    assert!(snap.counter("soc.rearms") >= n);
    assert!(snap.histogram("soc.step_ns").count >= n);
    // Every client_vs_server trial is a four-level icc trial that
    // trains exactly once.
    assert_eq!(snap.counter("calibration.requests"), n);
    // Executor accounting: one busy sample per worker, every item
    // counted.
    assert_eq!(snap.counter("exec.items"), n);
    assert!(snap.gauges.contains_key("exec.threads"));
}

/// Running the same icc scenario twice in one process repeats the same
/// simulation work: identical row bytes, and the second run re-arms and
/// steps exactly as many SoC slots as the first (its training is
/// simulated again, not served from any process-wide state).
#[test]
fn rerunning_a_scenario_trains_again() {
    let _guard = ObsGuard::acquire();
    let (_, grid) = campaigns::catalog(true)
        .into_iter()
        .find(|(name, _)| *name == "client_vs_server")
        .expect("catalog campaign");
    let scenario = grid.scenarios().swap_remove(0);
    let executor = Executor::new(1);
    let run_once = || {
        obs::reset();
        let row = records_jsonl(&executor.run(std::slice::from_ref(&scenario)));
        let snap = obs::global().snapshot();
        (
            row,
            snap.counter("soc.rearms"),
            snap.counter("soc.slots_simulated"),
        )
    };
    obs::set_enabled(true);
    let first = run_once();
    let second = run_once();
    obs::set_enabled(false);
    assert!(first.1 > 1, "training and payload each re-arm the SoC");
    assert_eq!(first, second, "(row, soc.rearms, soc.slots_simulated)");
}

/// The NetSpectre and TurboCC baselines step the SoC through the same
/// driver as the IChannels, so their re-arms and slots are visible to
/// telemetry: each trial re-arms three times (two calibration runs,
/// then the payload) and counts every slot it simulated.
#[test]
fn baseline_trials_flush_soc_telemetry() {
    use ichannels_repro::ichannels_lab::{
        BaselineKind, ChannelSelect, NoiseSpec, PayloadSpec, PlatformId, ReceiverSpec, Scenario,
    };

    let _guard = ObsGuard::acquire();
    let payload_symbols = 8;
    // NetSpectre calibrates 3 reps of each bit; TurboCC calibrates 2
    // reps of each bit and sends a fixed 5-bit payload.
    for (kind, slots) in [
        (BaselineKind::NetSpectre, 6 + payload_symbols as u64),
        (BaselineKind::TurboCc, 9),
    ] {
        let scenario = Scenario {
            platform: PlatformId::CannonLake,
            channel: ChannelSelect::Baseline(kind),
            noise: NoiseSpec::Quiet,
            mitigations: vec![],
            app: None,
            knob: None,
            receiver: ReceiverSpec::Calibrated,
            payload: PayloadSpec::Random,
            payload_symbols,
            calib_reps: 2,
            freq_ghz: None,
            trial: 0,
            seed: 7,
        };
        obs::set_enabled(true);
        obs::reset();
        Executor::new(1).run(std::slice::from_ref(&scenario));
        obs::set_enabled(false);
        let snap = obs::global().snapshot();
        assert_eq!(snap.counter("soc.rearms"), 3, "{kind:?} soc.rearms");
        assert_eq!(
            snap.counter("soc.slots_simulated"),
            slots,
            "{kind:?} soc.slots_simulated"
        );
    }
}

/// SoC events (`soc.steps`) in one quick-catalog pass. The count is a
/// pure function of the work set, so it must not depend on the worker
/// count, and a change that only makes stepping cheaper must leave it
/// unchanged; a moved count means the simulator now does different
/// work.
const QUICK_CATALOG_SOC_STEPS: u64 = 22_955;

/// How often, in the same pass, each per-event shortcut ran and how
/// often it fell back to the full computation: rail reads before
/// `free_at` (the ramp-history search, out of one read per step),
/// next-decay answers and the license scans among them, the thermal
/// advances (one per step) that called `exp`, frequency retargets and
/// the electrical-limit searches among them, and the misses of the
/// rail-target, ramp-time and completion-time memos. Like
/// `soc.steps`, each is a pure function of the work set: the memos are
/// per `Soc`, and a trial's runs share one in a fixed order.
const QUICK_CATALOG_SHORTCUT_COUNTS: [(&str, u64); 9] = [
    ("soc.rail_history_reads", 12_064),
    ("soc.decay_queries", 28_669),
    ("soc.decay_scans", 7_338),
    ("soc.thermal_misses", 4_448),
    ("soc.retargets", 7_004),
    ("soc.limit_searches", 1_177),
    ("soc.target_misses", 1_541),
    ("soc.ramp_misses", 1_043),
    ("soc.completion_misses", 2_526),
];

/// The quick catalog steps the SoC exactly `QUICK_CATALOG_SOC_STEPS`
/// times on 1 and on 2 worker threads, with the shortcut counts of
/// `QUICK_CATALOG_SHORTCUT_COUNTS`.
#[test]
fn quick_catalog_soc_step_count_is_pinned() {
    let _guard = ObsGuard::acquire();
    for threads in [1, 2] {
        obs::set_enabled(true);
        obs::reset();
        for (_, grid) in campaigns::catalog(true) {
            Executor::new(threads).run(&grid.scenarios());
        }
        obs::set_enabled(false);
        let snap = obs::global().snapshot();
        assert_eq!(
            snap.counter("soc.steps"),
            QUICK_CATALOG_SOC_STEPS,
            "{threads} threads"
        );
        let counts = QUICK_CATALOG_SHORTCUT_COUNTS.map(|(name, _)| (name, snap.counter(name)));
        assert_eq!(counts, QUICK_CATALOG_SHORTCUT_COUNTS, "{threads} threads");
    }
}

/// Splits `snap`-shaped recordings across shards: each shard registry
/// records a disjoint slice of the same event stream.
fn record_events(registry: &obs::MetricsRegistry, events: &[(u8, u64)]) {
    for &(kind, v) in events {
        match kind % 3 {
            0 => registry.add_counter("c", v),
            1 => registry.gauge_max("g", v),
            _ => registry.observe("h", v),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shard snapshots merge associatively and commutatively: any
    /// split of one event stream into N shard registries, merged in
    /// any grouping (left fold, right fold, pairwise), reproduces the
    /// unsharded snapshot byte for byte — the same contract
    /// `merge_streams` gives trial rows.
    #[test]
    fn snapshot_merge_is_associative_over_shard_splits(
        events in proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 1..64),
        n_shards in 1usize..6,
    ) {
        // Unsharded reference: every event in one registry.
        let full = obs::MetricsRegistry::new();
        record_events(&full, &events);
        let reference = full.snapshot();

        // Round-robin the events across shard registries.
        let shards: Vec<obs::MetricsSnapshot> = (0..n_shards)
            .map(|i| {
                let r = obs::MetricsRegistry::new();
                let slice: Vec<(u8, u64)> = events
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(j, _)| j % n_shards == i)
                    .map(|(_, e)| e)
                    .collect();
                record_events(&r, &slice);
                r.snapshot()
            })
            .collect();

        // Left fold.
        let mut left = obs::MetricsSnapshot::new();
        for s in &shards {
            left.merge(s);
        }
        prop_assert_eq!(&left, &reference);
        prop_assert_eq!(left.to_json(), reference.to_json());

        // Reverse order (commutativity).
        let mut rev = obs::MetricsSnapshot::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        prop_assert_eq!(&rev, &reference);

        // Pairwise tree (associativity): merge adjacent pairs until
        // one snapshot remains.
        let mut layer = shards.clone();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    m
                })
                .collect();
        }
        prop_assert_eq!(&layer[0], &reference);

        // And the merged snapshot round-trips through its JSON.
        let parsed = obs::MetricsSnapshot::parse(&reference.to_json()).expect("parses");
        prop_assert_eq!(parsed, reference);
    }
}

//! Smoke tests over the figure-regeneration harness: every artifact runs
//! in quick mode and its key claims hold. (The full-fidelity runs are the
//! `ichannels-bench` binaries.)

use ichannels_bench::figs;

#[test]
fn fig06_vcc_steps_and_flat_frequency() {
    let (_csv, steps) = figs::fig06::run_avx2_steps(true).expect("harness runs");
    let get = |name: &str| {
        steps
            .iter()
            .find(|(n, _)| n.contains(name))
            .map(|(_, v)| *v)
            .expect("phase present")
    };
    assert!(get("baseline").abs() < 0.5);
    let one = get("+1 step");
    let two = get("+2 steps");
    assert!(one > 3.0, "first step too small: {one}");
    assert!(two > one + 3.0, "second step missing: {one} → {two}");
    assert!(get("back to baseline").abs() < 0.5);
}

#[test]
fn fig07_limit_violations_match_paper() {
    let rows = figs::fig07::run_limits(true).expect("harness runs");
    let find = |sys: &str, wl: &str| {
        rows.iter()
            .find(|r| r.system.contains(sys) && r.workload == wl)
            .expect("row present")
    };
    // Desktop: Vccmax violation only for AVX2 at 4.9 GHz.
    assert_eq!(
        find("4.9GHz", "AVX2").violation.as_deref(),
        Some("Vccmax limit violation")
    );
    assert!(find("4.8GHz", "AVX2").violation.is_none());
    // Mobile: Iccmax violation only for AVX2 at 3.1 GHz.
    assert_eq!(
        find("3.1GHz", "AVX2").violation.as_deref(),
        Some("Iccmax limit violation")
    );
    assert!(find("2.2GHz", "AVX2").violation.is_none());
    // Non-AVX never violates.
    assert!(rows
        .iter()
        .filter(|r| r.workload == "Non-AVX")
        .all(|r| r.violation.is_none()));
}

#[test]
fn fig07_phases_step_down_and_stay_cool() {
    let rows = figs::fig07::run_phases(true).expect("harness runs");
    assert_eq!(rows.len(), 3);
    assert!(rows[0].freq_ghz > rows[1].freq_ghz);
    assert!(rows[1].freq_ghz > rows[2].freq_ghz);
    for r in &rows {
        assert!(r.temp_c < 100.0, "{}: Tj = {}", r.phase, r.temp_c);
    }
}

#[test]
fn fig08_tp_ordering_and_gate_wake() {
    let dists = figs::fig08::run_distributions(true).expect("harness runs");
    let tp = |name: &str| {
        dists
            .iter()
            .find(|d| d.platform.contains(name))
            .expect("platform present")
            .mean_us
    };
    // Haswell (FIVR) < MBVR parts; MBVR in the 12–16 µs band.
    assert!(tp("Haswell") < tp("Coffee"));
    assert!((7.0..11.0).contains(&tp("Haswell")), "{}", tp("Haswell"));
    assert!((11.0..17.0).contains(&tp("Coffee")), "{}", tp("Coffee"));

    let deltas = figs::fig08::run_power_gate(true).expect("harness runs");
    let first = |name: &str| {
        deltas
            .iter()
            .find(|d| d.platform.contains(name))
            .expect("platform present")
            .delta_ns[0]
    };
    // Coffee Lake: 8–15 ns first-iteration penalty; Haswell: none.
    assert!(
        (8.0..16.0).contains(&first("Coffee")),
        "{}",
        first("Coffee")
    );
    assert!(first("Haswell").abs() < 1.0, "{}", first("Haswell"));
}

#[test]
fn fig10_multilevel_and_preceded() {
    let sweep = figs::fig10::run_sweep(true).expect("harness runs");
    // TP grows with frequency for a fixed class/core count.
    let tp = |ghz: f64, cores: usize, rank: u8| {
        sweep
            .iter()
            .find(|(c, g, n, _)| c.intensity_rank() == rank && *g == ghz && *n == cores)
            .map(|(_, _, _, t)| *t)
            .expect("cell present")
    };
    assert!(tp(1.4, 1, 6) > tp(1.0, 1, 6));
    // TP grows with core count (exacerbation).
    assert!(tp(1.0, 2, 4) > tp(1.0, 1, 4) * 1.5);
    // Preceded experiment: monotone decreasing, ≥5 levels.
    let preceded = figs::fig10::run_preceded(true).expect("harness runs");
    for w in preceded.windows(2) {
        assert!(w[1].1 <= w[0].1 + 1e-6);
    }
}

#[test]
fn fig11_idq_fractions() {
    let (throttled, unthrottled, sibling) = figs::fig11::run(true).expect("harness runs");
    assert!((throttled - 0.75).abs() < 0.01);
    assert!(unthrottled < 0.01);
    assert!((sibling - 0.75).abs() < 0.01);
}

#[test]
fn fig13_levels_are_separable() {
    let (clusters, min_sep) = figs::fig13::run(true).expect("harness runs");
    assert_eq!(clusters.len(), 4);
    // >~2k cycles separation (quick mode tolerates slightly less).
    assert!(min_sep > 1500.0, "separation = {min_sep}");
}

#[test]
fn fig14_noise_shapes() {
    // (a) BER grows with event rate but stays moderate at low rates.
    let rows = figs::fig14::run_event_noise(true).expect("harness runs");
    let ber_at = |kind: &str, rate: f64| {
        rows.iter()
            .find(|(k, r, _)| k == kind && *r == rate)
            .map(|(_, _, b)| *b)
            .expect("row present")
    };
    assert!(ber_at("interrupts", 10.0) < 0.02);
    assert!(ber_at("interrupts", 10_000.0) > ber_at("interrupts", 100.0));
    // (c) BER grows with App-PHI rate.
    let rows = figs::fig14::run_app_rate(true).expect("harness runs");
    assert!(rows.last().unwrap().1 >= rows.first().unwrap().1);
    // 7-zip: BER < 0.07 (§6.3).
    let ber = figs::fig14::run_sevenzip(true).expect("harness runs");
    assert!(ber < 0.07, "7-zip BER = {ber}");
}

#[test]
fn fig14_error_matrix_is_lower_triangular() {
    let m = figs::fig14::run_error_matrix(true).expect("harness runs");
    // Diagonal and upper triangle (app level ≤ channel level in paper
    // terms: app symbol ≤ ich symbol) stay clean; at least one cell
    // where the app exceeds the channel level shows errors.
    let mut dirty = 0;
    for (a, row) in m.iter().enumerate() {
        for (i, ser) in row.iter().enumerate() {
            if a <= i {
                assert!(*ser < 0.15, "clean cell ({a},{i}) has SER {ser}");
            } else if *ser > 0.2 {
                dirty += 1;
            }
        }
    }
    assert!(dirty >= 2, "interference cells missing: {m:?}");
}

#[test]
fn fig12_ratios_match_paper_through_the_engine() {
    let rows = figs::fig12::run(true).expect("harness runs");
    let bps = |name: &str| {
        rows.iter()
            .find(|t| t.name == name)
            .expect("channel present")
            .bps
    };
    // §6.2 headlines: 2× NetSpectre, ~145×/47×/24× the baselines.
    let ns_ratio = bps("IccThreadCovert") / bps("NetSpectre");
    assert!(
        (1.8..2.2).contains(&ns_ratio),
        "NetSpectre ratio {ns_ratio}"
    );
    assert!(bps("IccSMTcovert") / bps("DFScovert") > 100.0);
    let powert_ratio = bps("IccSMTcovert") / bps("POWERT");
    assert!(
        (20.0..28.0).contains(&powert_ratio),
        "POWERT ratio {powert_ratio}"
    );
}

#[test]
fn table1_verdicts_match_paper_through_the_engine() {
    use ichannels_repro::ichannels::channel::ChannelKind;
    use ichannels_repro::ichannels::mitigations::{Effectiveness, Mitigation};
    let cells = figs::table1::run(true).expect("harness runs");
    assert_eq!(cells.len(), 9);
    let verdict = |m: Mitigation, k: ChannelKind| {
        cells
            .iter()
            .find(|c| c.mitigation == m && c.channel == k)
            .expect("cell present")
            .effectiveness
    };
    // Secure mode kills every channel.
    for kind in [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores] {
        assert_eq!(verdict(Mitigation::SecureMode, kind), Effectiveness::Full);
    }
    // Improved throttling kills exactly the SMT channel.
    assert_eq!(
        verdict(Mitigation::ImprovedThrottling, ChannelKind::Smt),
        Effectiveness::Full
    );
    assert_eq!(
        verdict(Mitigation::ImprovedThrottling, ChannelKind::Thread),
        Effectiveness::None
    );
    // Per-core VR kills the cross-core channel and weakens same-thread.
    assert_eq!(
        verdict(Mitigation::PerCoreVr, ChannelKind::Cores),
        Effectiveness::Full
    );
    assert_ne!(
        verdict(Mitigation::PerCoreVr, ChannelKind::Thread),
        Effectiveness::None
    );
}

#[test]
fn table2_summary_consistency() {
    let rows = figs::table2::run(true).expect("harness runs");
    let ich = rows.iter().find(|r| r.proposal == "IChannels").unwrap();
    let ns = rows.iter().find(|r| r.proposal == "NetSpectre").unwrap();
    let turbo = rows.iter().find(|r| r.proposal == "TurboCC").unwrap();
    assert!(ich.bw_bps > ns.bw_bps);
    assert!(ich.bw_bps > 40.0 * turbo.bw_bps);
    assert!(ich.cross_smt && ich.cross_core && ich.same_core);
}

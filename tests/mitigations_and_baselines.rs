//! Integration tests for the Table 1 mitigation matrix and the
//! Figure 12 baseline comparisons.

use ichannels_bench::figs;
use ichannels_repro::ichannels::baselines::dfscovert::DfsCovertChannel;
use ichannels_repro::ichannels::baselines::netspectre::NetSpectreChannel;
use ichannels_repro::ichannels::baselines::powert::PowerTChannel;
use ichannels_repro::ichannels::baselines::turbocc::TurboCcChannel;
use ichannels_repro::ichannels::channel::{ChannelConfig, ChannelKind, IChannel};
use ichannels_repro::ichannels::mitigations::{Effectiveness, Mitigation};

/// Table 1, row by row, on the campaign path: the grid `figs::table1`
/// runs (quick sizes), each cell scored by `classify_capacity`.
/// Expected matrix (from the paper):
///   Per-core VR:         Thread partial, SMT partial, Cores full
///   Improved throttling: Thread no,      SMT full,    Cores no
///   Secure mode:         Thread full,    SMT full,    Cores full
#[test]
fn table1_matrix_matches_paper() {
    let cells = figs::table1::run(true).expect("harness runs");
    assert_eq!(cells.len(), 9);
    let expect = [
        (
            Mitigation::PerCoreVr,
            [
                (
                    ChannelKind::Thread,
                    &[Effectiveness::Partial, Effectiveness::Full][..],
                ),
                (
                    ChannelKind::Smt,
                    &[Effectiveness::Partial, Effectiveness::Full][..],
                ),
                (ChannelKind::Cores, &[Effectiveness::Full][..]),
            ],
        ),
        (
            Mitigation::ImprovedThrottling,
            [
                (ChannelKind::Thread, &[Effectiveness::None][..]),
                (ChannelKind::Smt, &[Effectiveness::Full][..]),
                (ChannelKind::Cores, &[Effectiveness::None][..]),
            ],
        ),
        (
            Mitigation::SecureMode,
            [
                (ChannelKind::Thread, &[Effectiveness::Full][..]),
                (ChannelKind::Smt, &[Effectiveness::Full][..]),
                (ChannelKind::Cores, &[Effectiveness::Full][..]),
            ],
        ),
    ];
    for (mitigation, rows) in expect {
        for (kind, allowed) in rows {
            let o = cells
                .iter()
                .find(|c| c.mitigation == mitigation && c.channel == kind)
                .expect("the grid covers every cell");
            assert!(
                allowed.contains(&o.effectiveness),
                "{} vs {}: got {:?} (residual {:.0}/{:.0} b/s)",
                mitigation,
                kind,
                o.effectiveness,
                o.mitigated_capacity_bps,
                o.baseline_capacity_bps,
            );
        }
    }
}

#[test]
fn netspectre_is_exactly_half_the_thread_channel() {
    let ns = NetSpectreChannel::default_cannon_lake();
    let cal = ns.calibrate(2);
    let tx = ns.transmit(&[true, false, true, true], cal);
    assert_eq!(tx.bit_error_rate(), 0.0);
    let icc = IChannel::icc_thread_covert();
    let icc_bps = 2.0 / icc.config().slot_period.as_secs();
    assert!((icc_bps / tx.throughput_bps - 2.0).abs() < 1e-9);
}

#[test]
fn baseline_throughput_ordering_matches_figure12() {
    // DFScovert < TurboCC < POWERT ≪ IChannels.
    let (_, dfs_bps) = DfsCovertChannel::default().transmit(&[true, false]);
    let turbo = TurboCcChannel::default();
    let t_cal = turbo.calibrate(1);
    let turbo_bps = turbo.transmit(&[true], t_cal).throughput_bps;
    let (_, powert_bps) = PowerTChannel::default().transmit(&[true, false]);
    let icc_bps = 2.0 / IChannel::icc_smt_covert().config().slot_period.as_secs();
    assert!(dfs_bps < turbo_bps, "{dfs_bps} !< {turbo_bps}");
    assert!(turbo_bps < powert_bps, "{turbo_bps} !< {powert_bps}");
    assert!(powert_bps * 10.0 < icc_bps, "{powert_bps} vs {icc_bps}");

    // Paper ratios: 145×, 47×, 24× (tolerate ±20%).
    for (bps, expected) in [(dfs_bps, 145.0), (turbo_bps, 47.0), (powert_bps, 24.0)] {
        let ratio = icc_bps / bps;
        assert!(
            (expected * 0.8..expected * 1.25).contains(&ratio),
            "ratio {ratio} vs expected {expected}"
        );
    }
}

#[test]
fn turbocc_requires_turbo_but_ichannels_does_not() {
    // Table 2 "Turbo-Independent" column: IChannels works at a pinned
    // low frequency; TurboCC's mechanism (license-driven frequency
    // changes) has nothing to modulate there.
    use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
    use ichannels_repro::ichannels_uarch::time::Freq;

    let mut cfg = ChannelConfig::default_cannon_lake();
    cfg.soc = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
    let ch = IChannel::new(ChannelKind::Thread, cfg);
    let cal = ch.try_calibrate(2).unwrap();
    let symbols: Vec<_> = (0..4u8)
        .map(ichannels_repro::ichannels::symbols::Symbol::new)
        .collect();
    let tx = ch.try_transmit_symbols(&symbols, &cal).unwrap();
    assert_eq!(tx.received, symbols);
}

/// Pins the exact raw receiver durations (TSC cycles) of every
/// timed-loop channel on the default Cannon Lake configurations. The
/// goldens see only BER and throughput, so a change to a sender or
/// receiver program that shifts a duration without flipping a decoded
/// bit would otherwise pass unnoticed.
#[test]
fn raw_receiver_durations_are_pinned() {
    use ichannels_repro::ichannels::extended::{LevelAlphabet, MultiLevelChannel};
    use ichannels_repro::ichannels::symbols::Symbol;

    let bits = |v: &[u8]| v.iter().map(|&b| b == 1).collect::<Vec<_>>();
    assert_eq!(
        NetSpectreChannel::default_cannon_lake().run_bits(&bits(&[1, 0, 0, 1, 1, 0, 1, 0])),
        [17686, 27831, 27724, 17612, 17607, 28324, 17737, 27966]
    );
    assert_eq!(
        TurboCcChannel::default().run_bits(&bits(&[1, 0, 1, 1, 0])),
        [183333, 141935, 183333, 183333, 141935]
    );

    let symbols: Vec<Symbol> = [0, 3, 1, 2].into_iter().map(Symbol::new).collect();
    for (kind, expected) in [
        (ChannelKind::Thread, [33848, 17229, 31333, 28765]),
        (ChannelKind::Smt, [24211, 40294, 25917, 29975]),
        (ChannelKind::Cores, [27722, 41441, 29104, 32651]),
    ] {
        let ch = IChannel::new(kind, ChannelConfig::default_cannon_lake());
        assert_eq!(ch.run_symbols(&symbols).unwrap(), expected, "{kind}");
    }

    let multi = MultiLevelChannel::new(
        ChannelKind::Thread,
        ChannelConfig::default_cannon_lake(),
        LevelAlphabet::paper4(),
    );
    assert_eq!(multi.calibrate(2), [33762.0, 31811.0, 28753.0, 17600.0]);

    // Level 0 of `full7` is the scalar "send nothing" level: on the
    // two-thread channels its receiver measures with no PHI running on
    // the sender's thread.
    for (kind, expected) in [
        (
            ChannelKind::Smt,
            [
                17600.0, 22180.0, 24125.0, 26395.0, 29963.0, 33854.0, 40665.0,
            ],
        ),
        (
            ChannelKind::Cores,
            [
                23193.0, 26632.0, 27883.0, 29829.0, 32887.0, 36222.0, 42060.0,
            ],
        ),
    ] {
        let multi = MultiLevelChannel::new(
            kind,
            ChannelConfig::default_cannon_lake(),
            LevelAlphabet::full7(),
        );
        assert_eq!(multi.calibrate(2), expected, "{kind}");
    }
}

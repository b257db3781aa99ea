//! §6.4 (server processors) and the repository's extension:
//! multi-level modulation.

use ichannels_repro::ichannels::ber::random_symbols;
use ichannels_repro::ichannels::channel::{ChannelConfig, ChannelKind, IChannel};
use ichannels_repro::ichannels::extended::{evaluate_alphabet, LevelAlphabet};
use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_repro::ichannels_uarch::time::Freq;

fn server_cfg(freq_ghz: f64) -> ChannelConfig {
    let mut cfg = ChannelConfig::default_cannon_lake();
    cfg.soc = SocConfig::pinned(PlatformSpec::skylake_server(), Freq::from_ghz(freq_ghz));
    cfg
}

/// §6.4: "all Intel client and server processors from the last decade …
/// are affected by at least one of our three proposed covert-channels."
#[test]
fn all_three_channels_work_on_the_server_part() {
    for kind in [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores] {
        let ch = IChannel::new(kind, server_cfg(2.0));
        let cal = ch.try_calibrate(2).unwrap();
        let symbols = random_symbols(8, 64);
        let tx = ch.try_transmit_symbols(&symbols, &cal).unwrap();
        assert_eq!(tx.received, symbols, "{kind} failed on the server part");
    }
}

/// The server part has 28 cores: the cross-core channel works between
/// distant cores too (the rail is socket-wide).
#[test]
fn server_cross_core_channel_is_socket_wide() {
    // Note: IChannel pins sender to core 0, receiver to core 1; the
    // important property is that 26 other idle cores do not disturb it,
    // and that PHI noise from a *far* core does.
    let ch = IChannel::new(ChannelKind::Cores, server_cfg(2.0));
    let cal = ch.try_calibrate(2).unwrap();
    let symbols = random_symbols(6, 65);
    let tx = ch.try_transmit_symbols(&symbols, &cal).unwrap();
    assert_eq!(tx.received, symbols);

    // A heavy PHI app on core 27 (far side of the socket) shifts the
    // shared voltage component and corrupts low-level symbols of a
    // channel running on core 0 — the rail is socket-wide.
    use ichannels_repro::ichannels::symbols::Symbol;
    use ichannels_repro::ichannels_uarch::isa::InstClass;
    use ichannels_repro::ichannels_workload::apps::RandomPhiApp;
    let thread_ch = IChannel::new(ChannelKind::Thread, server_cfg(2.0));
    let thread_cal = thread_ch.try_calibrate(2).unwrap();
    let low = vec![Symbol::new(0); 10];
    let deadline = thread_ch.config().start_offset + thread_ch.config().slot_period.scale(12.0);
    let tx = thread_ch
        .try_transmit_symbols_with(&low, &thread_cal, |soc| {
            soc.spawn(
                27,
                0,
                Box::new(RandomPhiApp::new(
                    3_000.0,
                    20_000,
                    vec![InstClass::Heavy512],
                    deadline,
                    5,
                )),
            );
        })
        .unwrap();
    assert!(
        tx.bit_error_rate() > 0.1,
        "far-core PHI noise should corrupt low-level symbols (BER = {})",
        tx.bit_error_rate()
    );
}

/// Extension: more than 2 bits per transaction using 6 levels.
#[test]
fn six_level_modulation_beats_two_bits() {
    let ev = evaluate_alphabet(LevelAlphabet::phi6(), 36, 99);
    assert!(
        ev.mi_bits_per_symbol > 2.0,
        "6-level MI = {} bits/transaction",
        ev.mi_bits_per_symbol
    );
    assert!(ev.capacity_bps > 2_899.0, "capacity = {}", ev.capacity_bps);
}

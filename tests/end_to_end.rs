//! End-to-end covert transmissions across channels, platforms, and
//! noise conditions.

use ichannels_repro::ichannels::ber::random_symbols;
use ichannels_repro::ichannels::channel::{ChannelConfig, ChannelKind, IChannel};
use ichannels_repro::ichannels::symbols::{
    bits_to_bytes, bits_to_symbols, bytes_to_bits, symbols_to_bits,
};
use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_repro::ichannels_soc::noise::NoiseConfig;
use ichannels_repro::ichannels_uarch::time::Freq;

#[test]
fn all_three_channels_transfer_a_byte_error_free() {
    let payload = [0b1011_0010u8];
    let bits = bytes_to_bits(&payload);
    for ch in [
        IChannel::icc_thread_covert(),
        IChannel::icc_smt_covert(),
        IChannel::icc_cores_covert(),
    ] {
        let cal = ch.try_calibrate(2).unwrap();
        let tx = ch
            .try_transmit_symbols(&bits_to_symbols(&bits), &cal)
            .unwrap();
        assert_eq!(
            bits_to_bytes(&symbols_to_bits(&tx.received)),
            payload,
            "{} corrupted the payload",
            ch.kind()
        );
        assert!(tx.throughput_bps() > 2_500.0);
    }
}

#[test]
fn channel_capacity_is_about_24x_powert() {
    // §6.2 headline: ~2.9 kb/s ≈ 24× the 122 b/s of POWERT.
    let ch = IChannel::icc_smt_covert();
    let cal = ch.try_calibrate(2).unwrap();
    let tx = ch
        .try_transmit_symbols(&random_symbols(30, 3), &cal)
        .unwrap();
    let ratio = tx.throughput_bps() / 122.0;
    assert!((20.0..28.0).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn cross_core_channel_works_on_all_platforms() {
    for platform in PlatformSpec::all() {
        let freq = platform.pstates.highest_not_above(Freq::from_ghz(2.0));
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(platform.clone(), freq);
        let ch = IChannel::new(ChannelKind::Cores, cfg);
        let cal = ch.try_calibrate(2).unwrap();
        let symbols = random_symbols(8, 9);
        let tx = ch.try_transmit_symbols(&symbols, &cal).unwrap();
        assert_eq!(
            tx.received, symbols,
            "cross-core channel failed on {}",
            platform.name
        );
    }
}

#[test]
fn low_noise_system_has_near_zero_ber() {
    let mut ch = IChannel::icc_thread_covert();
    ch.config_mut().soc = ch.config().soc.clone().with_noise(NoiseConfig::low());
    let cal = ch.try_calibrate(3).unwrap();
    let tx = ch
        .try_transmit_symbols(&random_symbols(60, 5), &cal)
        .unwrap();
    let ber = tx.bit_error_rate();
    assert!(ber < 0.03, "BER = {ber}");
}

#[test]
fn transmissions_are_deterministic_given_seeds() {
    let run = || {
        let ch = IChannel::icc_thread_covert();
        let cal = ch.try_calibrate(2).unwrap();
        ch.try_transmit_symbols(&random_symbols(12, 7), &cal)
            .unwrap()
            .durations
    };
    assert_eq!(run(), run());
}

#[test]
fn channel_works_at_any_pinned_frequency() {
    // §5.7 / Table 2: the mechanism is turbo-independent — it works at
    // low frequencies too (unlike TurboCC).
    for ghz in [1.0, 1.8, 2.2] {
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(ghz));
        let ch = IChannel::new(ChannelKind::Thread, cfg);
        let cal = ch.try_calibrate(2).unwrap();
        let symbols = random_symbols(8, 11);
        let tx = ch.try_transmit_symbols(&symbols, &cal).unwrap();
        assert_eq!(tx.received, symbols, "failed at {ghz} GHz");
    }
}

//! The three IChannels covert channels (paper §4):
//! [`ChannelKind::Thread`] (IccThreadCovert), [`ChannelKind::Smt`]
//! (IccSMTcovert), and [`ChannelKind::Cores`] (IccCoresCovert).
//!
//! All three share the Figure 3 structure: per transaction the sender
//! executes a PHI loop whose computational-intensity level encodes two
//! secret bits; the receiver times its own loop with `rdtsc` and decodes
//! the bits from the throttling period embedded in that duration. After
//! each transaction the channel waits out the 650 µs *reset-time* so the
//! voltage returns to baseline; the cycle time (< 690 µs) bounds the
//! throughput at ~2.9 kb/s (§6.2).
//!
//! The module splits along the trial pipeline:
//!
//! * [`kind`] — [`ChannelKind`], where sender and receiver live;
//! * [`config`] — [`ChannelConfig`], the SoC plus transaction timing;
//! * [`receiver`] — [`ReceiverCalibration`]/[`ReceiverMode`], the
//!   platform-calibrated adaptive demodulator;
//! * [`calibration`] — [`Calibration`], the per-level training means
//!   and nearest-mean decoding;
//! * [`run`] — [`SymbolRun`] (the re-armable Soc-owning driver every
//!   slotted channel, baselines included, runs through), [`IChannel`],
//!   [`Transmission`], and the typed [`ChannelError`].

pub mod calibration;
pub mod config;
pub mod kind;
mod programs;
pub mod receiver;
pub mod run;

pub use calibration::Calibration;
pub use config::ChannelConfig;
pub use kind::ChannelKind;
pub use receiver::{ReceiverCalibration, ReceiverMode};
pub use run::{ChannelError, IChannel, SymbolRun, Transmission};

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels_soc::config::{PlatformSpec, SocConfig};
    use ichannels_uarch::time::{Freq, SimTime};

    use crate::symbols::Symbol;

    fn all_levels() -> Vec<Symbol> {
        Symbol::ALL.to_vec()
    }

    #[test]
    fn thread_channel_levels_are_ordered_and_separated() {
        let ch = IChannel::icc_thread_covert();
        let durations = ch.run_symbols(&all_levels()).expect("clean schedule");
        // Same-thread: higher sender level ⇒ less remaining ramp ⇒
        // SHORTER receiver duration.
        for w in durations.windows(2) {
            assert!(w[1] < w[0], "durations = {durations:?}");
        }
        // Level separation > 2000 TSC cycles (§6.3, Figure 13).
        for w in durations.windows(2) {
            assert!(
                w[0] - w[1] > 1800,
                "adjacent separation too small: {durations:?}"
            );
        }
    }

    #[test]
    fn smt_channel_levels_are_ordered() {
        let ch = IChannel::icc_smt_covert();
        let durations = ch.run_symbols(&all_levels()).expect("clean schedule");
        // Across SMT: higher sender level ⇒ longer co-throttling ⇒
        // LONGER receiver duration.
        for w in durations.windows(2) {
            assert!(w[1] > w[0], "durations = {durations:?}");
        }
    }

    #[test]
    fn cores_channel_levels_are_ordered() {
        let ch = IChannel::icc_cores_covert();
        let durations = ch.run_symbols(&all_levels()).expect("clean schedule");
        for w in durations.windows(2) {
            assert!(w[1] > w[0], "durations = {durations:?}");
        }
    }

    #[test]
    fn calibrate_then_transmit_round_trips() {
        for ch in [
            IChannel::icc_thread_covert(),
            IChannel::icc_smt_covert(),
            IChannel::icc_cores_covert(),
        ] {
            let cal = ch.try_calibrate(3).unwrap();
            let msg = [
                Symbol::new(2),
                Symbol::new(0),
                Symbol::new(3),
                Symbol::new(1),
                Symbol::new(3),
                Symbol::new(0),
            ];
            let tx = ch.try_transmit_symbols(&msg, &cal).unwrap();
            assert_eq!(tx.received, msg, "{} failed", ch.kind());
            assert_eq!(tx.bit_error_rate(), 0.0);
        }
    }

    #[test]
    fn throughput_is_about_2_9_kbps() {
        let ch = IChannel::icc_thread_covert();
        let cal = ch.try_calibrate(2).unwrap();
        let msg = vec![Symbol::new(1); 10];
        let tx = ch.try_transmit_symbols(&msg, &cal).unwrap();
        let bps = tx.throughput_bps();
        assert!((2_800.0..3_000.0).contains(&bps), "throughput = {bps} b/s");
    }

    #[test]
    fn transmit_bits_api() {
        let ch = IChannel::icc_thread_covert();
        let cal = ch.try_calibrate(2).unwrap();
        let bits = [true, false, false, true, true, true];
        let tx = ch
            .try_transmit_symbols(&crate::symbols::bits_to_symbols(&bits), &cal)
            .unwrap();
        assert_eq!(crate::symbols::symbols_to_bits(&tx.received), bits);
    }

    #[test]
    fn calibration_separation_exceeds_2k_cycles() {
        let ch = IChannel::icc_thread_covert();
        let cal = ch.try_calibrate(3).unwrap();
        assert!(
            cal.min_separation_cycles() > 1800.0,
            "separation = {}",
            cal.min_separation_cycles()
        );
    }

    #[test]
    fn calibration_thresholds_are_midpoints() {
        let cal = Calibration::from_means([4000.0, 3000.0, 2000.0, 1000.0]);
        assert_eq!(cal.thresholds(), [1500.0, 2500.0, 3500.0]);
        // Nearest-mean decoding is exactly thresholding.
        assert_eq!(cal.decode(1499), Symbol::new(3));
        assert_eq!(cal.decode(1501), Symbol::new(2));
    }

    #[test]
    fn decode_vote_takes_plurality_and_breaks_ties_by_distance() {
        let cal = Calibration::from_means([1000.0, 2000.0, 3000.0, 4000.0]);
        // Plurality: two votes near level 0 beat one near level 2.
        assert_eq!(cal.decode_vote(&[999, 1001, 2990]), Symbol::new(0));
        // A 1–1 tie goes to the smaller total distance (level 2 here:
        // 1998+1 against level 0's 2+1999).
        assert_eq!(cal.decode_vote(&[1002, 2999]), Symbol::new(2));
        // A single sample is exactly `decode`.
        assert_eq!(cal.decode_vote(&[3100]), cal.decode(3100));
    }

    #[test]
    fn calibrated_receiver_is_identity_on_client_rails() {
        for spec in [
            PlatformSpec::cannon_lake(),
            PlatformSpec::coffee_lake(),
            PlatformSpec::haswell(),
        ] {
            for kind in [ChannelKind::Thread, ChannelKind::Smt, ChannelKind::Cores] {
                assert!(
                    ReceiverCalibration::for_channel(&spec, kind).is_legacy(),
                    "{} {kind} should keep the legacy receiver",
                    spec.name
                );
            }
        }
        // Only the server's cross-core channel derives a real tuning.
        let server = PlatformSpec::skylake_server();
        for kind in [ChannelKind::Thread, ChannelKind::Smt] {
            assert!(ReceiverCalibration::for_channel(&server, kind).is_legacy());
        }
        let tuned = ReceiverCalibration::for_channel(&server, ChannelKind::Cores);
        assert!(!tuned.is_legacy());
        assert!(tuned.votes >= 3, "votes = {}", tuned.votes);
        assert!(tuned.window_scale > 1.0, "window = {}", tuned.window_scale);
    }

    #[test]
    fn legacy_mode_reproduces_the_fixed_receiver_bit_for_bit() {
        // On a client rail the calibrated mode resolves to the identity
        // tuning, so the whole transmission is byte-identical to the
        // explicit legacy mode.
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(PlatformSpec::coffee_lake(), Freq::from_ghz(2.0));
        let mut legacy_cfg = cfg.clone();
        legacy_cfg.receiver = ReceiverMode::Legacy;
        let calibrated = IChannel::new(ChannelKind::Cores, cfg);
        let legacy = IChannel::new(ChannelKind::Cores, legacy_cfg);
        assert!(calibrated.tuning().is_legacy());
        let msg = [Symbol::new(1), Symbol::new(3), Symbol::new(0)];
        let (ca, cb) = (
            calibrated.try_calibrate(2).unwrap(),
            legacy.try_calibrate(2).unwrap(),
        );
        assert_eq!(ca, cb);
        let (ta, tb) = (
            calibrated.try_transmit_symbols(&msg, &ca).unwrap(),
            legacy.try_transmit_symbols(&msg, &cb).unwrap(),
        );
        assert_eq!(ta.durations, tb.durations);
        assert_eq!(ta.received, tb.received);
        assert_eq!(ta.elapsed, tb.elapsed);
    }

    #[test]
    fn server_cross_core_votes_stretch_the_transmission() {
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(PlatformSpec::skylake_server(), Freq::from_ghz(2.0));
        let ch = IChannel::new(ChannelKind::Cores, cfg);
        let tuning = ch.tuning();
        assert!(!tuning.is_legacy());
        let votes = tuning.votes as usize;
        assert_eq!(ch.slots_per_symbol(), votes);
        let cal = ch.try_calibrate(2).unwrap();
        let msg = [Symbol::new(0), Symbol::new(3), Symbol::new(2)];
        let tx = ch.try_transmit_symbols(&msg, &cal).unwrap();
        assert_eq!(tx.received, msg, "voted decode should be clean");
        assert_eq!(tx.durations.len(), msg.len() * votes);
        assert_eq!(
            tx.elapsed,
            ch.config().slot_period.scale((msg.len() * votes) as f64),
            "elapsed must charge every voting slot"
        );
        // The throughput honestly pays the votes-fold slowdown.
        assert!(tx.throughput_bps() < 2_900.0 / (votes as f64 - 0.5));
    }

    #[test]
    fn receiver_calibration_derivation_tracks_compression() {
        assert!(ReceiverCalibration::for_compression(1.0).is_legacy());
        assert!(ReceiverCalibration::for_compression(0.8).is_legacy());
        let moderate = ReceiverCalibration::for_compression(0.7);
        assert_eq!(moderate.votes, 3);
        let strong = ReceiverCalibration::for_compression(0.5625);
        assert_eq!(strong.votes, 5);
        assert!(strong.window_scale > moderate.window_scale);
        // The window stretch is capped.
        assert_eq!(ReceiverCalibration::for_compression(0.1).window_scale, 4.0);
    }

    #[test]
    #[should_panic(expected = "requires SMT")]
    fn smt_channel_rejects_non_smt_platform() {
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(PlatformSpec::coffee_lake(), Freq::from_ghz(2.0));
        let _ = IChannel::new(ChannelKind::Smt, cfg);
    }

    #[test]
    fn channel_works_on_coffee_lake_cross_core() {
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.soc = SocConfig::pinned(PlatformSpec::coffee_lake(), Freq::from_ghz(2.0));
        let ch = IChannel::new(ChannelKind::Cores, cfg);
        let cal = ch.try_calibrate(2).unwrap();
        let msg = [Symbol::new(0), Symbol::new(3), Symbol::new(2)];
        let tx = ch.try_transmit_symbols(&msg, &cal).unwrap();
        assert_eq!(tx.received, msg);
    }

    #[test]
    fn symbol_run_rearms_bit_identically() {
        // Repeated runs of one SymbolRun reproduce a fresh driver per
        // call exactly — the invariant that lets calibration reuse one
        // armed driver across its four level runs.
        let ch = IChannel::icc_cores_covert();
        let msg = all_levels();
        let mut run = SymbolRun::new(&ch);
        let first = run.run(&msg, |_| {}).expect("clean schedule");
        let second = run.run(&msg, |_| {}).expect("clean schedule");
        assert_eq!(first, second, "re-arming must restart every seed");
        let fresh = ch.run_symbols(&msg).expect("clean schedule");
        assert_eq!(first, fresh, "SymbolRun must match the one-shot path");
    }

    #[test]
    fn broken_slot_schedule_is_a_typed_error() {
        // A slot period far too short for the PHI loop collapses the
        // schedule: the receiver cannot record every transaction before
        // the deadline. This must surface as a ChannelError, not a
        // process abort.
        let mut cfg = ChannelConfig::default_cannon_lake();
        cfg.slot_period = SimTime::from_us(1.0);
        let ch = IChannel::new(ChannelKind::Thread, cfg);
        let err = ch
            .run_symbols(&[Symbol::new(3); 8])
            .expect_err("1 µs slots cannot fit a 15 µs PHI loop");
        match err {
            ChannelError::ReceiverMissedTransactions {
                channel,
                expected,
                got,
            } => {
                assert_eq!(channel, ChannelKind::Thread);
                assert_eq!(expected, 8);
                assert!(got < expected, "got {got} of {expected}");
            }
        }
        assert!(
            err.to_string().contains("missed transactions"),
            "unreadable: {err}"
        );
        // The same failure propagates out of calibration.
        assert!(ch.try_calibrate(2).is_err());
    }

    #[test]
    fn fingerprint_resolves_the_receiver_mode() {
        // Calibrated resolves to the identity tuning on a client rail,
        // so it renders like the explicit legacy mode — the two
        // training runs are provably bit-identical.
        let cfg = ChannelConfig::default_cannon_lake();
        let mut legacy = cfg.clone();
        legacy.receiver = ReceiverMode::Legacy;
        assert_eq!(
            calibration::fingerprint(ChannelKind::Cores, &cfg, 2),
            calibration::fingerprint(ChannelKind::Cores, &legacy, 2)
        );
        // On the compressed server rail the calibrated tuning differs,
        // so the renderings split.
        let mut server = cfg.clone();
        server.soc = SocConfig::pinned(PlatformSpec::skylake_server(), Freq::from_ghz(2.0));
        let mut server_legacy = server.clone();
        server_legacy.receiver = ReceiverMode::Legacy;
        assert_ne!(
            calibration::fingerprint(ChannelKind::Cores, &server, 2),
            calibration::fingerprint(ChannelKind::Cores, &server_legacy, 2)
        );
    }
}

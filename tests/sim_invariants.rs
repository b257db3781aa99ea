//! Property-based invariants of the SoC simulator under randomized
//! workloads: whatever programs run, physics and bookkeeping must hold.

use ichannels_repro::ichannels_pdn::regulator::VrModel;
use ichannels_repro::ichannels_pmu::central::VrRail;
use ichannels_repro::ichannels_soc::config::{PlatformSpec, SocConfig};
use ichannels_repro::ichannels_soc::noise::NoiseConfig;
use ichannels_repro::ichannels_soc::program::{Action, Script};
use ichannels_repro::ichannels_soc::sim::Soc;
use ichannels_repro::ichannels_uarch::isa::InstClass;
use ichannels_repro::ichannels_uarch::time::{Freq, SimTime};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = InstClass> {
    (0u8..7).prop_map(|r| InstClass::from_rank(r).expect("rank in range"))
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (arb_class(), 100u64..50_000).prop_map(|(class, instructions)| Action::Run {
            class,
            instructions
        }),
        (1u64..200).prop_map(|us| Action::SleepFor(SimTime::from_us(us as f64))),
    ]
}

fn arb_program() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(arb_action(), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The package voltage never leaves the [base, Vccmax] envelope and
    /// the temperature never reaches Tjmax, for arbitrary two-thread
    /// workloads with noise.
    #[test]
    fn voltage_and_temperature_stay_in_envelope(
        p0 in arb_program(),
        p1 in arb_program(),
        seed in 0u64..1000,
    ) {
        let platform = PlatformSpec::cannon_lake();
        let mut cfg = SocConfig::pinned(platform, Freq::from_ghz(1.8))
            .with_noise(NoiseConfig::low())
            .with_trace(SimTime::from_us(50.0));
        cfg.seed = seed;
        let base_mv = cfg.platform.vf_curve.voltage_mv(Freq::from_ghz(1.8));
        let vccmax = cfg.platform.limits.vccmax_mv();
        let mut soc = Soc::new(cfg);
        soc.spawn(0, 0, Box::new(Script::new(p0, "p0")));
        soc.spawn(1, 0, Box::new(Script::new(p1, "p1")));
        soc.run_until_idle(SimTime::from_ms(20.0));
        for s in soc.trace().samples() {
            prop_assert!(s.vcc_mv >= base_mv - 1e-6, "vcc {} < base {}", s.vcc_mv, base_mv);
            prop_assert!(s.vcc_mv <= vccmax + 1e-6, "vcc {} > vccmax", s.vcc_mv);
            prop_assert!(s.temp_c < 100.0);
        }
    }

    /// Simulated time and the TSC are monotone, and every spawned
    /// program eventually halts (no livelock) for arbitrary workloads.
    #[test]
    fn time_is_monotone_and_programs_terminate(
        p0 in arb_program(),
        p1 in arb_program(),
    ) {
        let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
        let mut soc = Soc::new(cfg);
        soc.spawn(0, 0, Box::new(Script::new(p0, "p0")));
        soc.spawn(0, 1, Box::new(Script::new(p1, "p1")));
        let mut last = soc.now();
        let mut last_tsc = soc.tsc_now();
        for _ in 0..200 {
            let next = soc.now() + SimTime::from_us(100.0);
            soc.run_until(next);
            prop_assert!(soc.now() >= last);
            prop_assert!(soc.tsc_now() >= last_tsc);
            last = soc.now();
            last_tsc = soc.tsc_now();
            if soc.all_idle() {
                break;
            }
        }
        prop_assert!(soc.all_idle(), "programs did not terminate in 20 ms");
    }

    /// Retired-instruction accounting matches the programs: a Run block
    /// of N instructions retires exactly N (±rounding).
    #[test]
    fn instruction_accounting_is_exact(
        blocks in proptest::collection::vec((arb_class(), 1_000u64..30_000), 1..6),
    ) {
        let total: u64 = blocks.iter().map(|(_, n)| *n).sum();
        let actions: Vec<Action> = blocks
            .into_iter()
            .map(|(class, instructions)| Action::Run { class, instructions })
            .collect();
        let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
        let mut soc = Soc::new(cfg);
        soc.spawn(0, 0, Box::new(Script::new(actions, "counter")));
        soc.run_until_idle(SimTime::from_ms(50.0));
        let retired = soc.inst_retired(0, 0);
        prop_assert!(
            (retired - total as f64).abs() < 1.0,
            "retired {retired} vs expected {total}"
        );
    }

    /// The throttling period is invariant to the *length* of the PHI
    /// loop (it is a property of the voltage transition, not the loop):
    /// duration(N insts) − duration_unthrottled(N) is constant in N once
    /// the loop outlasts the TP.
    #[test]
    fn tp_is_independent_of_loop_length(extra in 1u64..5) {
        use ichannels_repro::ichannels_workload::loops::{MeasuredLoop, Recorder};
        use ichannels_repro::ichannels_uarch::ipc::nominal_ipc;
        let freq = Freq::from_ghz(1.4);
        let measure = |insts: u64| -> f64 {
            let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), freq);
            let mut soc = Soc::new(cfg);
            let rec = Recorder::new();
            soc.spawn(0, 0, Box::new(MeasuredLoop::once(InstClass::Heavy512, insts, rec.clone())));
            soc.run_until_idle(SimTime::from_ms(10.0));
            let d = rec.durations_us(soc.tsc())[0];
            let base = insts as f64 / nominal_ipc(InstClass::Heavy512) / freq.as_hz() as f64 * 1e6;
            d - base
        };
        let base_insts = 100_000u64;
        let tp1 = measure(base_insts);
        let tp2 = measure(base_insts * extra * 2);
        prop_assert!((tp1 - tp2).abs() < 0.2, "tp1 = {tp1}, tp2 = {tp2}");
    }

    /// A voltage rail never leaves the envelope of its initial voltage
    /// and its targets, and it sits exactly at its setpoint once it is
    /// free, for random schedules on every VR style. Requests come both
    /// while a ramp is in flight (they queue) and after the rail has
    /// settled.
    #[test]
    fn vr_rail_stays_inside_its_envelope(
        model in 0usize..3,
        initial_mv in 650.0f64..850.0,
        requests in proptest::collection::vec((0.0f64..60.0, 650.0f64..850.0), 1..12),
        probes in proptest::collection::vec(0.0f64..1.2, 1..24),
    ) {
        let model = [VrModel::mbvr(), VrModel::fivr(), VrModel::ldo()][model];
        let mut rail = VrRail::new(model, initial_mv);
        let (mut lo, mut hi) = (initial_mv, initial_mv);
        let mut now = SimTime::ZERO;
        for (gap_us, target_mv) in requests {
            now += SimTime::from_us(gap_us);
            rail.schedule(now, target_mv);
            lo = lo.min(target_mv);
            hi = hi.max(target_mv);
            prop_assert_eq!(rail.voltage_at(rail.free_at()), rail.setpoint_mv());
        }
        for frac in probes {
            let t = rail.free_at().scale(frac);
            let v = rail.voltage_at(t);
            prop_assert!(
                v >= lo - 1e-9 && v <= hi + 1e-9,
                "{v} mV at {t:?} outside [{lo}, {hi}]"
            );
        }
    }
}

//! SoC configuration and the three platform presets of the paper
//! (§5.1): Intel Haswell (i7-4770K), Coffee Lake (i7-9700K), and Cannon
//! Lake (i3-8121U).
//!
//! All electrical/timing constants are calibrated against the paper's
//! measured values, not datasheets: AVX2 TP of 12–15 µs on MBVR parts
//! and ~9 µs on Haswell (Figure 8(a)), a 650 µs reset-time (§4.1.2),
//! 8–15 ns AVX power-gate wake on Skylake+ (§5.4), Vccmax = 1.27 V /
//! Iccmax = 100 A on the desktop part and Vccmax = 1.15 V / Iccmax = 29 A
//! on the mobile part (Figure 7(a)).

use ichannels_pdn::current::CurrentModel;
use ichannels_pdn::guardband::{CdynTable, GuardbandModel};
use ichannels_pdn::limits::ElectricalLimits;
use ichannels_pdn::regulator::VrModel;
use ichannels_pdn::vf_curve::VfCurve;
use ichannels_pmu::governor::Governor;
use ichannels_pmu::pstate::PStateTable;
use ichannels_pmu::thermal::ThermalModel;
use ichannels_pmu::turbo::TurboTable;
use ichannels_uarch::idq::ThrottlePolicy;
use ichannels_uarch::time::{Freq, SimTime};

use crate::noise::NoiseConfig;

/// Static description of a processor platform.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Marketing name ("Cannon Lake i3-8121U", …).
    pub name: &'static str,
    /// Number of physical cores.
    pub n_cores: usize,
    /// Whether each core exposes two SMT hardware threads.
    pub smt: bool,
    /// Fused voltage/frequency curve.
    pub vf_curve: VfCurve,
    /// Discrete P-states.
    pub pstates: PStateTable,
    /// Turbo license table.
    pub turbo: TurboTable,
    /// Package electrical limits.
    pub limits: ElectricalLimits,
    /// Voltage regulator model (MBVR / FIVR / LDO).
    pub vr_model: VrModel,
    /// Load-line impedance (mΩ).
    pub rll_mohm: f64,
    /// Per-class dynamic capacitances.
    pub cdyn: CdynTable,
    /// Always-on core-domain current (A).
    pub base_current_a: f64,
    /// Leakage at 1 V / 50 °C (A).
    pub leakage_a: f64,
    /// Invariant TSC frequency.
    pub tsc_freq: Freq,
    /// AVX power-gate staggered wake latency; `None` on parts without
    /// AVX power gating (pre-Skylake, e.g. Haswell).
    pub avx_pg_wake: Option<SimTime>,
    /// License hysteresis window (the paper's 650 µs reset-time).
    pub reset_time: SimTime,
}

impl PlatformSpec {
    /// Cannon Lake mobile part (Core i3-8121U): 2 cores / 4 threads,
    /// MBVR, Vccmax = 1.15 V, Iccmax = 29 A, 2.2 GHz base / 3.1 GHz
    /// turbo. The platform of Figures 7(b), 9, 10, 11, 13.
    pub fn cannon_lake() -> Self {
        PlatformSpec {
            name: "Cannon Lake i3-8121U",
            n_cores: 2,
            smt: true,
            vf_curve: VfCurve::new(vec![
                (Freq::from_ghz(0.8), 650.0),
                (Freq::from_ghz(1.0), 700.0),
                (Freq::from_ghz(1.4), 760.0),
                (Freq::from_ghz(1.8), 830.0),
                (Freq::from_ghz(2.2), 900.0),
                // Mobile parts run a lower V/F envelope at turbo: the
                // i3-8121U is *current*-limited at 3.1 GHz (Fig. 7(a)),
                // its voltage stays under Vccmax = 1.15 V.
                (Freq::from_ghz(2.6), 980.0),
                (Freq::from_ghz(3.1), 1060.0),
            ])
            // lint:allow(R001): the V/F points above are static
            // platform constants; `VfCurve::new` validates them once
            // and the catalog unit tests construct every platform.
            .expect("valid curve"),
            pstates: PStateTable::new(
                vec![
                    Freq::from_ghz(3.1),
                    Freq::from_ghz(2.8),
                    Freq::from_ghz(2.6),
                    Freq::from_ghz(2.4),
                    Freq::from_ghz(2.2),
                    Freq::from_ghz(2.0),
                    Freq::from_ghz(1.8),
                    Freq::from_ghz(1.6),
                    Freq::from_ghz(1.4),
                    Freq::from_ghz(1.2),
                    Freq::from_ghz(1.0),
                    Freq::from_ghz(0.8),
                ],
                SimTime::from_us(12.0),
            ),
            turbo: TurboTable::new(
                vec![Freq::from_ghz(3.1), Freq::from_ghz(3.1)],
                vec![Freq::from_ghz(2.8), Freq::from_ghz(2.6)],
                vec![Freq::from_ghz(2.4), Freq::from_ghz(2.0)],
                SimTime::from_us(50.0),
                SimTime::from_ms(2.0),
            ),
            limits: ElectricalLimits::new(1150.0, 29.0),
            vr_model: VrModel::mbvr(),
            rll_mohm: 1.9,
            cdyn: CdynTable::default(),
            base_current_a: 2.0,
            leakage_a: 1.5,
            tsc_freq: Freq::from_ghz(2.2),
            avx_pg_wake: Some(SimTime::from_ns(10.0)),
            reset_time: SimTime::from_us(650.0),
        }
    }

    /// Coffee Lake desktop part (Core i7-9700K): 8 cores, no SMT, MBVR,
    /// Vccmax = 1.27 V, Iccmax = 100 A, 3.6 GHz base / 4.9 GHz turbo.
    /// The platform of Figures 6, 7(a) desktop, 8.
    pub fn coffee_lake() -> Self {
        PlatformSpec {
            name: "Coffee Lake i7-9700K",
            n_cores: 8,
            smt: false,
            vf_curve: VfCurve::new(vec![
                (Freq::from_ghz(0.8), 620.0),
                (Freq::from_ghz(1.0), 660.0),
                (Freq::from_ghz(2.0), 788.0),
                (Freq::from_ghz(3.0), 940.0),
                (Freq::from_ghz(3.6), 1020.0),
                (Freq::from_ghz(4.3), 1120.0),
                (Freq::from_ghz(4.8), 1200.0),
                (Freq::from_ghz(4.9), 1250.0),
            ])
            // lint:allow(R001): the V/F points above are static
            // platform constants; `VfCurve::new` validates them once
            // and the catalog unit tests construct every platform.
            .expect("valid curve"),
            pstates: PStateTable::new(
                vec![
                    Freq::from_ghz(4.9),
                    Freq::from_ghz(4.8),
                    Freq::from_ghz(4.6),
                    Freq::from_ghz(4.3),
                    Freq::from_ghz(4.0),
                    Freq::from_ghz(3.6),
                    Freq::from_ghz(3.0),
                    Freq::from_ghz(2.0),
                    Freq::from_ghz(1.0),
                ],
                SimTime::from_us(12.0),
            ),
            turbo: TurboTable::new(
                vec![
                    Freq::from_ghz(4.9),
                    Freq::from_ghz(4.8),
                    Freq::from_ghz(4.7),
                    Freq::from_ghz(4.7),
                    Freq::from_ghz(4.6),
                    Freq::from_ghz(4.6),
                    Freq::from_ghz(4.6),
                    Freq::from_ghz(4.6),
                ],
                vec![
                    Freq::from_ghz(4.8),
                    Freq::from_ghz(4.6),
                    Freq::from_ghz(4.5),
                    Freq::from_ghz(4.4),
                    Freq::from_ghz(4.3),
                    Freq::from_ghz(4.3),
                    Freq::from_ghz(4.2),
                    Freq::from_ghz(4.2),
                ],
                vec![
                    Freq::from_ghz(4.4),
                    Freq::from_ghz(4.3),
                    Freq::from_ghz(4.1),
                    Freq::from_ghz(4.0),
                    Freq::from_ghz(3.9),
                    Freq::from_ghz(3.8),
                    Freq::from_ghz(3.8),
                    Freq::from_ghz(3.7),
                ],
                SimTime::from_us(50.0),
                SimTime::from_ms(2.0),
            ),
            limits: ElectricalLimits::new(1270.0, 100.0),
            vr_model: VrModel::mbvr(),
            rll_mohm: 1.6,
            cdyn: CdynTable::default(),
            base_current_a: 3.0,
            leakage_a: 3.0,
            tsc_freq: Freq::from_ghz(3.6),
            avx_pg_wake: Some(SimTime::from_ns(12.0)),
            reset_time: SimTime::from_us(650.0),
        }
    }

    /// Haswell desktop part (Core i7-4770K): 4 cores / 8 threads, FIVR
    /// (faster, so TP ≈ 9 µs), **no** AVX power gating (pre-Skylake —
    /// Figure 8(c) shows no first-iteration penalty).
    pub fn haswell() -> Self {
        PlatformSpec {
            name: "Haswell i7-4770K",
            n_cores: 4,
            smt: true,
            vf_curve: VfCurve::new(vec![
                (Freq::from_ghz(0.8), 700.0),
                (Freq::from_ghz(1.0), 730.0),
                (Freq::from_ghz(2.0), 850.0),
                (Freq::from_ghz(3.0), 1000.0),
                (Freq::from_ghz(3.5), 1080.0),
                (Freq::from_ghz(3.9), 1180.0),
            ])
            // lint:allow(R001): the V/F points above are static
            // platform constants; `VfCurve::new` validates them once
            // and the catalog unit tests construct every platform.
            .expect("valid curve"),
            pstates: PStateTable::new(
                vec![
                    Freq::from_ghz(3.9),
                    Freq::from_ghz(3.5),
                    Freq::from_ghz(3.0),
                    Freq::from_ghz(2.0),
                    Freq::from_ghz(1.0),
                ],
                SimTime::from_us(12.0),
            ),
            turbo: TurboTable::new(
                vec![
                    Freq::from_ghz(3.9),
                    Freq::from_ghz(3.8),
                    Freq::from_ghz(3.7),
                    Freq::from_ghz(3.7),
                ],
                vec![
                    Freq::from_ghz(3.7),
                    Freq::from_ghz(3.6),
                    Freq::from_ghz(3.5),
                    Freq::from_ghz(3.5),
                ],
                vec![
                    Freq::from_ghz(3.5),
                    Freq::from_ghz(3.4),
                    Freq::from_ghz(3.3),
                    Freq::from_ghz(3.3),
                ],
                SimTime::from_us(50.0),
                SimTime::from_ms(2.0),
            ),
            limits: ElectricalLimits::new(1250.0, 80.0),
            vr_model: VrModel::fivr(),
            rll_mohm: 1.8,
            cdyn: CdynTable::default(),
            base_current_a: 2.5,
            leakage_a: 2.5,
            tsc_freq: Freq::from_ghz(3.5),
            avx_pg_wake: None,
            reset_time: SimTime::from_us(650.0),
        }
    }

    /// A Skylake-SP-style server part (§6.4: "an Intel CPU core has
    /// nearly the same microarchitecture for client and server
    /// processors" — the mechanisms, and therefore the channels, carry
    /// over). 28 cores / 56 threads, higher Iccmax, lower all-core
    /// turbo, same MBVR-style shared rail per socket.
    pub fn skylake_server() -> Self {
        let turbo_row = |one: f64, all: f64| -> Vec<Freq> {
            // Linear taper from the 1-core bin to the 28-core bin,
            // snapped to 100 MHz bins like real parts.
            (0..28)
                .map(|i| {
                    let t = i as f64 / 27.0;
                    let ghz = one + (all - one) * t;
                    Freq::from_mhz((ghz * 10.0).round() * 100.0)
                })
                .collect()
        };
        PlatformSpec {
            name: "Skylake-SP Xeon (server)",
            n_cores: 28,
            smt: true,
            vf_curve: VfCurve::new(vec![
                (Freq::from_ghz(1.0), 680.0),
                (Freq::from_ghz(2.0), 800.0),
                (Freq::from_ghz(2.7), 900.0),
                (Freq::from_ghz(3.2), 1000.0),
                (Freq::from_ghz(3.8), 1100.0),
            ])
            // lint:allow(R001): the V/F points above are static
            // platform constants; `VfCurve::new` validates them once
            // and the catalog unit tests construct every platform.
            .expect("valid curve"),
            pstates: PStateTable::new(
                vec![
                    Freq::from_ghz(3.8),
                    Freq::from_ghz(3.5),
                    Freq::from_ghz(3.2),
                    Freq::from_ghz(3.0),
                    Freq::from_ghz(2.7),
                    Freq::from_ghz(2.4),
                    Freq::from_ghz(2.0),
                    Freq::from_ghz(1.6),
                    Freq::from_ghz(1.2),
                    Freq::from_ghz(1.0),
                ],
                SimTime::from_us(12.0),
            ),
            turbo: TurboTable::new(
                turbo_row(3.8, 3.2),
                turbo_row(3.5, 2.8),
                turbo_row(3.2, 2.4),
                SimTime::from_us(50.0),
                SimTime::from_ms(2.0),
            ),
            limits: ElectricalLimits::new(1200.0, 250.0),
            vr_model: VrModel::mbvr(),
            rll_mohm: 0.9, // beefier server VR: lower load-line impedance
            cdyn: CdynTable::default(),
            base_current_a: 12.0,
            leakage_a: 10.0,
            tsc_freq: Freq::from_ghz(2.7),
            avx_pg_wake: Some(SimTime::from_ns(12.0)),
            reset_time: SimTime::from_us(650.0),
        }
    }

    /// All three characterized platforms (Figure 8(a)).
    pub fn all() -> Vec<PlatformSpec> {
        vec![
            PlatformSpec::haswell(),
            PlatformSpec::coffee_lake(),
            PlatformSpec::cannon_lake(),
        ]
    }

    /// Every platform the workspace can simulate: the three paper
    /// platforms plus the §6.4 server extrapolation. This is the
    /// catalog campaign sweeps draw from.
    pub fn catalog() -> Vec<PlatformSpec> {
        vec![
            PlatformSpec::haswell(),
            PlatformSpec::coffee_lake(),
            PlatformSpec::cannon_lake(),
            PlatformSpec::skylake_server(),
        ]
    }

    /// Builds the guardband model of this platform.
    pub fn guardband(&self) -> GuardbandModel {
        GuardbandModel::new(self.cdyn.clone(), self.rll_mohm)
    }

    /// Builds the current model of this platform.
    pub fn current_model(&self) -> CurrentModel {
        CurrentModel::new(
            self.cdyn.clone(),
            self.base_current_a,
            self.leakage_a,
            0.004,
        )
    }

    /// Number of hardware threads per core (1 or 2).
    pub fn threads_per_core(&self) -> usize {
        if self.smt {
            2
        } else {
            1
        }
    }
}

/// Trace recording configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Uniform sampling period, `None` disables the trace.
    pub sample_period: Option<SimTime>,
}

/// Full simulator configuration: platform + policies + mitigations.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// The processor being simulated.
    pub platform: PlatformSpec,
    /// Software frequency governor.
    pub governor: Governor,
    /// Mitigation §7: per-core (LDO) voltage regulators.
    pub per_core_vr: bool,
    /// Mitigation §7: secure mode (pinned worst-case guardband).
    pub secure_mode: bool,
    /// Mitigation §7: improved (per-thread, PHI-only) core throttling.
    pub throttle_policy: ThrottlePolicy,
    /// OS noise injection.
    pub noise: NoiseConfig,
    /// Trace recording.
    pub trace: TraceConfig,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
}

impl SocConfig {
    /// A quiet (noise-free) configuration for `platform` with the
    /// performance governor and no mitigations.
    pub fn quiet(platform: PlatformSpec) -> Self {
        SocConfig {
            platform,
            governor: Governor::Performance,
            per_core_vr: false,
            secure_mode: false,
            throttle_policy: ThrottlePolicy::BlockEntireCore,
            noise: NoiseConfig::quiet(),
            trace: TraceConfig::default(),
            seed: 0x1C4A_77E1,
        }
    }

    /// Same, but with the userspace governor pinned to `freq` — the
    /// paper's fixed-frequency characterization setup (Figures 6, 10).
    pub fn pinned(platform: PlatformSpec, freq: Freq) -> Self {
        let mut cfg = SocConfig::quiet(platform);
        cfg.governor = Governor::Userspace(freq);
        cfg
    }

    /// Applies the per-core-VR mitigation (LDO rails, no shared SVID).
    pub fn with_per_core_vr(mut self) -> Self {
        self.per_core_vr = true;
        self.platform.vr_model = VrModel::ldo();
        self
    }

    /// Applies the secure-mode mitigation.
    pub fn with_secure_mode(mut self) -> Self {
        self.secure_mode = true;
        self
    }

    /// Applies the improved-throttling mitigation.
    pub fn with_improved_throttling(mut self) -> Self {
        self.throttle_policy = ThrottlePolicy::PerThreadPhiOnly;
        self
    }

    /// Enables trace recording at the given period.
    pub fn with_trace(mut self, period: SimTime) -> Self {
        self.trace.sample_period = Some(period);
        self
    }

    /// Sets the OS noise configuration.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// Thermal model (same RC constants across the client platforms).
    pub fn thermal_model(&self) -> ThermalModel {
        ThermalModel::client_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup_by_name() {
        let names: Vec<&str> = PlatformSpec::catalog().iter().map(|p| p.name).collect();
        assert!(names.contains(&PlatformSpec::cannon_lake().name));
        assert!(names.contains(&PlatformSpec::skylake_server().name));
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn presets_are_consistent() {
        for p in PlatformSpec::catalog() {
            assert!(p.n_cores >= 2);
            assert!(p.pstates.max() <= p.vf_curve.max_freq());
            assert!(p.tsc_freq.as_hz() > 0);
            // Turbo table covers at least min(4, n_cores) core counts.
            assert!(p.turbo.core_counts() >= p.n_cores.min(4));
        }
    }

    #[test]
    fn cannon_lake_matches_paper_numbers() {
        let p = PlatformSpec::cannon_lake();
        assert_eq!(p.n_cores, 2);
        assert!(p.smt);
        assert_eq!(p.limits.vccmax_mv(), 1150.0);
        assert_eq!(p.limits.iccmax_a(), 29.0);
        assert_eq!(p.pstates.max(), Freq::from_ghz(3.1));
    }

    #[test]
    fn coffee_lake_matches_paper_numbers() {
        let p = PlatformSpec::coffee_lake();
        assert_eq!(p.n_cores, 8);
        assert!(
            !p.smt,
            "i7-9700K has no SMT (the paper tests IccSMTcovert only on Cannon Lake)"
        );
        assert_eq!(p.limits.vccmax_mv(), 1270.0);
        assert_eq!(p.limits.iccmax_a(), 100.0);
    }

    #[test]
    fn haswell_has_no_avx_power_gate() {
        let p = PlatformSpec::haswell();
        assert!(p.avx_pg_wake.is_none());
        // FIVR is faster than the MBVR parts (Figure 8(a)).
        let d = 30.0;
        assert!(
            p.vr_model.transition_time(d) < PlatformSpec::coffee_lake().vr_model.transition_time(d)
        );
    }

    #[test]
    fn mitigation_builders() {
        let cfg = SocConfig::quiet(PlatformSpec::cannon_lake())
            .with_per_core_vr()
            .with_secure_mode()
            .with_improved_throttling();
        assert!(cfg.per_core_vr);
        assert!(cfg.secure_mode);
        assert_eq!(cfg.throttle_policy, ThrottlePolicy::PerThreadPhiOnly);
    }

    #[test]
    fn pinned_config_uses_userspace_governor() {
        let cfg = SocConfig::pinned(PlatformSpec::coffee_lake(), Freq::from_ghz(2.0));
        match cfg.governor {
            Governor::Userspace(f) => assert_eq!(f, Freq::from_ghz(2.0)),
            g => panic!("unexpected governor {g:?}"),
        }
    }
}

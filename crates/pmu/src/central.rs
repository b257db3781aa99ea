//! The central power management unit.
//!
//! The central PMU owns the package voltage rails: it arbitrates per-core
//! guardband licenses, computes the package voltage target (V/F base +
//! the additive per-core guardbands of Equation 1), and schedules VR
//! transitions over the serializing SVID interface. A core that raises
//! its license is **throttled until its transition completes** — this is
//! the throttling period (TP) every IChannels covert channel measures.
//!
//! Two of the paper's §7 mitigations live here as configuration:
//! per-core VRs ([`PmuConfig::per_core_vr`]) remove the cross-core SVID
//! serialization, and secure mode ([`PmuConfig::secure_mode`]) pins the
//! worst-case guardband so no transitions (hence no throttling) ever
//! happen.

use crate::license::CoreLicense;
use ichannels_pdn::guardband::GuardbandModel;
use ichannels_pdn::regulator::VrModel;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::{Freq, SimTime};
use std::collections::VecDeque;

/// One scheduled linear ramp of a voltage rail.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    ramp_start: SimTime,
    end: SimTime,
    from_mv: f64,
    to_mv: f64,
}

/// Maximum retained ramp history per rail. Once a rail holds this many
/// ramps, each new ramp evicts the oldest; a query older than every
/// retained ramp reads the oldest ramp's starting voltage.
pub const MAX_SEGMENTS: usize = 4096;

/// A voltage rail: a VR plus its serializing command interface, with the
/// last [`MAX_SEGMENTS`] voltage ramps it scheduled.
///
/// Only [`Self::voltage_at`] reads that history, to answer for instants
/// before `free_at`. It is a ring: scheduling on a full rail evicts the
/// oldest ramp in O(1), and the buffer never grows past `MAX_SEGMENTS`.
#[derive(Debug, Clone, PartialEq)]
pub struct VrRail {
    model: VrModel,
    free_at: SimTime,
    setpoint_mv: f64,
    segments: VecDeque<Segment>,
}

impl VrRail {
    /// Creates a rail settled at `initial_mv`.
    pub fn new(model: VrModel, initial_mv: f64) -> Self {
        VrRail {
            model,
            free_at: SimTime::ZERO,
            setpoint_mv: initial_mv,
            segments: VecDeque::new(),
        }
    }

    /// Number of voltage ramps currently retained (at most
    /// [`MAX_SEGMENTS`]).
    pub fn retained_ramps(&self) -> usize {
        self.segments.len()
    }

    /// Resets the rail to a freshly-constructed state settled at
    /// `initial_mv`, reusing the segment buffer's allocation.
    pub fn reset(&mut self, initial_mv: f64) {
        self.free_at = SimTime::ZERO;
        self.setpoint_mv = initial_mv;
        self.segments.clear();
    }

    /// Final setpoint (where the rail will settle after all scheduled
    /// transitions complete).
    pub fn setpoint_mv(&self) -> f64 {
        self.setpoint_mv
    }

    /// Earliest instant a new transition could start.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Schedules a transition to `target_mv`, requested at `now`. The
    /// transition queues behind any in-flight transition (SVID
    /// serialization). Returns `(start, end)` of the transition window.
    pub fn schedule(&mut self, now: SimTime, target_mv: f64) -> (SimTime, SimTime) {
        let start = now.max(self.free_at);
        let from = self.setpoint_mv;
        let delta = (target_mv - from).abs();
        let ramp_start = start + self.model.cmd_latency;
        let end = ramp_start + self.model.ramp_time(delta);
        if self.segments.len() == MAX_SEGMENTS {
            self.segments.pop_front();
        }
        self.segments.push_back(Segment {
            ramp_start,
            end,
            from_mv: from,
            to_mv: target_mv,
        });
        self.setpoint_mv = target_mv;
        self.free_at = end;
        (start, end)
    }

    /// Instantaneous rail voltage at `t`.
    pub fn voltage_at(&self, t: SimTime) -> f64 {
        // Settled fast path: at or past `free_at` every retained ramp
        // has completed, so the rail sits at its final setpoint (the
        // last segment's `to_mv`, which `schedule` keeps in sync).
        if t >= self.free_at {
            return self.setpoint_mv;
        }
        // Find the last segment whose ramp has begun by `t`.
        let idx = self.segments.partition_point(|s| s.ramp_start <= t);
        if idx == 0 {
            return match self.segments.front() {
                // Before any retained ramp: the pre-history voltage.
                Some(s) => s.from_mv,
                None => self.setpoint_mv,
            };
        }
        let s = &self.segments[idx - 1];
        if t >= s.end {
            s.to_mv
        } else {
            let frac = (t - s.ramp_start) / (s.end - s.ramp_start);
            s.from_mv + (s.to_mv - s.from_mv) * frac
        }
    }
}

/// Configuration of the central PMU.
#[derive(Debug, Clone)]
pub struct PmuConfig {
    /// Number of physical cores sharing the package.
    pub n_cores: usize,
    /// Guardband model (Equation 1 parameters).
    pub guardband: GuardbandModel,
    /// Voltage regulator electrical model.
    pub vr_model: VrModel,
    /// Hysteresis window (the paper's 650 µs reset-time).
    pub reset_time: SimTime,
    /// Mitigation: one VR per core instead of a single shared rail.
    pub per_core_vr: bool,
    /// Mitigation: pin the worst-case guardband (no transitions, no
    /// throttling; costs static power).
    pub secure_mode: bool,
}

/// Outcome of notifying the PMU that a core starts executing a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecGrant {
    /// Instant at which the core may execute at full rate. Equal to the
    /// notification time when no transition was needed; otherwise the end
    /// of the voltage transition — the core is throttled until then.
    pub ready_at: SimTime,
    /// The `(start, end)` of the scheduled transition, if one was needed.
    pub transition: Option<(SimTime, SimTime)>,
}

/// The central PMU state machine.
///
/// # Examples
///
/// ```
/// use ichannels_pmu::central::{CentralPmu, PmuConfig};
/// use ichannels_pdn::guardband::{CdynTable, GuardbandModel};
/// use ichannels_pdn::regulator::VrModel;
/// use ichannels_uarch::isa::InstClass;
/// use ichannels_uarch::time::{Freq, SimTime};
///
/// let cfg = PmuConfig {
///     n_cores: 2,
///     guardband: GuardbandModel::new(CdynTable::default(), 1.9),
///     vr_model: VrModel::mbvr(),
///     reset_time: SimTime::from_us(650.0),
///     per_core_vr: false,
///     secure_mode: false,
/// };
/// let mut pmu = CentralPmu::new(cfg, Freq::from_ghz(1.4), 760.0);
/// let g = pmu.on_execute(0, InstClass::Heavy512, SimTime::ZERO);
/// // A 512b-Heavy license raise needs a voltage ramp → throttled for µs.
/// assert!(g.ready_at.as_us() > 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct CentralPmu {
    cfg: PmuConfig,
    licenses: Vec<CoreLicense>,
    /// Ascending indices of the cores with any [`Self::on_execute`]
    /// since construction or the last [`Self::reset`]. Every other
    /// license is still fresh: Scalar64, whose guardband term is
    /// `+0.0` and which never lowers the package max class, with no
    /// pending decay. So the shared-rail target and `next_decay` visit
    /// only these cores, in the same ascending order as a full scan,
    /// and compute bit-identical results.
    licensed: Vec<usize>,
    rails: Vec<VrRail>,
    base_mv: f64,
    freq: Freq,
    /// Rail targets are provably unchanged before this instant: license
    /// levels are piecewise-constant between executions and decay
    /// expiries, and `target_mv` depends only on those levels plus the
    /// operating point. Any mutation (execution, P-state change, reset)
    /// clears this to `SimTime::ZERO`; a completed decay scan advances it
    /// to the earliest pending decay. Purely a skip memo for
    /// [`Self::process_decays`] — it never alters results.
    targets_valid_until: SimTime,
}

impl CentralPmu {
    /// Creates the PMU at an initial operating point (`freq`, `base_mv`
    /// from the V/F curve).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn new(cfg: PmuConfig, freq: Freq, base_mv: f64) -> Self {
        assert!(cfg.n_cores > 0, "PMU needs at least one core");
        let n_rails = if cfg.per_core_vr { cfg.n_cores } else { 1 };
        let initial_mv = if cfg.secure_mode {
            // Secure mode: start (and stay) at the worst-case guardband.
            let per_core = if cfg.per_core_vr { 1 } else { cfg.n_cores };
            base_mv
                + cfg
                    .guardband
                    .secure_mode_guardband_mv(per_core, base_mv, freq)
        } else {
            base_mv
        };
        let rails = (0..n_rails)
            .map(|_| VrRail::new(cfg.vr_model, initial_mv))
            .collect();
        let licenses = (0..cfg.n_cores)
            .map(|_| CoreLicense::new(cfg.reset_time))
            .collect();
        CentralPmu {
            cfg,
            licenses,
            licensed: Vec::new(),
            rails,
            base_mv,
            freq,
            targets_valid_until: SimTime::ZERO,
        }
    }

    /// Resets the PMU to its exactly-as-constructed state at an initial
    /// operating point, reusing the license and rail allocations
    /// (including each rail's retained segment buffer). Equivalent to
    /// `CentralPmu::new(cfg, freq, base_mv)` with the same config.
    pub fn reset(&mut self, freq: Freq, base_mv: f64) {
        self.freq = freq;
        self.base_mv = base_mv;
        let initial_mv = if self.cfg.secure_mode {
            let per_core = if self.cfg.per_core_vr {
                1
            } else {
                self.cfg.n_cores
            };
            base_mv
                + self
                    .cfg
                    .guardband
                    .secure_mode_guardband_mv(per_core, base_mv, freq)
        } else {
            base_mv
        };
        for rail in &mut self.rails {
            rail.reset(initial_mv);
        }
        for license in &mut self.licenses {
            license.reset();
        }
        self.licensed.clear();
        self.targets_valid_until = SimTime::ZERO;
    }

    /// Current core clock frequency (shared clock domain).
    pub fn freq(&self) -> Freq {
        self.freq
    }

    fn rail_index(&self, core: usize) -> usize {
        if self.cfg.per_core_vr {
            core
        } else {
            0
        }
    }

    /// The rail supplying `core` (read access, e.g. for tracing).
    pub fn rail(&self, core: usize) -> &VrRail {
        &self.rails[self.rail_index(core)]
    }

    /// Instantaneous supply voltage of `core` at `t`.
    pub fn core_voltage_mv(&self, core: usize, t: SimTime) -> f64 {
        self.rail(core).voltage_at(t)
    }

    /// Effective license level of `core` at `now`.
    pub fn effective_level(&self, core: usize, now: SimTime) -> u8 {
        self.licenses[core].effective_level(now)
    }

    /// Effective license of `core` at `now`, as an instruction class.
    pub fn effective_class(&self, core: usize, now: SimTime) -> InstClass {
        self.licenses[core].effective_class(now)
    }

    /// The voltage target of the rail supplying `core`, given current
    /// licenses at `now`.
    fn target_mv(&self, rail_core: usize, now: SimTime) -> f64 {
        if self.cfg.secure_mode {
            let per_core = if self.cfg.per_core_vr {
                1
            } else {
                self.cfg.n_cores
            };
            return self.base_mv
                + self
                    .cfg
                    .guardband
                    .secure_mode_guardband_mv(per_core, self.base_mv, self.freq);
        }
        let gb = if self.cfg.per_core_vr {
            let class = Some(self.licenses[rail_core].effective_class(now));
            self.cfg.guardband.package_guardband_iter_mv(
                std::iter::once(class),
                self.base_mv,
                self.freq,
            )
        } else {
            let classes = self
                .licensed
                .iter()
                .map(|&c| Some(self.licenses[c].effective_class(now)));
            self.cfg
                .guardband
                .package_guardband_iter_mv(classes, self.base_mv, self.freq)
        };
        self.base_mv + gb
    }

    /// Notifies the PMU that `core` starts executing a loop of `class`
    /// instructions at `now`.
    ///
    /// If the class exceeds the core's effective license, the license is
    /// raised and a voltage transition is scheduled; the returned grant
    /// says when the core stops being throttled.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn on_execute(&mut self, core: usize, class: InstClass, now: SimTime) -> ExecGrant {
        assert!(core < self.cfg.n_cores, "core {core} out of range");
        let current = self.licenses[core].effective_level(now);
        let need = class.intensity_rank();
        self.licenses[core].record_execution(class, now);
        if let Err(at) = self.licensed.binary_search(&core) {
            self.licensed.insert(at, core);
        }
        // Even a same-level execution extends the license window, which
        // moves the pending decay — the cached decay-scan horizon is
        // stale either way.
        self.targets_valid_until = SimTime::ZERO;
        if self.cfg.secure_mode || need <= current {
            return ExecGrant {
                ready_at: now,
                transition: None,
            };
        }
        let rail_idx = self.rail_index(core);
        let target = self.target_mv(core, now);
        let (start, end) = self.rails[rail_idx].schedule(now, target);
        ExecGrant {
            ready_at: end,
            transition: Some((start, end)),
        }
    }

    /// The next instant at which any core's license decays, if any.
    pub fn next_decay(&self, now: SimTime) -> Option<SimTime> {
        self.licensed
            .iter()
            .filter_map(|&c| self.licenses[c].next_decay(now))
            .min()
    }

    /// Processes license decays at `now`: recomputes rail targets and
    /// schedules the (non-throttling) ramp-downs. Returns `true` if any
    /// rail was retargeted.
    pub fn process_decays(&mut self, now: SimTime) -> bool {
        if self.cfg.secure_mode {
            return false;
        }
        // License levels (hence rail targets) cannot have changed since
        // the last scan before the earliest pending decay, so the scan
        // below would compare every rail against an identical target and
        // report no change — skip it.
        if now < self.targets_valid_until {
            return false;
        }
        let mut changed = false;
        let rail_count = self.rails.len();
        for rail_idx in 0..rail_count {
            let target = self.target_mv(rail_idx, now);
            if (target - self.rails[rail_idx].setpoint_mv()).abs() > 1e-9 {
                self.rails[rail_idx].schedule(now, target);
                changed = true;
            }
        }
        self.targets_valid_until = self.next_decay(now).unwrap_or(SimTime::MAX);
        changed
    }

    /// Switches the package operating point (P-state change): updates
    /// frequency and base voltage and retargets every rail.
    pub fn set_operating_point(&mut self, now: SimTime, freq: Freq, base_mv: f64) {
        self.freq = freq;
        self.base_mv = base_mv;
        let rail_count = self.rails.len();
        for rail_idx in 0..rail_count {
            let target = self.target_mv(rail_idx, now);
            self.rails[rail_idx].schedule(now, target);
        }
        // Every rail setpoint now equals its target at `now`, and targets
        // hold until the next license decay.
        self.targets_valid_until = self.next_decay(now).unwrap_or(SimTime::MAX);
    }

    /// The final setpoint of the (first) rail — the package voltage once
    /// all scheduled transitions settle.
    pub fn package_setpoint_mv(&self) -> f64 {
        self.rails[0].setpoint_mv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ichannels_pdn::guardband::CdynTable;

    fn cfg() -> PmuConfig {
        PmuConfig {
            n_cores: 2,
            guardband: GuardbandModel::new(CdynTable::default(), 1.9),
            vr_model: VrModel::mbvr(),
            reset_time: SimTime::from_us(650.0),
            per_core_vr: false,
            secure_mode: false,
        }
    }

    fn pmu() -> CentralPmu {
        CentralPmu::new(cfg(), Freq::from_ghz(1.4), 760.0)
    }

    /// A Scalar64 execution recorded on every core puts every core on
    /// the licensed list, so the PMU then visits all cores as a full
    /// scan would. Grants, rail setpoints, rail voltages and pending
    /// decays must match a PMU that only saw the real schedule, bit for
    /// bit, on a shared rail, per-core rails and in secure mode.
    #[test]
    fn scalar_execution_on_every_core_changes_nothing() {
        enum Op {
            Exec(usize, InstClass),
            Decays,
            OperatingPoint(f64, f64),
        }
        let schedule = [
            (0.5, Op::OperatingPoint(1.8, 800.0)),
            (1.0, Op::Exec(4, InstClass::Heavy512)),
            (1.2, Op::Exec(1, InstClass::Heavy128)),
            (20.0, Op::Decays),
            (30.0, Op::Exec(4, InstClass::Light256)),
            (90.0, Op::OperatingPoint(2.0, 820.0)),
            (400.0, Op::Exec(1, InstClass::Heavy512)),
            (651.0, Op::Decays),
            (700.0, Op::Exec(5, InstClass::Light512)),
            (1_051.0, Op::Decays),
            (1_400.0, Op::Decays),
            (2_000.0, Op::Decays),
        ];
        for (per_core_vr, secure_mode) in [(false, false), (true, false), (false, true)] {
            let cfg = PmuConfig {
                n_cores: 6,
                per_core_vr,
                secure_mode,
                ..cfg()
            };
            let mut sparse = CentralPmu::new(cfg, Freq::from_ghz(1.4), 760.0);
            let mut full = sparse.clone();
            for core in 0..6 {
                full.on_execute(core, InstClass::Scalar64, SimTime::ZERO);
            }
            for (t_us, op) in &schedule {
                let t = SimTime::from_us(*t_us);
                match *op {
                    Op::Exec(core, class) => assert_eq!(
                        sparse.on_execute(core, class, t),
                        full.on_execute(core, class, t),
                        "grant at {t}"
                    ),
                    Op::Decays => {
                        assert_eq!(sparse.process_decays(t), full.process_decays(t));
                    }
                    Op::OperatingPoint(ghz, mv) => {
                        sparse.set_operating_point(t, Freq::from_ghz(ghz), mv);
                        full.set_operating_point(t, Freq::from_ghz(ghz), mv);
                    }
                }
                assert_eq!(sparse.next_decay(t), full.next_decay(t), "decay at {t}");
                for core in 0..6 {
                    let (a, b) = (sparse.rail(core), full.rail(core));
                    assert_eq!(a.setpoint_mv().to_bits(), b.setpoint_mv().to_bits());
                    assert_eq!(a.free_at(), b.free_at());
                    for dt in [0.0, 0.5, 3.0, 12.0] {
                        let at = t + SimTime::from_us(dt);
                        assert_eq!(a.voltage_at(at).to_bits(), b.voltage_at(at).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_execution_never_throttles() {
        let mut p = pmu();
        let g = p.on_execute(0, InstClass::Scalar64, SimTime::ZERO);
        assert_eq!(g.ready_at, SimTime::ZERO);
        assert!(g.transition.is_none());
    }

    #[test]
    fn phi_triggers_multi_microsecond_throttle() {
        let mut p = pmu();
        let g = p.on_execute(0, InstClass::Heavy512, SimTime::ZERO);
        let tp = g.ready_at.as_us();
        assert!((5.0..20.0).contains(&tp), "TP = {tp} µs");
    }

    #[test]
    fn tp_is_multi_level_in_preceding_class() {
        // Figure 10(b): the TP of a 512b-Heavy loop depends on which
        // class ran before it — lower preceding intensity ⇒ longer TP.
        let mut tps = Vec::new();
        for prev in InstClass::ALL {
            let mut p = pmu();
            let g0 = p.on_execute(0, prev, SimTime::ZERO);
            // Run the 512b-Heavy loop right after the first settles.
            let t1 = g0.ready_at + SimTime::from_us(1.0);
            let g1 = p.on_execute(0, InstClass::Heavy512, t1);
            tps.push((g1.ready_at.saturating_sub(t1)).as_us());
        }
        // Monotone non-increasing with preceding intensity; 512b-Heavy
        // preceding ⇒ no further transition at all.
        for w in tps.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "tps = {tps:?}");
        }
        assert_eq!(*tps.last().unwrap(), 0.0);
        // At least 5 distinct levels (Key Conclusion 4).
        let mut distinct: Vec<f64> = Vec::new();
        for tp in &tps {
            if !distinct.iter().any(|d| (d - tp).abs() < 0.3) {
                distinct.push(*tp);
            }
        }
        assert!(distinct.len() >= 5, "levels: {tps:?}");
    }

    #[test]
    fn same_license_is_free_within_reset_time() {
        let mut p = pmu();
        let g0 = p.on_execute(0, InstClass::Heavy256, SimTime::ZERO);
        let t1 = g0.ready_at + SimTime::from_us(10.0);
        let g1 = p.on_execute(0, InstClass::Heavy256, t1);
        assert_eq!(g1.ready_at, t1);
    }

    #[test]
    fn license_decays_after_reset_time() {
        let mut p = pmu();
        let g0 = p.on_execute(0, InstClass::Heavy256, SimTime::ZERO);
        assert!(p.effective_level(0, g0.ready_at) > 0);
        let after = SimTime::from_us(651.0);
        assert_eq!(p.effective_level(0, after), 0);
        assert!(p.process_decays(after));
        // Re-execution needs a fresh ramp → throttled again.
        let t2 = SimTime::from_us(700.0);
        let g2 = p.on_execute(0, InstClass::Heavy256, t2);
        assert!(g2.ready_at > t2);
    }

    #[test]
    fn cross_core_requests_serialize_on_shared_rail() {
        // Observation 3: core 1's transition waits for core 0's.
        let mut p = pmu();
        let g0 = p.on_execute(0, InstClass::Heavy512, SimTime::ZERO);
        let t1 = SimTime::from_us(0.2); // within a few hundred cycles
        let g1 = p.on_execute(1, InstClass::Heavy128, t1);
        let (start1, _) = g1.transition.unwrap();
        assert_eq!(start1, g0.ready_at, "core1 must queue behind core0");
        assert!(g1.ready_at > g0.ready_at);
    }

    #[test]
    fn per_core_vr_removes_cross_core_serialization() {
        let mut c = cfg();
        c.per_core_vr = true;
        c.vr_model = VrModel::ldo();
        let mut p = CentralPmu::new(c, Freq::from_ghz(1.4), 760.0);
        let _g0 = p.on_execute(0, InstClass::Heavy512, SimTime::ZERO);
        let t1 = SimTime::from_us(0.2);
        let g1 = p.on_execute(1, InstClass::Heavy128, t1);
        let (start1, _) = g1.transition.unwrap();
        assert_eq!(start1, t1, "per-core VR must not queue behind core 0");
        // And the LDO transition is sub-µs (§7: < 0.5 µs).
        assert!((g1.ready_at - t1).as_us() < 0.5);
    }

    #[test]
    fn secure_mode_never_throttles() {
        let mut c = cfg();
        c.secure_mode = true;
        let mut p = CentralPmu::new(c, Freq::from_ghz(1.4), 760.0);
        for class in InstClass::ALL {
            let g = p.on_execute(0, class, SimTime::from_us(1.0));
            assert_eq!(g.ready_at, SimTime::from_us(1.0), "class {class}");
        }
        // Voltage sits at the worst-case guardband.
        let v = p.core_voltage_mv(0, SimTime::ZERO);
        assert!(v > 760.0);
        assert!(!p.process_decays(SimTime::from_ms(10.0)));
    }

    #[test]
    fn two_phi_cores_raise_voltage_in_two_steps() {
        // Figure 6(a): two cores running AVX2 → two voltage steps. The
        // second step is the per-core share only (the shared max-license
        // component was already paid by the first core).
        let mut p = pmu();
        let g0 = p.on_execute(0, InstClass::Heavy256, SimTime::ZERO);
        let v1 = p.package_setpoint_mv();
        let _ = p.on_execute(1, InstClass::Heavy256, g0.ready_at + SimTime::from_us(5.0));
        let v2 = p.package_setpoint_mv();
        let step1 = v1 - 760.0;
        let step2 = v2 - v1;
        assert!(step1 > 2.0 && step2 > 2.0, "steps {step1} / {step2}");
        assert!(step2 <= step1, "steps {step1} / {step2}");
        assert!(step2 > step1 * 0.5, "steps {step1} / {step2}");
    }

    #[test]
    fn rail_voltage_timeline_is_piecewise_linear() {
        let mut rail = VrRail::new(VrModel::mbvr(), 700.0);
        let (_s, e) = rail.schedule(SimTime::ZERO, 724.0);
        assert_eq!(rail.voltage_at(SimTime::ZERO), 700.0);
        assert_eq!(rail.voltage_at(e), 724.0);
        let mid = SimTime::from_us(1.2) + (e - SimTime::from_us(1.2)).scale(0.5);
        assert!((rail.voltage_at(mid) - 712.0).abs() < 0.05);
        // A second scheduled ramp queues after the first.
        let (s2, e2) = rail.schedule(SimTime::from_us(2.0), 700.0);
        assert_eq!(s2, e);
        assert_eq!(rail.voltage_at(e2), 700.0);
    }

    /// The rail history as it was kept before the ring: every ramp in a
    /// plain `Vec`, trimmed from the front with `drain` once it exceeds
    /// `MAX_SEGMENTS`, with the same voltage lookup.
    struct DrainRail {
        setpoint_mv: f64,
        free_at: SimTime,
        segments: Vec<Segment>,
    }

    impl DrainRail {
        fn push(&mut self, s: Segment) {
            self.segments.push(s);
            if self.segments.len() > MAX_SEGMENTS {
                let drop = self.segments.len() - MAX_SEGMENTS;
                self.segments.drain(..drop);
            }
            self.setpoint_mv = s.to_mv;
            self.free_at = s.end;
        }

        fn voltage_at(&self, t: SimTime) -> f64 {
            if t >= self.free_at {
                return self.setpoint_mv;
            }
            let idx = self.segments.partition_point(|s| s.ramp_start <= t);
            if idx == 0 {
                return self
                    .segments
                    .first()
                    .map_or(self.setpoint_mv, |s| s.from_mv);
            }
            let s = &self.segments[idx - 1];
            if t >= s.end {
                s.to_mv
            } else {
                let frac = (t - s.ramp_start) / (s.end - s.ramp_start);
                s.from_mv + (s.to_mv - s.from_mv) * frac
            }
        }
    }

    /// Schedules `n` transitions on `rail`: targets in 700–760 mV,
    /// requests spaced 0–22.5 µs apart, so some queue behind an in-flight
    /// ramp and some find the rail settled.
    fn drive_rail(rail: &mut VrRail, n: usize, mut each: impl FnMut(&VrRail)) {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let target = 700.0 + (x >> 40) as f64 / (1u64 << 24) as f64 * 60.0;
            now += SimTime::from_us((x >> 60) as f64 * 1.5);
            rail.schedule(now, target);
            each(rail);
        }
    }

    #[test]
    fn rail_ring_answers_like_the_drained_vec() {
        let mut rail = VrRail::new(VrModel::mbvr(), 730.0);
        let mut reference = DrainRail {
            setpoint_mv: 730.0,
            free_at: SimTime::ZERO,
            segments: Vec::new(),
        };
        let mut scheduled = 0;
        drive_rail(&mut rail, 3 * MAX_SEGMENTS, |rail| {
            reference.push(*rail.segments.back().unwrap());
            scheduled += 1;
            assert!(rail.retained_ramps() <= MAX_SEGMENTS);
            assert!(rail.segments.capacity() <= MAX_SEGMENTS);
            if scheduled % (MAX_SEGMENTS / 4) != 0 {
                return;
            }
            assert!(rail.segments.iter().eq(reference.segments.iter()));
            let mut probes = vec![SimTime::ZERO, rail.free_at()];
            for s in &rail.segments {
                probes.push(s.ramp_start);
                probes.push(s.ramp_start + (s.end - s.ramp_start).scale(0.5));
                probes.push(s.end);
            }
            for t in probes {
                assert_eq!(
                    rail.voltage_at(t).to_bits(),
                    reference.voltage_at(t).to_bits(),
                    "t = {t:?} after {scheduled} transitions"
                );
            }
        });
        assert_eq!(rail.retained_ramps(), MAX_SEGMENTS);
    }

    #[test]
    fn reset_of_a_wrapped_rail_equals_a_fresh_rail() {
        let mut rail = VrRail::new(VrModel::mbvr(), 730.0);
        drive_rail(&mut rail, MAX_SEGMENTS + 17, |_| {});
        assert_eq!(rail.retained_ramps(), MAX_SEGMENTS);
        rail.reset(745.0);
        assert_eq!(rail, VrRail::new(VrModel::mbvr(), 745.0));
    }

    #[test]
    fn operating_point_change_retargets_rail() {
        let mut p = pmu();
        p.set_operating_point(SimTime::ZERO, Freq::from_ghz(2.2), 900.0);
        assert_eq!(p.freq(), Freq::from_ghz(2.2));
        let settle = SimTime::from_ms(1.0);
        assert!((p.core_voltage_mv(0, settle) - 900.0).abs() < 1e-6);
    }
}

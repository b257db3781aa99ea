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
use crate::memo::ExactMemo;
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

/// Ramps [`VrRail::voltage_at`] checks, newest first, before it
/// bisects the whole history.
const NEWEST_PROBES: usize = 4;

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
        let ramp = self.model.ramp_time((target_mv - self.setpoint_mv).abs());
        self.schedule_ramp(now, target_mv, ramp)
    }

    /// [`Self::schedule`], reading the ramp time from `memo` (which
    /// holds `ramp_time` of this rail's model keyed by the delta's bits).
    fn schedule_memo(
        &mut self,
        now: SimTime,
        target_mv: f64,
        memo: &mut RampMemo,
    ) -> (SimTime, SimTime) {
        let delta = (target_mv - self.setpoint_mv).abs();
        let model = self.model;
        let ramp = memo.get_or_insert_with(delta.to_bits(), || model.ramp_time(delta));
        self.schedule_ramp(now, target_mv, ramp)
    }

    /// Appends the transition to `target_mv` that takes `ramp` after
    /// its command latency.
    fn schedule_ramp(&mut self, now: SimTime, target_mv: f64, ramp: SimTime) -> (SimTime, SimTime) {
        let start = now.max(self.free_at);
        let from = self.setpoint_mv;
        let ramp_start = start + self.model.cmd_latency;
        let end = ramp_start + ramp;
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
        // Find the last segment whose ramp has begun by `t`. Ramps are
        // scheduled in `ramp_start` order and a query below `free_at`
        // almost always falls in one of the newest few, so scanning back
        // from the newest gives `partition_point`'s index in a probe or
        // two; past `NEWEST_PROBES` ramps, bisect.
        let n = self.segments.len();
        let mut newest = self.segments.iter().rev().take(NEWEST_PROBES);
        let idx = match newest.position(|s| s.ramp_start <= t) {
            Some(back) => n - back,
            None if n <= NEWEST_PROBES => 0,
            None => self.segments.partition_point(|s| s.ramp_start <= t),
        };
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

/// `VrModel::ramp_time` of one regulator, keyed by the delta's bits.
type RampMemo = ExactMemo<u64, SimTime, 64>;

/// Rail targets keyed by (licensed levels, `base_mv` bits, frequency in
/// Hz); see [`CentralPmu::target_mv`].
type TargetMemo = ExactMemo<(u128, u64, u64), f64, 64>;

/// Bits per core of a [`TargetMemo`] level pattern (levels are 0‥6).
const LEVEL_BITS: usize = 3;

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
    /// operating point. A reset clears this to `SimTime::ZERO`; a
    /// completed decay scan advances it to the earliest pending decay
    /// (`SimTime::MAX` when none is), and an execution carries it (see
    /// `carry_decay_horizon`).
    /// Purely a skip memo for [`Self::process_decays`] and
    /// [`Self::next_decay`] — it never alters results.
    targets_valid_until: SimTime,
    /// The instant of the scan that set `targets_valid_until`. Between
    /// the two no license level can change, so the earliest pending
    /// decay is the scan's answer.
    targets_valid_from: SimTime,
    /// [`Self::next_decay`] requests plus the scans that
    /// [`Self::process_decays`], [`Self::set_operating_point`] and
    /// [`Self::on_execute`] make, since construction or the last
    /// [`Self::reset`].
    decay_queries: u64,
    /// How many of `decay_queries` scanned the licenses instead of
    /// being answered from the decay horizon.
    decay_scans: u64,
    /// Non-secure rail targets already computed. A target is a pure
    /// function of the key and the config, so the memo outlives
    /// [`Self::reset`]; only its miss count resets.
    targets: TargetMemo,
    /// Ramp times of the config's regulator, kept like `targets`.
    ramps: RampMemo,
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
        let no_levels = (0, base_mv.to_bits(), freq.as_hz());
        let targets = TargetMemo::new(
            no_levels,
            base_mv
                + cfg
                    .guardband
                    .package_guardband_iter_mv(std::iter::empty(), base_mv, freq),
        );
        let ramps = RampMemo::new(0.0f64.to_bits(), cfg.vr_model.ramp_time(0.0));
        let mut pmu = CentralPmu {
            rails: vec![VrRail::new(cfg.vr_model, base_mv); n_rails],
            licenses: vec![CoreLicense::new(cfg.reset_time); cfg.n_cores],
            cfg,
            licensed: Vec::new(),
            base_mv,
            freq,
            targets_valid_until: SimTime::ZERO,
            targets_valid_from: SimTime::ZERO,
            decay_queries: 0,
            decay_scans: 0,
            targets,
            ramps,
        };
        pmu.reset(freq, base_mv);
        pmu
    }

    /// Resets the PMU to its exactly-as-constructed state at an initial
    /// operating point, reusing the license and rail allocations
    /// (including each rail's retained segment buffer). Equivalent to
    /// `CentralPmu::new(cfg, freq, base_mv)` with the same config.
    pub fn reset(&mut self, freq: Freq, base_mv: f64) {
        self.freq = freq;
        self.base_mv = base_mv;
        // Secure mode starts (and stays) at the worst-case guardband.
        let initial_mv = if self.cfg.secure_mode {
            self.secure_mode_mv()
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
        self.targets_valid_from = SimTime::ZERO;
        self.decay_queries = 0;
        self.decay_scans = 0;
        self.targets.clear_misses();
        self.ramps.clear_misses();
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
    #[inline]
    pub fn rail(&self, core: usize) -> &VrRail {
        &self.rails[self.rail_index(core)]
    }

    /// Instantaneous supply voltage of `core` at `t`.
    #[inline]
    pub fn core_voltage_mv(&self, core: usize, t: SimTime) -> f64 {
        self.rail(core).voltage_at(t)
    }

    /// Effective license level of `core` at `now`.
    #[inline]
    pub fn effective_level(&self, core: usize, now: SimTime) -> u8 {
        self.licenses[core].effective_level(now)
    }

    /// Effective license of `core` at `now`, as an instruction class.
    #[inline]
    pub fn effective_class(&self, core: usize, now: SimTime) -> InstClass {
        self.licenses[core].effective_class(now)
    }

    /// The pinned secure-mode rail voltage: the V/F base plus the
    /// worst-case guardband of every core the rail supplies.
    fn secure_mode_mv(&self) -> f64 {
        let per_core = if self.cfg.per_core_vr {
            1
        } else {
            self.cfg.n_cores
        };
        self.base_mv
            + self
                .cfg
                .guardband
                .secure_mode_guardband_mv(per_core, self.base_mv, self.freq)
    }

    /// The voltage target of the rail supplying `core`, given current
    /// licenses at `now`.
    ///
    /// Outside secure mode the target is a function of the operating
    /// point and the licensed levels alone, so it is read from the
    /// `targets` memo, keyed by those levels packed by core index
    /// ([`LEVEL_BITS`] each), `base_mv`'s bits and the frequency. A
    /// core at level 0 packs as zero and adds `+0.0` to the guardband,
    /// so the pattern needs no core count. On a per-core rail the
    /// pattern is the one core's level.
    fn target_mv(&mut self, rail_core: usize, now: SimTime) -> f64 {
        if self.cfg.secure_mode {
            return self.secure_mode_mv();
        }
        let op = (self.base_mv.to_bits(), self.freq.as_hz());
        let levels = if self.cfg.per_core_vr {
            Some(u128::from(self.licenses[rail_core].effective_level(now)))
        } else {
            // `licensed` ascends, so its last core decides the width.
            let keyed = self.licensed.last().is_none_or(|&c| c < 128 / LEVEL_BITS);
            keyed.then(|| {
                self.licensed.iter().fold(0u128, |acc, &c| {
                    acc | u128::from(self.licenses[c].effective_level(now)) << (c * LEVEL_BITS)
                })
            })
        };
        let (licenses, licensed, guardband) = (&self.licenses, &self.licensed, &self.cfg.guardband);
        let (base_mv, freq, per_core_vr) = (self.base_mv, self.freq, self.cfg.per_core_vr);
        let compute = || {
            let gb = if per_core_vr {
                let class = Some(licenses[rail_core].effective_class(now));
                guardband.package_guardband_iter_mv(std::iter::once(class), base_mv, freq)
            } else {
                let classes = licensed
                    .iter()
                    .map(|&c| Some(licenses[c].effective_class(now)));
                guardband.package_guardband_iter_mv(classes, base_mv, freq)
            };
            base_mv + gb
        };
        match levels {
            Some(levels) => self
                .targets
                .get_or_insert_with((levels, op.0, op.1), compute),
            None => compute(),
        }
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
    #[inline]
    pub fn on_execute(&mut self, core: usize, class: InstClass, now: SimTime) -> ExecGrant {
        assert!(core < self.cfg.n_cores, "core {core} out of range");
        let current = self.licenses[core].effective_level(now);
        let decay_before = self.licenses[core].next_decay(now);
        let need = class.intensity_rank();
        self.licenses[core].record_execution(class, now);
        if let Err(at) = self.licensed.binary_search(&core) {
            self.licensed.insert(at, core);
        }
        self.carry_decay_horizon(core, decay_before, now);
        if self.cfg.secure_mode || need <= current {
            return ExecGrant {
                ready_at: now,
                transition: None,
            };
        }
        let rail_idx = self.rail_index(core);
        let target = self.target_mv(core, now);
        let (start, end) = self.rails[rail_idx].schedule_memo(now, target, &mut self.ramps);
        ExecGrant {
            ready_at: end,
            transition: Some((start, end)),
        }
    }

    /// Moves the decay horizon across an execution on `core` at `now`,
    /// whose pending decay was `decay_before`.
    ///
    /// If the horizon held at `now`, every rail setpoint equalled its
    /// target there, and still does after the execution: one that does
    /// not raise the core's level changes no level, and a raise
    /// schedules its rail to the new target. So the horizon restarts at
    /// `now`. Only this core's pending decay moved, to its new one; the
    /// others' earliest is the old horizon unless this core's decay was
    /// it, which takes a rescan. A horizon that did not hold is
    /// dropped.
    fn carry_decay_horizon(&mut self, core: usize, decay_before: Option<SimTime>, now: SimTime) {
        if !(self.targets_valid_from <= now && now < self.targets_valid_until) {
            self.targets_valid_until = SimTime::ZERO;
            return;
        }
        let horizon = self.targets_valid_until;
        if decay_before == Some(horizon) {
            self.refresh_decay_horizon(now);
            return;
        }
        let decay_after = self.licenses[core].next_decay(now).unwrap_or(SimTime::MAX);
        self.targets_valid_until = horizon.min(decay_after);
        self.targets_valid_from = now;
    }

    /// The next instant at which any core's license decays, if any.
    ///
    /// Inside the decay horizon of the last scan (see
    /// `targets_valid_until`) no license level has changed, so the
    /// answer is that scan's, without visiting the licenses again.
    #[inline]
    pub fn next_decay(&mut self, now: SimTime) -> Option<SimTime> {
        if self.targets_valid_from <= now && now < self.targets_valid_until {
            self.decay_queries += 1;
            return (self.targets_valid_until != SimTime::MAX).then_some(self.targets_valid_until);
        }
        self.scan_decays(now)
    }

    /// [`Self::next_decay`] by a full scan of the licensed cores.
    fn scan_decays(&mut self, now: SimTime) -> Option<SimTime> {
        self.decay_queries += 1;
        self.decay_scans += 1;
        self.licensed
            .iter()
            .filter_map(|&c| self.licenses[c].next_decay(now))
            .min()
    }

    /// Rescans the pending decays at `now` and restarts the horizon
    /// there: every rail setpoint equals its target at `now`.
    fn refresh_decay_horizon(&mut self, now: SimTime) {
        self.targets_valid_until = self.scan_decays(now).unwrap_or(SimTime::MAX);
        self.targets_valid_from = now;
    }

    /// `(queries, scans)`: how many next-decay answers were asked for
    /// since construction or the last [`Self::reset`], and how many of
    /// them scanned the licenses rather than reading the horizon.
    pub fn decay_counts(&self) -> (u64, u64) {
        (self.decay_queries, self.decay_scans)
    }

    /// `(target, ramp)`: how many rail targets and ramp times were
    /// computed rather than read from their memos since construction or
    /// the last [`Self::reset`].
    pub fn memo_misses(&self) -> (u64, u64) {
        (self.targets.misses(), self.ramps.misses())
    }

    /// Processes license decays at `now`: recomputes rail targets and
    /// schedules the (non-throttling) ramp-downs. Returns `true` if any
    /// rail was retargeted.
    #[inline]
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
                self.rails[rail_idx].schedule_memo(now, target, &mut self.ramps);
                changed = true;
            }
        }
        self.refresh_decay_horizon(now);
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
            self.rails[rail_idx].schedule_memo(now, target, &mut self.ramps);
        }
        // Every rail setpoint now equals its target at `now`, and targets
        // hold until the next license decay.
        self.refresh_decay_horizon(now);
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

    /// One operation of a PMU schedule.
    enum Op {
        Exec(usize, InstClass),
        Decays,
        OperatingPoint(f64, f64),
    }

    /// The shared-rail, per-core-rail and secure-mode configurations on
    /// `n_cores` cores.
    fn rail_configs(n_cores: usize) -> impl Iterator<Item = PmuConfig> {
        [(false, false), (true, false), (false, true)]
            .into_iter()
            .map(move |(per_core_vr, secure_mode)| PmuConfig {
                n_cores,
                per_core_vr,
                secure_mode,
                ..cfg()
            })
    }

    /// Applies `op` at `t` and returns what the PMU answered: the grant
    /// of an execution, or whether a decay pass retargeted a rail.
    fn apply(pmu: &mut CentralPmu, t: SimTime, op: &Op) -> (Option<ExecGrant>, bool) {
        match *op {
            Op::Exec(core, class) => (Some(pmu.on_execute(core, class, t)), false),
            Op::Decays => (None, pmu.process_decays(t)),
            Op::OperatingPoint(ghz, mv) => {
                pmu.set_operating_point(t, Freq::from_ghz(ghz), mv);
                (None, false)
            }
        }
    }

    /// The earliest pending decay by a scan of every license.
    fn scanned_decay(pmu: &CentralPmu, now: SimTime) -> Option<SimTime> {
        pmu.licenses.iter().filter_map(|l| l.next_decay(now)).min()
    }

    /// A seeded schedule of `n` operations on `n_cores` cores at
    /// non-decreasing instants (µs), 0–400 µs apart, so licenses both
    /// overlap and expire between operations.
    fn random_schedule(seed: u64, n: usize, n_cores: usize) -> Vec<(f64, Op)> {
        let mut x = seed;
        let mut t_us = 0.0;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                t_us += (x >> 55) as f64 * 0.75;
                let op = match (x >> 20) % 10 {
                    0..=5 => Op::Exec(
                        (x >> 30) as usize % n_cores,
                        InstClass::ALL[(x >> 40) as usize % InstClass::ALL.len()],
                    ),
                    6..=8 => Op::Decays,
                    _ => Op::OperatingPoint(
                        [1.4, 1.8, 2.0, 2.2][(x >> 44) as usize % 4],
                        760.0 + ((x >> 48) % 70) as f64,
                    ),
                };
                (t_us, op)
            })
            .collect()
    }

    /// A Scalar64 execution recorded on every core puts every core on
    /// the licensed list, so the PMU then visits all cores as a full
    /// scan would. Grants, rail setpoints, rail voltages and pending
    /// decays must match a PMU that only saw the real schedule, bit for
    /// bit, on a shared rail, per-core rails and in secure mode.
    #[test]
    fn scalar_execution_on_every_core_changes_nothing() {
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
        for cfg in rail_configs(6) {
            let mut sparse = CentralPmu::new(cfg, Freq::from_ghz(1.4), 760.0);
            let mut full = sparse.clone();
            for core in 0..6 {
                full.on_execute(core, InstClass::Scalar64, SimTime::ZERO);
            }
            for (t_us, op) in &schedule {
                let t = SimTime::from_us(*t_us);
                assert_eq!(apply(&mut sparse, t, op), apply(&mut full, t, op), "{t}");
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

    /// Whether the decay horizon holds at `t`.
    fn horizon_holds(pmu: &CentralPmu, t: SimTime) -> bool {
        pmu.targets_valid_from <= t && t < pmu.targets_valid_until
    }

    /// `next_decay` answers like a scan of every license before and
    /// after each operation of seeded random schedules, at the
    /// operation's instant, at later instants inside and past the
    /// reset-time, and at an instant before the last scan. On the
    /// shared rail and per-core rails the decay horizon must answer
    /// some of those queries, or this would test nothing new.
    ///
    /// An execution at an instant the horizon holds must carry it:
    /// afterwards it still holds there, and (outside secure mode) every
    /// rail setpoint equals its freshly computed target, which is what
    /// lets `process_decays` skip. Some executions must carry it.
    #[test]
    fn next_decay_answers_like_a_full_scan() {
        for seed in 1..=8u64 {
            let schedule = random_schedule(seed, 300, 6);
            for cfg in rail_configs(6) {
                let secure = cfg.secure_mode;
                let mut carried = 0;
                let mut pmu = CentralPmu::new(cfg, Freq::from_ghz(1.4), 760.0);
                let check = |pmu: &mut CentralPmu, t: SimTime| {
                    for at in [
                        t.saturating_sub(SimTime::from_us(5.0)),
                        t,
                        t + SimTime::from_us(0.5),
                        t + SimTime::from_us(120.0),
                        t + SimTime::from_us(649.0),
                        t + SimTime::from_us(651.0),
                        t,
                    ] {
                        assert_eq!(
                            pmu.next_decay(at),
                            scanned_decay(pmu, at),
                            "seed {seed}, decay at {at} after an op at {t}"
                        );
                    }
                };
                for (t_us, op) in &schedule {
                    let t = SimTime::from_us(*t_us);
                    check(&mut pmu, t);
                    let held = horizon_holds(&pmu, t);
                    apply(&mut pmu, t, op);
                    if held && matches!(op, Op::Exec(..)) {
                        assert!(horizon_holds(&pmu, t), "seed {seed}: dropped at {t}");
                        carried += 1;
                        for rail in (0..pmu.rails.len()).filter(|_| !secure) {
                            let target = pmu.target_mv(rail, t);
                            let setpoint = pmu.rails[rail].setpoint_mv();
                            assert!((target - setpoint).abs() <= 1e-9, "seed {seed} at {t}");
                        }
                    }
                    check(&mut pmu, t);
                }
                let (queries, scans) = pmu.decay_counts();
                assert!(scans <= queries);
                assert!(carried > 0, "seed {seed}: no execution carried the horizon");
                if !secure {
                    assert!(scans < queries, "seed {seed}: the horizon never answered");
                }
            }
        }
    }

    /// The rail target computed directly, visiting every core (not
    /// just the licensed ones) with no memo.
    fn direct_target(pmu: &CentralPmu, rail: usize, now: SimTime) -> f64 {
        if pmu.cfg.secure_mode {
            return pmu.secure_mode_mv();
        }
        let cores = if pmu.cfg.per_core_vr {
            rail..rail + 1
        } else {
            0..pmu.cfg.n_cores
        };
        let classes = cores.map(|c| Some(pmu.licenses[c].effective_class(now)));
        pmu.base_mv
            + pmu
                .cfg
                .guardband
                .package_guardband_iter_mv(classes, pmu.base_mv, pmu.freq)
    }

    /// Rail targets read from the memo equal the direct computation bit
    /// for bit, before and after every operation of seeded schedules,
    /// at the operation's instant and later, on a shared rail, per-core
    /// rails and in secure mode; with 6 cores, and with 48, where cores
    /// past the packed pattern's width are computed directly. The memo
    /// must answer some of them.
    #[test]
    fn rail_targets_answer_like_the_direct_computation() {
        for n_cores in [6, 48] {
            for seed in 1..=4u64 {
                let schedule = random_schedule(seed, 300, n_cores);
                for cfg in rail_configs(n_cores) {
                    let mut pmu = CentralPmu::new(cfg, Freq::from_ghz(1.4), 760.0);
                    let mut asked = 0u64;
                    for (t_us, op) in &schedule {
                        let t = SimTime::from_us(*t_us);
                        apply(&mut pmu, t, op);
                        for at in [t, t + SimTime::from_us(300.0), t + SimTime::from_us(700.0)] {
                            for rail in 0..pmu.rails.len() {
                                let direct = direct_target(&pmu, rail, at);
                                assert_eq!(
                                    pmu.target_mv(rail, at).to_bits(),
                                    direct.to_bits(),
                                    "seed {seed}, {n_cores} cores, rail {rail} at {at}"
                                );
                                asked += 1;
                            }
                        }
                    }
                    let (misses, _) = pmu.memo_misses();
                    assert!(misses < asked, "{misses} misses of {asked}");
                }
            }
        }
    }

    /// A rail scheduled through the ramp memo keeps the same ramps, bit
    /// for bit, as one scheduled directly, over deltas that repeat,
    /// collide in the memo and vary by one ulp.
    #[test]
    fn ramp_memo_schedules_like_schedule() {
        for model in [VrModel::mbvr(), VrModel::fivr(), VrModel::ldo()] {
            let mut direct = VrRail::new(model, 730.0);
            let mut memoized = direct.clone();
            let mut memo = RampMemo::new(0.0f64.to_bits(), model.ramp_time(0.0));
            let mut x: u64 = 0xAB5;
            let mut now = SimTime::ZERO;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let target = match i % 4 {
                    0 => 700.0 + ((x >> 58) as f64) * 2.5,
                    1 => f64::from_bits(direct.setpoint_mv().to_bits() + (x >> 62)),
                    2 => 700.0 + (x >> 40) as f64 / (1u64 << 24) as f64 * 60.0,
                    _ => direct.setpoint_mv(),
                };
                now += SimTime::from_ns_u64((x >> 50) % 20_000);
                let a = direct.schedule(now, target);
                let b = memoized.schedule_memo(now, target, &mut memo);
                assert_eq!(a, b, "{model:?} step {i}");
                assert_eq!(direct, memoized, "{model:?} step {i}");
            }
            assert!(
                memo.misses() > 0 && memo.misses() < 15_000,
                "{}",
                memo.misses()
            );
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
        let mut x: u64 = 0x0DDB_1A5E_5BAD_5EED;
        drive_rail(&mut rail, 3 * MAX_SEGMENTS, |rail| {
            reference.push(*rail.segments.back().unwrap());
            scheduled += 1;
            assert!(rail.retained_ramps() <= MAX_SEGMENTS);
            assert!(rail.segments.capacity() <= MAX_SEGMENTS);
            // Every short history (where the newest-first scan covers all
            // or all but a few ramps), then every quarter ring.
            if scheduled > 2 * NEWEST_PROBES && scheduled % (MAX_SEGMENTS / 4) != 0 {
                return;
            }
            assert!(rail.segments.iter().eq(reference.segments.iter()));
            let mut probes = vec![SimTime::ZERO, rail.free_at()];
            for s in &rail.segments {
                probes.push(s.ramp_start);
                probes.push(s.ramp_start + (s.end - s.ramp_start).scale(0.5));
                probes.push(s.end);
            }
            // Seeded random instants over the whole history, and over
            // the span before the oldest retained ramp (non-empty once
            // the ring has wrapped).
            let oldest = rail.segments.front().unwrap().ramp_start;
            for k in 0..512u64 {
                x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(k | 1);
                let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
                probes.push(rail.free_at().scale(frac));
                probes.push(oldest.scale(frac));
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

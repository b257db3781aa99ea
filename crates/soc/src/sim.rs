//! The event-driven SoC simulator.
//!
//! [`Soc`] composes the substrates — per-core pipelines (analytic IPC
//! model from `ichannels-uarch`), the central PMU with its voltage rails
//! (`ichannels-pmu` / `ichannels-pdn`), turbo licenses, P-states, the
//! thermal model, and OS noise — under a single continuous timeline.
//!
//! State only changes at *events* (block start/end, voltage-ramp
//! completion, hysteresis expiry, P-state settle, noise arrival, trace
//! sample); between events every rate is constant, so progress advances
//! analytically. This is what makes the paper's 60 s covert-channel runs
//! (§6.3) tractable at picosecond resolution.

use ichannels_pdn::current::{CoreActivity, CurrentModel};
use ichannels_pdn::power_gate::PowerGate;
use ichannels_pmu::central::{CentralPmu, PmuConfig};
use ichannels_pmu::pstate::PStateEngine;
use ichannels_pmu::thermal::ThermalModel;
use ichannels_pmu::turbo::{TurboLicense, TurboState};
use ichannels_uarch::idq::ThrottlePolicy;
use ichannels_uarch::ipc::effective_ipc;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::{Freq, SimTime};
use ichannels_uarch::tsc::Tsc;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::SocConfig;
use crate::noise::NoiseArrivals;
use crate::program::{Action, ProgCtx, Program};
use crate::trace::{Sample, Trace};

/// Execution state of one hardware thread.
#[derive(Debug)]
enum CtxState {
    /// No program, or program halted.
    Idle,
    /// Blocked until an instant (TSC spin or sleep).
    Waiting {
        /// Wake-up instant.
        until: SimTime,
    },
    /// Executing a tight instruction loop.
    Running {
        /// Loop body class.
        class: InstClass,
        /// Instructions left to retire.
        remaining: f64,
    },
}

/// One hardware thread (SMT context).
struct HwCtx {
    program: Option<Box<dyn Program>>,
    state: CtxState,
    arrivals: NoiseArrivals,
    /// Noise service (or power-gate wake) in progress until this instant.
    paused_until: SimTime,
    /// Total instructions retired (statistics).
    inst_retired: f64,
}

impl std::fmt::Debug for HwCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwCtx")
            .field("state", &self.state)
            .field("has_program", &self.program.is_some())
            .finish()
    }
}

/// One physical core.
#[derive(Debug)]
struct CoreState {
    ctxs: Vec<HwCtx>,
    /// Core-wide throttle (license transition in flight) until this
    /// instant.
    throttled_until: SimTime,
    /// SMT index of the thread whose PHI caused the throttle.
    throttle_cause: usize,
    avx_gate: PowerGate,
}

/// Safety bound on program re-activations within a single instant.
const MAX_ACTIVATION_LOOPS: usize = 1_000_000;

/// Completion slack, in instructions: a block is done when fewer than
/// this many instructions remain (absorbs f64 rounding).
const COMPLETION_EPS: f64 = 1e-3;

/// The simulated system-on-chip.
///
/// # Examples
///
/// Measuring the throttling period of an AVX2 loop (the core of
/// Figure 8(a)):
///
/// ```
/// use ichannels_soc::config::{PlatformSpec, SocConfig};
/// use ichannels_soc::program::Script;
/// use ichannels_soc::sim::Soc;
/// use ichannels_uarch::isa::InstClass;
/// use ichannels_uarch::time::{Freq, SimTime};
///
/// let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
/// let mut soc = Soc::new(cfg);
/// soc.spawn(0, 0, Box::new(Script::run_loop(InstClass::Heavy256, 20_000)));
/// let end = soc.run_until_idle(SimTime::from_ms(1.0));
/// assert!(end.as_us() > 10.0); // throttled at 1/4 IPC during the ramp
/// ```
#[derive(Debug)]
pub struct Soc {
    cfg: SocConfig,
    pmu: CentralPmu,
    pstate: PStateEngine,
    turbo: TurboState,
    thermal: ThermalModel,
    current_model: CurrentModel,
    tsc: Tsc,
    now: SimTime,
    cores: Vec<CoreState>,
    trace: Trace,
    next_sample: Option<SimTime>,
    rng: SmallRng,
    /// Scratch buffers reused across events so the hot paths (`step`,
    /// `retarget_frequency`, `record_sample`) never allocate. Cleared
    /// before every use; never observable.
    acts_scratch: Vec<CoreActivity>,
    proj_scratch: Vec<Option<InstClass>>,
    proj_acts_scratch: Vec<CoreActivity>,
    rate_scratch: Vec<f64>,
    /// Earliest pending noise arrival seen during the last event search,
    /// across every context that carries a program. Arrivals are not
    /// mutated between the search and `process_due`, so when this lies
    /// beyond the new instant the per-context arrival scan is provably a
    /// no-op and is skipped. `SimTime::ZERO` (always due) when unknown.
    next_noise_due: SimTime,
    /// Count of contexts currently carrying a program, maintained by
    /// `spawn`/halt so `all_idle` (checked once per event in
    /// `run_until_idle`) is a comparison instead of a full scan.
    live_programs: usize,
    /// Events processed since construction or the last re-arm: one per
    /// `step` that advanced the clock. A pure function of the work set.
    steps: u64,
    /// Ascending indices of the cores `spawn` has placed a program on
    /// since construction or the last re-arm. Every other core is still
    /// as constructed: idle contexts with no program, no throttle, a
    /// fresh PMU license and gate. Such a core adds nothing to any
    /// per-event loop (its activity is `IDLE`, its guardband term is
    /// `+0.0`, it has no event or noise to consider), so those loops
    /// visit only these cores, in the ascending order of a full scan,
    /// and every sum and minimum keeps its operands and their order.
    engaged: Vec<usize>,
}

impl Soc {
    /// Builds a SoC from a configuration, settled at the governor's
    /// initial frequency, at time zero.
    pub fn new(cfg: SocConfig) -> Self {
        let p = &cfg.platform;
        let initial_freq = cfg.governor.requested_freq(&p.pstates, 0.0);
        let base_mv = p.vf_curve.voltage_mv(initial_freq);
        let pmu = CentralPmu::new(
            PmuConfig {
                n_cores: p.n_cores,
                guardband: p.guardband(),
                vr_model: p.vr_model,
                reset_time: p.reset_time,
                per_core_vr: cfg.per_core_vr,
                secure_mode: cfg.secure_mode,
            },
            initial_freq,
            base_mv,
        );
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let cores = (0..p.n_cores)
            .map(|_| CoreState {
                ctxs: (0..p.threads_per_core())
                    .map(|_| HwCtx {
                        program: None,
                        state: CtxState::Idle,
                        arrivals: NoiseArrivals::init(&cfg.noise, &mut rng, SimTime::ZERO),
                        paused_until: SimTime::ZERO,
                        inst_retired: 0.0,
                    })
                    .collect(),
                throttled_until: SimTime::ZERO,
                throttle_cause: 0,
                avx_gate: match p.avx_pg_wake {
                    Some(wake) => PowerGate::new(wake),
                    None => PowerGate::always_open(),
                },
            })
            .collect();
        let next_sample = cfg.trace.sample_period.map(|p| SimTime::ZERO.max(p));
        let current_model = p.current_model();
        let thermal = cfg.thermal_model();
        let tsc = Tsc::new(p.tsc_freq);
        Soc {
            pmu,
            pstate: PStateEngine::new(initial_freq),
            turbo: TurboState::new(),
            thermal,
            current_model,
            tsc,
            now: SimTime::ZERO,
            cores,
            trace: Trace::new(),
            next_sample,
            rng,
            cfg,
            acts_scratch: Vec::new(),
            proj_scratch: Vec::new(),
            proj_acts_scratch: Vec::new(),
            rate_scratch: Vec::new(),
            next_noise_due: SimTime::ZERO,
            live_programs: 0,
            steps: 0,
            engaged: Vec::new(),
        }
    }

    /// Resets the SoC to its exactly-as-constructed state while reusing
    /// every existing allocation (core/context storage, the PMU's
    /// voltage-rail segment buffers, trace storage, scratch buffers).
    ///
    /// Bit-identical to dropping this SoC and calling `Soc::new` with
    /// the same config: the RNG is reseeded and the per-context noise
    /// arrivals are redrawn in construction order (cores outer, SMT
    /// contexts inner), so every subsequent draw sequence matches a
    /// fresh simulator. Pinned by the `rearm_identity` proptest suite.
    pub fn rearm(&mut self) {
        let initial_freq = self
            .cfg
            .governor
            .requested_freq(&self.cfg.platform.pstates, 0.0);
        let base_mv = self.cfg.platform.vf_curve.voltage_mv(initial_freq);
        self.pmu.reset(initial_freq, base_mv);
        self.pstate = PStateEngine::new(initial_freq);
        self.turbo = TurboState::new();
        self.thermal = self.cfg.thermal_model();
        // `current_model` and `tsc` are pure functions of the platform
        // spec and carry no run state — left untouched.
        self.now = SimTime::ZERO;
        self.rng = SmallRng::seed_from_u64(self.cfg.seed);
        for core in &mut self.cores {
            for ctx in &mut core.ctxs {
                ctx.program = None;
                ctx.state = CtxState::Idle;
                ctx.arrivals = NoiseArrivals::init(&self.cfg.noise, &mut self.rng, SimTime::ZERO);
                ctx.paused_until = SimTime::ZERO;
                ctx.inst_retired = 0.0;
            }
            core.throttled_until = SimTime::ZERO;
            core.throttle_cause = 0;
            core.avx_gate = match self.cfg.platform.avx_pg_wake {
                Some(wake) => PowerGate::new(wake),
                None => PowerGate::always_open(),
            };
        }
        self.trace.clear();
        self.next_sample = self.cfg.trace.sample_period.map(|p| SimTime::ZERO.max(p));
        self.acts_scratch.clear();
        self.proj_scratch.clear();
        self.proj_acts_scratch.clear();
        self.rate_scratch.clear();
        self.next_noise_due = SimTime::ZERO;
        self.live_programs = 0;
        self.steps = 0;
        self.engaged.clear();
    }

    // ----- accessors -------------------------------------------------

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current `rdtsc` value.
    pub fn tsc_now(&self) -> u64 {
        self.tsc.read(self.now)
    }

    /// The invariant TSC.
    pub fn tsc(&self) -> &Tsc {
        &self.tsc
    }

    /// Core clock frequency in force right now.
    pub fn freq(&self) -> Freq {
        self.pstate.freq_at(self.now)
    }

    /// Junction temperature (°C).
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// Package voltage (rail 0) right now, mV.
    pub fn vcc_mv(&self) -> f64 {
        self.pmu.core_voltage_mv(0, self.now)
    }

    /// Package current right now, A.
    pub fn icc_a(&self) -> f64 {
        let acts = self.core_activities();
        self.current_model
            .icc_a(&acts, self.vcc_mv(), self.freq(), self.thermal.temp_c())
    }

    /// The central PMU (read access).
    pub fn pmu(&self) -> &CentralPmu {
        &self.pmu
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Whether `core` is throttled right now.
    fn core_throttled(&self, core: usize) -> bool {
        self.now < self.cores[core].throttled_until || self.pstate.in_transition(self.now)
    }

    /// Total instructions retired by a hardware thread.
    pub fn inst_retired(&self, core: usize, smt: usize) -> f64 {
        self.cores[core].ctxs[smt].inst_retired
    }

    /// Events processed since construction or the last re-arm.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True if every spawned program has halted.
    pub fn all_idle(&self) -> bool {
        self.live_programs == 0
    }

    // ----- program management ----------------------------------------

    /// Pins `program` to hardware thread (`core`, `smt`) and starts it at
    /// the current instant.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or out of range.
    pub fn spawn(&mut self, core: usize, smt: usize, program: Box<dyn Program>) {
        assert!(core < self.cores.len(), "core {core} out of range");
        assert!(
            smt < self.cores[core].ctxs.len(),
            "smt {smt} out of range on core {core}"
        );
        assert!(
            self.cores[core].ctxs[smt].program.is_none(),
            "hardware thread ({core},{smt}) already occupied"
        );
        self.cores[core].ctxs[smt].program = Some(program);
        self.live_programs += 1;
        if let Err(at) = self.engaged.binary_search(&core) {
            self.engaged.insert(at, core);
        }
        self.activate(core, smt);
    }

    /// Calls the program until it issues a blocking action.
    fn activate(&mut self, core: usize, smt: usize) {
        for _ in 0..MAX_ACTIVATION_LOOPS {
            let ctx = ProgCtx {
                now: self.now,
                tsc: self.tsc.read(self.now),
                core,
                smt,
            };
            let action = match self.cores[core].ctxs[smt].program.as_mut() {
                Some(p) => p.next(&ctx),
                None => return,
            };
            match action {
                Action::Run {
                    class,
                    instructions,
                } => {
                    self.start_run(core, smt, class, instructions);
                    return;
                }
                Action::WaitUntilTsc(v) => {
                    let until = self.tsc.to_time(v);
                    if until <= self.now {
                        continue; // already reached: ask again
                    }
                    self.cores[core].ctxs[smt].state = CtxState::Waiting { until };
                    return;
                }
                Action::SleepFor(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.cores[core].ctxs[smt].state = CtxState::Waiting {
                        until: self.now + d,
                    };
                    return;
                }
                Action::Halt => {
                    self.cores[core].ctxs[smt].program = None;
                    self.cores[core].ctxs[smt].state = CtxState::Idle;
                    self.live_programs -= 1;
                    return;
                }
            }
        }
        // lint:allow(R001): livelock backstop — a program issuing a
        // million non-blocking actions at one instant violates the
        // Program contract and has no recoverable state to surface.
        panic!(
            "program on ({core},{smt}) livelocked at {now}",
            now = self.now
        );
    }

    /// Begins a `Run` block: power-gate wake, turbo/frequency management,
    /// PMU license request, then the block itself.
    fn start_run(&mut self, core: usize, smt: usize, class: InstClass, instructions: u64) {
        // 1. AVX power-gate (ns-scale; Figure 8(b), Figure 9(b)).
        if class.uses_avx_unit() {
            let ready = self.cores[core].avx_gate.request_open(self.now);
            self.cores[core].avx_gate.tick(ready);
            let ctx = &mut self.cores[core].ctxs[smt];
            ctx.paused_until = ctx.paused_until.max(ready);
        }

        // 2. Turbo license + frequency management (Figure 7).
        self.turbo
            .on_execute(class, self.now, &self.cfg.platform.turbo);
        self.cores[core].ctxs[smt].state = CtxState::Running {
            class,
            remaining: instructions as f64,
        };
        self.retarget_frequency();

        // 3. Voltage-guardband license (the IChannels mechanism).
        let grant = self.pmu.on_execute(core, class, self.now);
        if grant.transition.is_some() {
            let c = &mut self.cores[core];
            c.throttled_until = c.throttled_until.max(grant.ready_at);
            c.throttle_cause = smt;
            // §5.5: on a shared VR "the processor PMU stops throttling
            // the cores once the shared VR is settled at the required
            // level by both cores" — a new transition extends the
            // throttle of every core that is still waiting on the rail.
            if !self.cfg.per_core_vr {
                let ready = grant.ready_at;
                let now = self.now;
                for &ci in &self.engaged {
                    let other = &mut self.cores[ci];
                    if other.throttled_until > now {
                        other.throttled_until = other.throttled_until.max(ready);
                    }
                }
            }
        }
    }

    // ----- frequency management ---------------------------------------

    /// Per-core activity descriptors for the current model.
    fn core_activities(&self) -> Vec<CoreActivity> {
        let mut out = Vec::with_capacity(self.cores.len());
        self.core_activities_into(&mut out);
        out
    }

    /// Fills `out` with the per-core activity descriptors, reusing its
    /// allocation (the event-loop path).
    fn core_activities_into(&self, out: &mut Vec<CoreActivity>) {
        out.clear();
        out.extend(self.engaged.iter().map(|&ci| {
            let core = &self.cores[ci];
            let mut best: Option<InstClass> = None;
            for ctx in &core.ctxs {
                if let CtxState::Running { class, .. } = ctx.state {
                    best = Some(match best {
                        Some(b) if b >= class => b,
                        _ => class,
                    });
                }
            }
            match best {
                Some(class) => {
                    let act =
                        if self.now < core.throttled_until || self.pstate.in_transition(self.now) {
                            0.25
                        } else {
                            1.0
                        };
                    CoreActivity::partial(class, act)
                }
                None => CoreActivity::IDLE,
            }
        }));
    }

    /// Picks the highest frequency satisfying governor, turbo license,
    /// and electrical limits; requests a P-state change if needed.
    fn retarget_frequency(&mut self) {
        let mut projected = std::mem::take(&mut self.proj_scratch);
        let mut acts = std::mem::take(&mut self.proj_acts_scratch);
        let p = &self.cfg.platform;
        // One pass over the engaged cores gathers everything the search
        // needs: the demanded turbo license, the active-core count, and
        // the worst-case projection (Key Conclusion 2) — unthrottled
        // activity, and the license each core is *about* to hold (its
        // current effective license or the class it is running,
        // whichever is higher). A core never spawned on would add only
        // a Scalar64 projection (guardband `+0.0`) and an `IDLE`
        // activity (current `+0.0`).
        projected.clear();
        acts.clear();
        let mut lic = self.turbo.current();
        let mut active = 0usize;
        for &i in &self.engaged {
            let core = &self.cores[i];
            let licensed = self.pmu.effective_class(i, self.now);
            let mut running: Option<InstClass> = None;
            for x in &core.ctxs {
                if let CtxState::Running { class, .. } = x.state {
                    running = Some(match running {
                        Some(r) if r >= class => r,
                        _ => class,
                    });
                    lic = lic.max(TurboLicense::for_class(class));
                }
            }
            if running.is_some() {
                active += 1;
            }
            let proj = Some(match running {
                Some(r) if r > licensed => r,
                _ => licensed,
            });
            projected.push(proj);
            acts.push(match (running.is_some(), proj) {
                (true, Some(class)) => CoreActivity::busy(class),
                _ => CoreActivity::IDLE,
            });
        }
        let load = if active > 0 { 1.0 } else { 0.0 };
        let desired = self.cfg.governor.requested_freq(&p.pstates, load);
        let cap = p.turbo.max_freq(lic, active.max(1));
        let mut candidate = desired.min(cap);
        // Electrical limit search: walk down the P-state table until the
        // projected operating point fits.
        let gb = p.guardband();
        loop {
            let base = p.vf_curve.voltage_mv(candidate);
            let vcc = base + gb.package_guardband_mv(&projected, base, candidate);
            let icc = self
                .current_model
                .icc_a(&acts, vcc, candidate, self.thermal.temp_c());
            if p.limits.check(vcc, icc).is_none() {
                break;
            }
            match p.pstates.next_below(candidate) {
                Some(f) => candidate = f,
                None => break,
            }
        }
        if candidate != self.pstate.target() {
            self.pstate.request(self.now, candidate, &p.pstates);
        }
        self.proj_scratch = projected;
        self.proj_acts_scratch = acts;
    }

    // ----- rates -------------------------------------------------------

    /// Whether the IDQ gate throttles (`core`,`smt`) running `class`.
    fn ctx_throttled(&self, core: usize, smt: usize, class: InstClass) -> bool {
        // P-state transitions throttle the whole core regardless of
        // policy (clock relock, Figure 9(c)).
        if self.pstate.in_transition(self.now) {
            return true;
        }
        let c = &self.cores[core];
        let gated = self.now < c.throttled_until;
        match self.cfg.throttle_policy {
            ThrottlePolicy::BlockEntireCore => gated,
            ThrottlePolicy::PerThreadPhiOnly => gated && c.throttle_cause == smt && class.is_phi(),
        }
    }

    /// Retirement rate (instructions/second) of a hardware thread, valid
    /// until the next event.
    fn ctx_rate(&self, core: usize, smt: usize) -> f64 {
        let ctx = &self.cores[core].ctxs[smt];
        let CtxState::Running { class, .. } = ctx.state else {
            return 0.0;
        };
        if self.now < ctx.paused_until {
            return 0.0;
        }
        let sibling_active = self.cores[core]
            .ctxs
            .iter()
            .enumerate()
            .any(|(i, x)| i != smt && matches!(x.state, CtxState::Running { .. }));
        let throttled = self.ctx_throttled(core, smt, class);
        effective_ipc(class, throttled, sibling_active) * self.freq().as_hz() as f64
    }

    // ----- the event loop ----------------------------------------------

    /// Advances to the next event (bounded by `limit`) and processes it.
    /// Returns `false` once `now >= limit`.
    fn step(&mut self, limit: SimTime) -> bool {
        if self.now >= limit {
            return false;
        }
        self.steps += 1;
        // --- 1. find the next event time ---
        // Retirement rates computed during the event search are cached
        // per hardware thread and replayed in phase 2: rates are
        // constant until the next event by construction, so the second
        // `ctx_rate` pass the loop used to do is pure redundancy.
        let mut rates = std::mem::take(&mut self.rate_scratch);
        let mut acts = std::mem::take(&mut self.acts_scratch);
        rates.clear();
        acts.clear();
        let mut t_next = limit;
        let mut noise_min = SimTime::MAX;
        let now = self.now;
        let in_transition = self.pstate.in_transition(now);
        let mut consider = |t: SimTime| {
            if t > now && t < t_next {
                t_next = t;
            }
        };
        for &ci in &self.engaged {
            let core = &self.cores[ci];
            if core.throttled_until > now {
                consider(core.throttled_until);
            }
            // The per-core activity descriptor for the phase-2 power
            // computation is accumulated in the same pass (it reads the
            // same pre-event state this search does).
            let mut best: Option<InstClass> = None;
            for (si, ctx) in core.ctxs.iter().enumerate() {
                let mut rate = 0.0;
                match ctx.state {
                    CtxState::Running { class, remaining } => {
                        best = Some(match best {
                            Some(b) if b >= class => b,
                            _ => class,
                        });
                        if ctx.paused_until > now {
                            consider(ctx.paused_until);
                        } else {
                            rate = self.ctx_rate(ci, si);
                            if rate > 0.0 {
                                let dt = SimTime::from_secs(remaining.max(0.0) / rate)
                                    .max(SimTime::from_ps(1));
                                consider(now + dt);
                            }
                        }
                    }
                    CtxState::Waiting { until } => consider(until),
                    CtxState::Idle => {}
                }
                rates.push(rate);
                if ctx.program.is_some() {
                    if let Some((t, _)) = ctx.arrivals.next() {
                        consider(t);
                        noise_min = noise_min.min(t);
                    }
                }
            }
            acts.push(match best {
                Some(class) => {
                    let act = if now < core.throttled_until || in_transition {
                        0.25
                    } else {
                        1.0
                    };
                    CoreActivity::partial(class, act)
                }
                None => CoreActivity::IDLE,
            });
        }
        if self.pstate.in_transition(now) {
            consider(self.pstate.settle_at());
        }
        if let Some(d) = self.pmu.next_decay(now) {
            consider(d);
        }
        if let Some(t) = self.turbo.next_event(&self.cfg.platform.turbo) {
            consider(t);
        }
        if let Some(t) = self.next_sample {
            consider(t);
        }
        self.next_noise_due = noise_min;

        // --- 2. advance state analytically across [now, t_next] ---
        let dt = t_next - self.now;
        let power = self.current_model.power_w(
            &acts,
            self.pmu.core_voltage_mv(0, self.now),
            self.freq(),
            self.thermal.temp_c(),
        );
        self.acts_scratch = acts;
        let dt_secs = dt.as_secs();
        let mut slot = 0;
        for &ci in &self.engaged {
            for si in 0..self.cores[ci].ctxs.len() {
                let rate = rates[slot];
                slot += 1;
                if rate > 0.0 {
                    if let CtxState::Running {
                        ref mut remaining, ..
                    } = self.cores[ci].ctxs[si].state
                    {
                        let done = rate * dt_secs;
                        *remaining -= done;
                        self.cores[ci].ctxs[si].inst_retired += done;
                    }
                }
            }
        }
        self.rate_scratch = rates;
        self.thermal.advance(power, dt);
        self.now = t_next;

        // --- 3. process everything due at the new instant ---
        self.process_due();
        self.now < limit
    }

    /// Handles all conditions that have become due at `self.now`.
    fn process_due(&mut self) {
        let now = self.now;

        // (a) P-state settle → commit the new operating point to the PMU.
        if !self.pstate.in_transition(now) {
            let f = self.pstate.freq_at(now);
            if self.pmu.freq() != f {
                let base = self.cfg.platform.vf_curve.voltage_mv(f);
                self.pmu.set_operating_point(now, f, base);
            }
        }

        // (b) License hysteresis decays (reset-time expiry). Invoked
        // unconditionally: `next_decay` already reports `None` once a
        // license has fully expired, yet the rail may still need its
        // ramp-down scheduled.
        if self.pmu.process_decays(now) {
            // Close AVX power-gates on cores whose license dropped below
            // the 256-bit classes.
            for &ci in &self.engaged {
                if self.pmu.effective_level(ci, now) < InstClass::Light256.intensity_rank() {
                    self.cores[ci].avx_gate.close();
                }
            }
        }

        // (c) Turbo license grant/release.
        let lic_before = self.turbo.current();
        self.turbo.advance(now, &self.cfg.platform.turbo);
        if self.turbo.current() != lic_before {
            self.retarget_frequency();
        }

        // (d) OS noise arrivals pause running programs. The scan is
        // skipped outright when the event search saw no arrival at or
        // before the new instant (arrivals are untouched in between, so
        // every per-context due-check below would be false).
        let noise = self.cfg.noise;
        if self.next_noise_due <= now {
            for &ci in &self.engaged {
                for si in 0..self.cores[ci].ctxs.len() {
                    if self.cores[ci].ctxs[si].program.is_none() {
                        continue;
                    }
                    let due = self.cores[ci].ctxs[si]
                        .arrivals
                        .next()
                        .is_some_and(|(t, _)| t <= now);
                    if due {
                        let service = {
                            let ctx = &mut self.cores[ci].ctxs[si];
                            ctx.arrivals.consume_due(&noise, &mut self.rng, now)
                        };
                        if !service.is_zero() {
                            let ctx = &mut self.cores[ci].ctxs[si];
                            if matches!(ctx.state, CtxState::Running { .. }) {
                                ctx.paused_until = ctx.paused_until.max(now) + service;
                            }
                        }
                    }
                }
            }
        }

        // (e) Block completions and (f) wait expiries → reactivate.
        // Indexed: `activate` needs `&mut self`, and only `spawn` ever
        // changes `engaged`.
        for k in 0..self.engaged.len() {
            let ci = self.engaged[k];
            for si in 0..self.cores[ci].ctxs.len() {
                let due = match self.cores[ci].ctxs[si].state {
                    CtxState::Running { remaining, .. } => {
                        remaining <= COMPLETION_EPS && self.cores[ci].ctxs[si].paused_until <= now
                    }
                    CtxState::Waiting { until } => until <= now,
                    CtxState::Idle => false,
                };
                if due {
                    self.cores[ci].ctxs[si].state = CtxState::Idle;
                    self.activate(ci, si);
                }
            }
        }

        // (g) Trace sample. A pending sample implies a sampling period
        // was configured; destructuring both keeps that tie structural
        // instead of asserted.
        if let (Some(t), Some(period)) = (self.next_sample, self.cfg.trace.sample_period) {
            if t <= now {
                self.record_sample();
                let mut next = t + period;
                if next <= now {
                    next = now + period;
                }
                self.next_sample = Some(next);
            }
        }
    }

    fn record_sample(&mut self) {
        let freq = self.freq();
        let throttled: Vec<bool> = (0..self.cores.len())
            .map(|c| self.core_throttled(c))
            .collect();
        let core_ipc: Vec<f64> = (0..self.cores.len())
            .map(|c| {
                (0..self.cores[c].ctxs.len())
                    .map(|s| self.ctx_rate(c, s) / freq.as_hz() as f64)
                    .sum()
            })
            .collect();
        let mut acts = std::mem::take(&mut self.acts_scratch);
        self.core_activities_into(&mut acts);
        let vcc = self.pmu.core_voltage_mv(0, self.now);
        let icc = self
            .current_model
            .icc_a(&acts, vcc, freq, self.thermal.temp_c());
        self.acts_scratch = acts;
        self.trace.push(Sample {
            time: self.now,
            vcc_mv: vcc,
            icc_a: icc,
            freq,
            temp_c: self.thermal.temp_c(),
            throttled,
            core_ipc,
        });
    }

    /// Runs the simulation up to (and exactly to) `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step(t) {}
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs until every program has halted or `max` is reached; returns
    /// the instant the simulation stopped.
    pub fn run_until_idle(&mut self, max: SimTime) -> SimTime {
        while !self.all_idle() && self.now < max {
            if !self.step(max) {
                break;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformSpec;
    use crate::program::Script;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pinned_cannon(freq_ghz: f64) -> Soc {
        Soc::new(SocConfig::pinned(
            PlatformSpec::cannon_lake(),
            Freq::from_ghz(freq_ghz),
        ))
    }

    /// Runs a loop of `class` on (0,0) and returns its wall duration.
    fn loop_duration(soc: &mut Soc, class: InstClass, insts: u64) -> SimTime {
        let start = soc.now();
        soc.spawn(0, 0, Box::new(Script::run_loop(class, insts)));
        let end = soc.run_until_idle(SimTime::from_ms(5.0));
        end - start
    }

    #[test]
    fn scalar_loop_runs_at_full_ipc() {
        let mut soc = pinned_cannon(1.4);
        // 2.8e6 inst at IPC 2 @1.4 GHz = 1 ms.
        let d = loop_duration(&mut soc, InstClass::Scalar64, 2_800_000);
        assert!((d.as_ms() - 1.0).abs() < 0.01, "d = {d}");
    }

    #[test]
    fn phi_loop_pays_throttling_period() {
        let mut soc = pinned_cannon(1.4);
        // 14_000 inst at IPC 1 @1.4 GHz = 10 µs unthrottled.
        let d = loop_duration(&mut soc, InstClass::Heavy512, 14_000);
        // Throttled at 1/4 rate during the ~12 µs ramp: expect ≫ 10 µs.
        assert!(d.as_us() > 18.0, "d = {d}");
        // And the TP is bounded (< 40 µs transaction budget, §6.2).
        assert!(d.as_us() < 40.0, "d = {d}");
    }

    #[test]
    fn second_loop_of_same_class_is_unthrottled() {
        let mut soc = pinned_cannon(1.4);
        let d1 = loop_duration(&mut soc, InstClass::Heavy256, 14_000);
        // Within the reset-time: no new transition.
        let d2 = loop_duration(&mut soc, InstClass::Heavy256, 14_000);
        assert!(d2 < d1, "d1 = {d1}, d2 = {d2}");
        assert!((d2.as_us() - 10.0).abs() < 0.5, "d2 = {d2}");
    }

    #[test]
    fn license_decays_after_reset_time() {
        let mut soc = pinned_cannon(1.4);
        let d1 = loop_duration(&mut soc, InstClass::Heavy256, 14_000);
        // Wait past the 650 µs reset-time.
        let resume = soc.now() + SimTime::from_us(700.0);
        soc.run_until(resume);
        let d2 = loop_duration(&mut soc, InstClass::Heavy256, 14_000);
        assert!(
            (d1.as_us() - d2.as_us()).abs() < 1.0,
            "d1 = {d1}, d2 = {d2}"
        );
    }

    #[test]
    fn smt_sibling_is_throttled_too() {
        // Observation 2: a 64b loop on the sibling thread slows down
        // while the other thread's PHI is being licensed.
        let mut soc = pinned_cannon(1.4);
        // Baseline: scalar loop alone (28k inst @ IPC2 @1.4GHz = 10 µs).
        let d_alone = loop_duration(&mut soc, InstClass::Scalar64, 28_000);
        soc.run_until(soc.now() + SimTime::from_ms(1.0)); // decay

        let mut soc = pinned_cannon(1.4);
        soc.spawn(
            0,
            1,
            Box::new(Script::run_loop(InstClass::Heavy512, 14_000)),
        );
        let start = soc.now();
        soc.spawn(
            0,
            0,
            Box::new(Script::run_loop(InstClass::Scalar64, 28_000)),
        );
        // Run until the scalar loop's thread is done.
        while soc.inst_retired(0, 0) < 27_999.0 && soc.now() < SimTime::from_ms(5.0) {
            soc.run_until(soc.now() + SimTime::from_us(1.0));
        }
        let d_shared = soc.now() - start;
        assert!(
            d_shared > d_alone + SimTime::from_us(5.0),
            "alone = {d_alone}, with PHI sibling = {d_shared}"
        );
    }

    #[test]
    fn improved_throttling_spares_smt_sibling() {
        let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4))
            .with_improved_throttling();
        let mut soc = Soc::new(cfg);
        soc.spawn(
            0,
            1,
            Box::new(Script::run_loop(InstClass::Heavy512, 14_000)),
        );
        let start = soc.now();
        soc.spawn(
            0,
            0,
            Box::new(Script::run_loop(InstClass::Scalar64, 28_000)),
        );
        while soc.inst_retired(0, 0) < 27_999.0 && soc.now() < SimTime::from_ms(5.0) {
            soc.run_until(soc.now() + SimTime::from_us(1.0));
        }
        let d = soc.now() - start;
        // Sibling runs at full speed: ~10 µs.
        assert!(d.as_us() < 11.0, "d = {d}");
    }

    #[test]
    fn cross_core_requests_extend_receiver_tp() {
        // Observation 3.
        let mut soc = pinned_cannon(1.4);
        soc.spawn(
            0,
            0,
            Box::new(Script::run_loop(InstClass::Heavy512, 30_000)),
        );
        soc.run_until(SimTime::from_ns(200.0)); // "within a few hundred cycles"
        let start = soc.now();
        soc.spawn(
            1,
            0,
            Box::new(Script::run_loop(InstClass::Heavy128, 10_000)),
        );
        let end = soc.run_until_idle(SimTime::from_ms(5.0));
        let d_both = end - start;

        // Same receiver loop without the other core's PHI.
        let mut soc = pinned_cannon(1.4);
        let d_alone = loop_duration(&mut soc, InstClass::Heavy128, 10_000);
        assert!(
            d_both > d_alone + SimTime::from_us(5.0),
            "alone = {d_alone}, contended = {d_both}"
        );
    }

    #[test]
    fn secure_mode_eliminates_throttling() {
        let cfg =
            SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4)).with_secure_mode();
        let mut soc = Soc::new(cfg);
        let d = loop_duration(&mut soc, InstClass::Heavy512, 14_000);
        assert!((d.as_us() - 10.0).abs() < 0.5, "d = {d}");
    }

    #[test]
    fn wall_clock_sync_via_tsc() {
        let mut soc = pinned_cannon(2.2);
        let observed = Rc::new(RefCell::new(0u64));
        let obs = observed.clone();
        let mut sent = false;
        let prog = crate::program::FnProgram::new("sync", move |ctx: &ProgCtx| {
            if !sent {
                sent = true;
                Action::WaitUntilTsc(220_000) // 100 µs at 2.2 GHz TSC
            } else {
                *obs.borrow_mut() = ctx.tsc;
                Action::Halt
            }
        });
        soc.spawn(0, 0, Box::new(prog));
        soc.run_until_idle(SimTime::from_ms(1.0));
        let tsc = *observed.borrow();
        assert!(
            (220_000..220_400).contains(&tsc),
            "woke at tsc {tsc}, expected ~220000"
        );
    }

    #[test]
    fn turbo_protection_reduces_frequency_for_phis() {
        // Figure 7(b): at the performance governor, AVX2/AVX-512 force
        // the mobile part below its 3.1 GHz max turbo.
        let mut soc = Soc::new(SocConfig::quiet(PlatformSpec::cannon_lake()));
        assert_eq!(soc.freq(), Freq::from_ghz(3.1));
        soc.spawn(
            0,
            0,
            Box::new(Script::run_loop(InstClass::Heavy512, 3_000_000)),
        );
        soc.run_until(SimTime::from_ms(1.0));
        assert!(
            soc.freq() <= Freq::from_ghz(2.4),
            "freq = {} under AVX-512",
            soc.freq()
        );
        // Temperature is nowhere near Tjmax (Key Conclusion 2).
        assert!(soc.temp_c() < 70.0);
    }

    #[test]
    fn trace_records_voltage_steps() {
        let cfg = SocConfig::pinned(PlatformSpec::coffee_lake(), Freq::from_ghz(2.0))
            .with_trace(SimTime::from_us(5.0));
        let mut soc = Soc::new(cfg);
        let v0 = soc.vcc_mv();
        soc.spawn(
            0,
            0,
            Box::new(Script::run_loop(InstClass::Heavy256, 1_000_000)),
        );
        soc.run_until(SimTime::from_ms(1.0));
        let trace = soc.trace();
        assert!(!trace.is_empty());
        let vmax = trace.vcc_max().unwrap();
        assert!(vmax > v0 + 3.0, "v0 = {v0}, vmax = {vmax}");
        // Frequency stayed pinned (Figure 6(a), fifth observation).
        assert!(trace
            .freq_series()
            .iter()
            .all(|(_, f)| (*f - 2.0).abs() < 1e-9));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4))
                .with_noise(crate::noise::NoiseConfig::low());
            let mut soc = Soc::new(cfg);
            soc.spawn(
                0,
                0,
                Box::new(Script::run_loop(InstClass::Heavy256, 50_000)),
            );
            soc.run_until_idle(SimTime::from_ms(10.0))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn power_gate_pause_is_nanoseconds() {
        let mut soc = pinned_cannon(1.4);
        // Tiny AVX loop: duration dominated by throttle, but the PG wake
        // adds its ns-scale latency to the very first block only.
        let d1 = loop_duration(&mut soc, InstClass::Light256, 100);
        soc.run_until(soc.now() + SimTime::from_us(1.0));
        let d2 = loop_duration(&mut soc, InstClass::Light256, 100);
        // Same license now: second run has no ramp AND no PG wake.
        assert!(d1 > d2);
    }
}

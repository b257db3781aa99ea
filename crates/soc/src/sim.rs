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
use ichannels_pdn::guardband::GuardbandModel;
use ichannels_pdn::power_gate::PowerGate;
use ichannels_pmu::central::{CentralPmu, PmuConfig};
use ichannels_pmu::memo::ExactMemo;
use ichannels_pmu::pstate::PStateEngine;
use ichannels_pmu::thermal::{RelaxationTable, ThermalModel};
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

impl CoreState {
    /// The most intense class any of the core's threads is running.
    #[inline]
    fn running_class(&self) -> Option<InstClass> {
        self.ctxs
            .iter()
            .filter_map(|ctx| match ctx.state {
                CtxState::Running { class, .. } => Some(class),
                _ => None,
            })
            .max()
    }
}

/// Work counts of one SoC run: the events, and how often each
/// per-event shortcut had to fall back to the full computation. Each is
/// a pure function of the work set, except that the thermal table
/// outlives re-arms, so its misses also depend on the earlier runs of
/// the same `Soc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepCounts {
    /// Events processed.
    pub steps: u64,
    /// Package-rail reads (one per event) before the rail's `free_at`,
    /// which search the ramp history; the others read the setpoint.
    pub rail_history_reads: u64,
    /// Next-decay answers the PMU gave.
    pub decay_queries: u64,
    /// How many of those scanned every licensed core.
    pub decay_scans: u64,
    /// Thermal advances (one per event) that computed `exp` instead of
    /// reading the table.
    pub thermal_misses: u64,
    /// Frequency retargets (block starts and turbo-license changes).
    pub retargets: u64,
    /// How many of those ran the electrical-limit search instead of
    /// reading a verdict memo.
    pub limit_searches: u64,
    /// Rail targets the PMU computed instead of reading its memo.
    pub target_misses: u64,
    /// Rail ramp times computed instead of read from the PMU's memo.
    pub ramp_misses: u64,
    /// Block completion times (event search) computed instead of read
    /// from the memo.
    pub completion_misses: u64,
}

/// Verdicts of the electrical-limit search: `true` for a (core pattern,
/// first candidate in Hz) key whose first candidate passes at Tjmax;
/// see `Soc::retarget_frequency`.
type VerdictMemo = ExactMemo<(u128, u64), bool, 64>;

/// Block completion times `SimTime::from_secs(remaining / rate)`, keyed
/// by the bits of `remaining` and `rate`.
type CompletionMemo = ExactMemo<(u64, u64), SimTime, 64>;

/// Bits per core of a [`VerdictMemo`] core pattern: the projected
/// license rank (0‥6) and a running flag.
const PATTERN_BITS: usize = 4;

/// `SimTime::from_secs(remaining / rate)`: how long a block with
/// `remaining` instructions runs at `rate` instructions per second.
fn completion_time(remaining: f64, rate: f64) -> SimTime {
    SimTime::from_secs(remaining / rate)
}

/// What a running thread's retirement rate reads beyond its own core,
/// fixed for one event.
struct RateInputs {
    now: SimTime,
    /// A P-state transition is in flight.
    in_transition: bool,
    freq_hz: f64,
    policy: ThrottlePolicy,
}

impl RateInputs {
    /// The rate of thread `smt` of `core`, running `class` and not
    /// paused, with `running` of the core's threads running.
    #[inline]
    fn rate(&self, core: &CoreState, smt: usize, class: InstClass, running: usize) -> f64 {
        let gated = self.now < core.throttled_until;
        // P-state transitions throttle the whole core regardless of
        // policy (clock relock, Figure 9(c)).
        let throttled = self.in_transition
            || match self.policy {
                ThrottlePolicy::BlockEntireCore => gated,
                ThrottlePolicy::PerThreadPhiOnly => {
                    gated && core.throttle_cause == smt && class.is_phi()
                }
            };
        effective_ipc(class, throttled, running > 1) * self.freq_hz
    }
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
    /// `exp(-dt/τ)` memo of the thermal model. `τ` is fixed by the
    /// config, so the table outlives re-arms; only its miss count resets.
    relaxation: RelaxationTable,
    /// Limit-search verdicts, a pure function of the platform; kept
    /// like `relaxation`.
    verdicts: VerdictMemo,
    /// Block completion times, a pure function; kept like `relaxation`.
    completions: CompletionMemo,
    /// The governor's request `[idle, busy]`, indexed by whether any
    /// core runs: fixed by the config, so asked once.
    desired: [Freq; 2],
    current_model: CurrentModel,
    /// The platform's guardband model, for the electrical-limit search
    /// in `retarget_frequency`.
    guardband: GuardbandModel,
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
    /// Of those events, how many read the package rail before its
    /// `free_at`, where the rail searches its ramp history.
    rail_history_reads: u64,
    /// Frequency retargets since construction or the last re-arm.
    retargets: u64,
    /// How many of those ran the full electrical-limit search.
    limit_searches: u64,
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
        let guardband = p.guardband();
        let thermal = cfg.thermal_model();
        let relaxation = thermal.relaxation_table();
        let desired = [0.0, 1.0].map(|load| cfg.governor.requested_freq(&p.pstates, load));
        let tsc = Tsc::new(p.tsc_freq);
        Soc {
            pmu,
            pstate: PStateEngine::new(initial_freq),
            turbo: TurboState::new(),
            thermal,
            relaxation,
            verdicts: VerdictMemo::new((0, 0), false),
            completions: CompletionMemo::new(
                (0.0f64.to_bits(), 1.0f64.to_bits()),
                completion_time(0.0, 1.0),
            ),
            desired,
            current_model,
            guardband,
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
            rail_history_reads: 0,
            retargets: 0,
            limit_searches: 0,
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
        self.relaxation.clear_misses();
        self.verdicts.clear_misses();
        self.completions.clear_misses();
        // `current_model`, `guardband`, `tsc` and `desired` are pure
        // functions of the config and carry no run state — left
        // untouched.
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
        self.rail_history_reads = 0;
        self.retargets = 0;
        self.limit_searches = 0;
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

    /// Work counts of the per-event shortcuts since construction or the
    /// last re-arm.
    pub fn step_counts(&self) -> StepCounts {
        let (decay_queries, decay_scans) = self.pmu.decay_counts();
        let (target_misses, ramp_misses) = self.pmu.memo_misses();
        StepCounts {
            steps: self.steps,
            rail_history_reads: self.rail_history_reads,
            decay_queries,
            decay_scans,
            thermal_misses: self.relaxation.misses(),
            retargets: self.retargets,
            limit_searches: self.limit_searches,
            target_misses,
            ramp_misses,
            completion_misses: self.completions.misses(),
        }
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
        // lint:allow(R001): livelock backstop. A program issuing a
        // million non-blocking actions at one instant breaks the
        // `Program` contract; `activate` runs inside `spawn` and `step`,
        // which have no error channel, so the panic is its only report.
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
            match core.running_class() {
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
    ///
    /// The limit search is a function of its first candidate, the
    /// projected rank and running flag of every core, and the junction
    /// temperature. `icc_a` is non-decreasing in temperature (leakage
    /// grows linearly with a non-negative coefficient, and every IEEE-754
    /// step on that path is weakly monotone), so a first candidate that
    /// passes at Tjmax passes at every temperature up to it. Such
    /// verdicts are kept in `verdicts`, keyed by the candidate and the
    /// per-core pattern packed by core index ([`PATTERN_BITS`] each; an
    /// idle Scalar64 core packs as zero and adds `+0.0` to every sum, so
    /// the pattern needs no core count), and answer later calls at or
    /// below Tjmax without the search. A first candidate that fails is
    /// never stored.
    fn retarget_frequency(&mut self) {
        self.retargets += 1;
        let (first, key) = self.first_candidate();
        let candidate = if self.verdict_holds(key) {
            first
        } else {
            self.limit_searches += 1;
            let mut projected = std::mem::take(&mut self.proj_scratch);
            let mut acts = std::mem::take(&mut self.proj_acts_scratch);
            self.projection_into(&mut projected, &mut acts);
            let (candidate, first_fits_hot) = self.limit_search(first, &projected, &acts);
            if let Some(key) = key.filter(|_| first_fits_hot) {
                self.verdicts.insert(key, true);
            }
            self.proj_scratch = projected;
            self.proj_acts_scratch = acts;
            candidate
        };
        if candidate != self.pstate.target() {
            self.pstate
                .request(self.now, candidate, &self.cfg.platform.pstates);
        }
    }

    /// The first candidate of the limit search, and the key of its
    /// verdict (`None` past the pattern's width).
    ///
    /// One pass over the engaged cores gathers the demanded turbo
    /// license, the active-core count, and per core the worst-case
    /// projection (Key Conclusion 2): the license the core is *about* to
    /// hold (its current effective license or the class it is running,
    /// whichever is higher) and whether it runs at all.
    fn first_candidate(&self) -> (Freq, Option<(u128, u64)>) {
        let mut lic = self.turbo.current();
        let mut active = 0usize;
        // `engaged` ascends, so its last core decides the pattern's width.
        let keyed = self.engaged.last().is_none_or(|&i| i < 128 / PATTERN_BITS);
        let mut pattern = 0u128;
        for &i in &self.engaged {
            let running = self.cores[i].running_class();
            let licensed = self.pmu.effective_level(i, self.now);
            if let Some(r) = running {
                active += 1;
                lic = lic.max(TurboLicense::for_class(r));
            }
            let proj = running.map_or(licensed, |r| r.intensity_rank().max(licensed));
            if keyed {
                let bits = u128::from(proj) | u128::from(running.is_some()) << 3;
                pattern |= bits << (i * PATTERN_BITS);
            }
        }
        let p = &self.cfg.platform;
        let desired = self.desired[usize::from(active > 0)];
        let first = desired.min(p.turbo.max_freq(lic, active.max(1)));
        (first, keyed.then_some((pattern, first.as_hz())))
    }

    /// Whether `key` holds a verdict that answers at the current
    /// temperature: its first candidate fits at Tjmax, and the die is
    /// no hotter than that.
    fn verdict_holds(&self, key: Option<(u128, u64)>) -> bool {
        self.thermal.temp_c() <= self.thermal.tjmax_c()
            && key.is_some_and(|key| self.verdicts.get(key) == Some(true))
    }

    /// Fills the limit search's per-core projections and activities
    /// from the engaged cores. A core never spawned on would add only a
    /// Scalar64 projection (guardband `+0.0`) and an `IDLE` activity
    /// (current `+0.0`).
    fn projection_into(
        &self,
        projected: &mut Vec<Option<InstClass>>,
        acts: &mut Vec<CoreActivity>,
    ) {
        projected.clear();
        acts.clear();
        for &i in &self.engaged {
            let running = self.cores[i].running_class();
            let licensed = self.pmu.effective_class(i, self.now);
            let proj = running.map_or(licensed, |r| r.max(licensed));
            projected.push(Some(proj));
            acts.push(match running {
                Some(_) => CoreActivity::busy(proj),
                None => CoreActivity::IDLE,
            });
        }
    }

    /// The electrical-limit search: walks down the P-state table from
    /// `first` until the projected operating point fits. Returns the
    /// frequency found and whether `first` itself fits at Tjmax.
    fn limit_search(
        &self,
        first: Freq,
        projected: &[Option<InstClass>],
        acts: &[CoreActivity],
    ) -> (Freq, bool) {
        let p = &self.cfg.platform;
        let mut candidate = first;
        loop {
            let base = p.vf_curve.voltage_mv(candidate);
            let vcc = base
                + self
                    .guardband
                    .package_guardband_mv(projected, base, candidate);
            let icc = self
                .current_model
                .icc_a(acts, vcc, candidate, self.thermal.temp_c());
            if p.limits.check(vcc, icc).is_none() {
                let fits_hot = candidate == first && {
                    let tjmax_c = self.thermal.tjmax_c();
                    let icc_hot = self.current_model.icc_a(acts, vcc, candidate, tjmax_c);
                    p.limits.check(vcc, icc_hot).is_none()
                };
                return (candidate, fits_hot);
            }
            match p.pstates.next_below(candidate) {
                Some(f) => candidate = f,
                None => return (candidate, false),
            }
        }
    }

    // ----- rates -------------------------------------------------------

    /// Retirement rate (instructions/second) of a hardware thread, valid
    /// until the next event.
    fn ctx_rate(&self, core: usize, smt: usize) -> f64 {
        let c = &self.cores[core];
        let ctx = &c.ctxs[smt];
        let CtxState::Running { class, .. } = ctx.state else {
            return 0.0;
        };
        if self.now < ctx.paused_until {
            return 0.0;
        }
        let running = c
            .ctxs
            .iter()
            .filter(|x| matches!(x.state, CtxState::Running { .. }))
            .count();
        let inputs = RateInputs {
            now: self.now,
            in_transition: self.pstate.in_transition(self.now),
            freq_hz: self.freq().as_hz() as f64,
            policy: self.cfg.throttle_policy,
        };
        inputs.rate(c, smt, class, running)
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
        // The rate inputs `ctx_rate` reads, gathered once per event
        // (frequency, transition) or per core (running threads).
        let inputs = RateInputs {
            now,
            in_transition,
            freq_hz: self.freq().as_hz() as f64,
            policy: self.cfg.throttle_policy,
        };
        let completions = &mut self.completions;
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
            let running = core
                .ctxs
                .iter()
                .filter(|x| matches!(x.state, CtxState::Running { .. }))
                .count();
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
                            rate = inputs.rate(core, si, class, running);
                            if rate > 0.0 {
                                let remaining = remaining.max(0.0);
                                let key = (remaining.to_bits(), rate.to_bits());
                                let dt = completions
                                    .get_or_insert_with(key, || completion_time(remaining, rate))
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
        if in_transition {
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
        if now < self.pmu.rail(0).free_at() {
            self.rail_history_reads += 1;
        }
        let power = self.current_model.power_w(
            &acts,
            self.pmu.core_voltage_mv(0, now),
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
        self.thermal.advance_memo(power, dt, &mut self.relaxation);
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
    fn improved_throttling_spares_offenders_non_phi_uops() {
        // The offending thread itself: a short PHI burst starts the
        // throttle, and the scalar loop that follows on the same thread
        // (28k inst @ IPC 2 @ 1.4 GHz = 10 µs) runs inside that window.
        let run = |cfg: SocConfig| {
            let mut soc = Soc::new(cfg);
            let phi_then_scalar = Script::new(
                vec![
                    Action::Run {
                        class: InstClass::Heavy512,
                        instructions: 100,
                    },
                    Action::Run {
                        class: InstClass::Scalar64,
                        instructions: 28_000,
                    },
                ],
                "phi then scalar",
            );
            soc.spawn(0, 0, Box::new(phi_then_scalar));
            soc.run_until_idle(SimTime::from_ms(5.0))
        };
        let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
        let baseline = run(cfg.clone());
        let improved = run(cfg.with_improved_throttling());
        // Only the PHI uops are gated: the scalar loop runs at full speed.
        assert!(improved.as_us() < 11.0, "improved = {improved}");
        // The baseline gate blocks the scalar loop for the rest of the TP.
        assert!(
            baseline > improved + SimTime::from_us(5.0),
            "baseline = {baseline}, improved = {improved}"
        );
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

    /// A seeded script: bursts of random classes and lengths between
    /// random sleeps, so licenses rise, overlap and decay.
    fn random_script(x: &mut u64, blocks: usize) -> Script {
        let mut next = || {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *x >> 33
        };
        let mut actions = Vec::new();
        for _ in 0..blocks {
            actions.push(Action::Run {
                class: InstClass::ALL[next() as usize % InstClass::ALL.len()],
                instructions: 1_000 + next() % 60_000,
            });
            if next() % 3 == 0 {
                actions.push(Action::SleepFor(SimTime::from_us((next() % 900) as f64)));
            }
        }
        Script::new(actions, "random blocks")
    }

    /// Every verdict the memo would answer with matches the full limit
    /// search, at every event of seeded schedules on all four
    /// platforms, under the performance governor (turbo) and pinned.
    /// Figure 7(b)'s AVX-512 load on Cannon Lake is limit-bound: its
    /// first candidate fails, so it must never answer from the memo.
    /// Two seeds also heat the die every 16 events, one past Tjmax and
    /// one far past it (where leakage breaks limits that held at
    /// Tjmax), so verdicts stored cool are checked hot.
    #[test]
    fn retarget_verdicts_answer_like_the_limit_search() {
        let platforms = [
            PlatformSpec::cannon_lake(),
            PlatformSpec::coffee_lake(),
            PlatformSpec::haswell(),
            PlatformSpec::skylake_server(),
        ];
        let (mut answered, mut first_failed, mut hot) = (0u64, 0u64, 0u64);
        for platform in platforms {
            for turbo in [true, false] {
                for seed in 1..=5u64 {
                    let cfg = if turbo {
                        SocConfig::quiet(platform.clone())
                    } else {
                        SocConfig::pinned(platform.clone(), Freq::from_ghz(2.0))
                    };
                    let mut soc = Soc::new(cfg);
                    let mut x = seed;
                    let cores = platform.n_cores.min(5);
                    for core in 0..cores {
                        for smt in 0..platform.threads_per_core().min(2) {
                            let avx512_thread = seed == 1 && (core, smt) == (cores - 1, 0);
                            if !(core + smt + seed as usize).is_multiple_of(3) && !avx512_thread {
                                soc.spawn(core, smt, Box::new(random_script(&mut x, 24)));
                            }
                        }
                    }
                    if seed == 1 {
                        soc.spawn(
                            cores - 1,
                            0,
                            Box::new(Script::run_loop(InstClass::Heavy512, 3_000_000)),
                        );
                    }
                    let mut projected = Vec::new();
                    let mut acts = Vec::new();
                    while soc.step(SimTime::from_ms(10.0)) {
                        if seed >= 4 && soc.step_counts().steps.is_multiple_of(16) {
                            let watts = if seed == 4 { 80.0 } else { 10_000.0 };
                            soc.thermal.advance(watts, SimTime::from_ms(500.0));
                        }
                        if soc.temp_c() > soc.thermal.tjmax_c() {
                            hot += 1;
                        }
                        let (first, key) = soc.first_candidate();
                        soc.projection_into(&mut projected, &mut acts);
                        let (searched, _) = soc.limit_search(first, &projected, &acts);
                        if searched != first {
                            first_failed += 1;
                        }
                        if soc.verdict_holds(key) {
                            answered += 1;
                            assert_eq!(searched, first, "{} at {}", platform.name, soc.now());
                        }
                    }
                    let counts = soc.step_counts();
                    assert!(
                        counts.limit_searches < counts.retargets,
                        "{}",
                        platform.name
                    );
                }
            }
        }
        assert!(answered > 2_000, "{answered} answered");
        assert!(first_failed > 100, "{first_failed} limit-bound events");
        assert!(hot > 100, "{hot} events above Tjmax");
    }

    /// Block completion times read from the memo equal the direct
    /// quotient, bit for bit, over realistic block sizes and rates and
    /// over colliding keys.
    #[test]
    fn completion_memo_answers_bit_for_bit() {
        let mut memo = CompletionMemo::new(
            (0.0f64.to_bits(), 1.0f64.to_bits()),
            completion_time(0.0, 1.0),
        );
        let mut x: u64 = 0xB10C;
        for i in 0..50_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let remaining = match i % 3 {
                0 => (1_000 + (x >> 40) % 64 * 500) as f64,
                1 => (x >> 11) as f64 / (1u64 << 40) as f64,
                _ => 0.0,
            };
            let class = InstClass::ALL[(x >> 20) as usize % InstClass::ALL.len()];
            let ghz = [1.4, 2.2, 3.1][(x >> 30) as usize % 3];
            let rate =
                effective_ipc(class, x & 1 == 1, x & 2 == 2) * Freq::from_ghz(ghz).as_hz() as f64;
            let key = (remaining.to_bits(), rate.to_bits());
            let got = memo.get_or_insert_with(key, || completion_time(remaining, rate));
            assert_eq!(
                got,
                completion_time(remaining, rate),
                "{remaining} / {rate}"
            );
        }
        assert!(memo.misses() > 0 && memo.misses() < 50_000);
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

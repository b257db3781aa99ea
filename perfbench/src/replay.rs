//! The traced run's replay: a fresh-seed sample of the workload's own
//! trials, executed again through the layer calls so each layer can be
//! timed from outside.
//!
//! Two disjoint samples are used, because a second execution of the
//! same trial would be served by the calibration memo: one sample runs
//! whole through `Scenario::run` (the `lab.trial` distribution), the
//! other is decomposed into `TrialContext::new` → calibration →
//! `IChannel::try_transmit_symbols_with` (four-level channels) or
//! `MultiLevelChannel::calibrate`/`evaluate` (wider alphabets). The
//! decomposition mirrors the lab's trial engine — payload seed
//! `mix(seed, 3)`, app seed `mix(seed, 4)`, the app on the first free
//! hardware thread — and spawns any concurrent app through the transmit
//! setup hook inside a counting [`Program`] wrapper. Baseline and probe
//! trials have no such layers and are only timed whole.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use ichannels::ber::random_symbols;
use ichannels::channel::{ChannelKind, IChannel};
use ichannels::extended::MultiLevelChannel;
use ichannels::symbols::Symbol;
use ichannels_lab::scenario::{AppKind, AppSpec, ChannelSelect, PayloadSpec};
use ichannels_lab::{Scenario, TrialContext, TrialRecord};
use ichannels_soc::config::PlatformSpec;
use ichannels_soc::program::{Action, ProgCtx, Program};
use ichannels_soc::sim::Soc;
use ichannels_uarch::time::SimTime;
use ichannels_workload::apps::{RandomPhiApp, SevenZipApp};

use crate::stats::mix;

/// What the replay measured, summed over its trials.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of each whole `Scenario::run`, in nanoseconds.
    pub trial_ns: Vec<f64>,
    /// Time inside `try_transmit_symbols_with`, in nanoseconds.
    pub transmit_ns: f64,
    /// Transaction slots those transmissions carried.
    pub transmit_slots: u64,
    /// Time inside `MultiLevelChannel::calibrate` + `evaluate`.
    pub extended_ns: f64,
    /// SoC slots simulated by the multi-level channel.
    pub extended_slots: u64,
    /// SoC re-arms made by the multi-level channel.
    pub extended_rearms: u64,
    /// `Program::next` calls of concurrent apps.
    pub app_next_calls: u64,
    /// Time inside those calls, in nanoseconds.
    pub app_next_ns: u64,
}

/// Times every scenario whole through `Scenario::run`; returns the
/// records.
pub fn time_trials(scenarios: &[Scenario], out: &mut Replay) -> Vec<TrialRecord> {
    scenarios
        .iter()
        .map(|s| {
            let started = Instant::now();
            let record = s.run();
            out.trial_ns.push(started.elapsed().as_nanos() as f64);
            record
        })
        .collect()
}

/// Runs every scenario through the layer calls. Needs telemetry on:
/// the multi-level slot and re-arm counts are read from the `soc.*`
/// counters the program emits.
pub fn decompose(scenarios: &[Scenario], out: &mut Replay) {
    for s in scenarios {
        let ctx = TrialContext::new(s);
        match s.channel {
            ChannelSelect::Icc(kind) => icc(s, &ctx, kind, out),
            ChannelSelect::MultiLevel(kind, alpha) => {
                let channel = MultiLevelChannel::new(kind, ctx.config().clone(), alpha.alphabet());
                let before = soc_counts();
                let started = Instant::now();
                let means = channel.calibrate(s.calib_reps);
                std::hint::black_box(channel.evaluate(&means, s.payload_symbols, mix(s.seed, 3)));
                out.extended_ns += started.elapsed().as_nanos() as f64;
                let after = soc_counts();
                out.extended_rearms += after.0 - before.0;
                out.extended_slots += after.1 - before.1;
            }
            ChannelSelect::Baseline(_) | ChannelSelect::Probe(_) => {}
        }
    }
}

fn soc_counts() -> (u64, u64) {
    let snap = ichannels_obs::global().snapshot();
    (
        snap.counter("soc.rearms"),
        snap.counter("soc.slots_simulated"),
    )
}

/// One four-level trial: calibration, then the payload transmission
/// with any concurrent app spawned through the setup hook. A trial
/// whose training fails (an expected error of some fuzz cells) has no
/// transmission to time.
fn icc(s: &Scenario, ctx: &TrialContext<'_>, kind: ChannelKind, out: &mut Replay) {
    let channel = IChannel::new(kind, ctx.config().clone());
    let Ok(cal) = ctx.calibration(kind) else {
        return;
    };
    let symbols = match s.payload {
        PayloadSpec::Random => random_symbols(s.payload_symbols, mix(s.seed, 3)),
        PayloadSpec::Constant(v) => vec![Symbol::new(v); s.payload_symbols],
    };
    let slots = symbols.len() * channel.slots_per_symbol();
    let cfg = channel.config();
    let deadline = cfg.start_offset + cfg.slot_period.scale((slots + 2) as f64);
    let placement = app_placement(kind, &cfg.soc.platform);
    let app_seed = mix(s.seed, 4);
    let counts = Rc::new(Cell::new((0u64, 0u64)));
    let started = Instant::now();
    let tx = channel.try_transmit_symbols_with(&symbols, &cal, |soc: &mut Soc| {
        if let Some(app) = s.app {
            let program = Counting {
                inner: app_program(app, deadline, app_seed),
                counts: Rc::clone(&counts),
            };
            soc.spawn(placement.0, placement.1, Box::new(program));
        }
    });
    out.transmit_ns += started.elapsed().as_nanos() as f64;
    out.transmit_slots += slots as u64;
    let (calls, ns) = counts.get();
    out.app_next_calls += calls;
    out.app_next_ns += ns;
    std::hint::black_box(tx.is_ok());
}

fn app_program(app: AppSpec, deadline: SimTime, seed: u64) -> Box<dyn Program> {
    match app.kind {
        AppKind::RandomLevels => Box::new(RandomPhiApp::sender_levels(
            app.rate_hz,
            app.burst_insts,
            deadline,
            seed,
        )),
        AppKind::FixedLevel(level) => Box::new(RandomPhiApp::new(
            app.rate_hz,
            app.burst_insts,
            vec![Symbol::new(level).sender_class()],
            deadline,
            seed,
        )),
        AppKind::SevenZip => Box::new(SevenZipApp::typical(deadline, seed)),
    }
}

/// The first hardware thread the channel leaves free.
fn app_placement(kind: ChannelKind, spec: &PlatformSpec) -> (usize, usize) {
    let occupied: &[(usize, usize)] = match kind {
        ChannelKind::Thread => &[(0, 0)],
        ChannelKind::Smt => &[(0, 0), (0, 1)],
        ChannelKind::Cores => &[(0, 0), (1, 0)],
    };
    let mut candidates = vec![(spec.n_cores - 1, 0)];
    if spec.smt {
        candidates.push((0, 1));
        candidates.push((spec.n_cores - 1, 1));
    }
    candidates.push((1, 0));
    candidates
        .into_iter()
        .find(|slot| !occupied.contains(slot))
        .unwrap_or((1, 0))
}

/// Counts and times the `next` calls of the program it wraps.
struct Counting {
    inner: Box<dyn Program>,
    counts: Rc<Cell<(u64, u64)>>,
}

impl Program for Counting {
    fn next(&mut self, ctx: &ProgCtx) -> Action {
        let started = Instant::now();
        let action = self.inner.next(ctx);
        let ns = started.elapsed().as_nanos() as u64;
        let (calls, total) = self.counts.get();
        self.counts.set((calls + 1, total + ns));
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

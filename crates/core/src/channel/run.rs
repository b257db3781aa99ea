//! The run-one-transmission engine: [`SymbolRun`] (the re-armable
//! Soc-owning driver behind every calibration and payload run),
//! [`IChannel`] (a channel bound to its configuration), the
//! [`Transmission`] result, and the typed [`ChannelError`].

use std::borrow::Cow;
use std::rc::Rc;

use ichannels_soc::config::SocConfig;
use ichannels_soc::sim::Soc;
use ichannels_uarch::isa::InstClass;
use ichannels_uarch::time::SimTime;
use ichannels_uarch::tsc::Tsc;
use ichannels_workload::loops::{instructions_for_duration, Recorder};

use crate::symbols::Symbol;

use super::calibration::Calibration;
use super::config::ChannelConfig;
use super::kind::ChannelKind;
use super::programs::{JitterSource, SlotProgram};
use super::receiver::ReceiverCalibration;

/// A typed failure of a channel run.
///
/// Campaign trials surface this through their trial record (one cell
/// fails with a readable message) instead of aborting the whole
/// process the way the old `assert_eq!` did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The receiver recorded a different number of transaction
    /// durations than the sender transmitted slots: the slot schedule
    /// broke down before the run deadline (typically a `slot_period`
    /// too short for the throttled PHI and measurement loops).
    ReceiverMissedTransactions {
        /// The channel whose schedule broke down.
        channel: ChannelKind,
        /// Transaction slots transmitted.
        expected: usize,
        /// Durations the receiver recorded.
        got: usize,
    },
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::ReceiverMissedTransactions {
                channel,
                expected,
                got,
            } => write!(
                f,
                "{channel} receiver missed transactions ({got} of {expected} recorded): \
                 the slot schedule broke down before the deadline — check that the \
                 slot period covers the throttled sender and receiver loops"
            ),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Result of one transmission.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Symbols the sender transmitted.
    pub sent: Vec<Symbol>,
    /// Symbols the receiver decoded.
    pub received: Vec<Symbol>,
    /// Raw receiver durations (TSC cycles), one per transaction.
    pub durations: Vec<u64>,
    /// Wall-clock time of the whole transmission.
    pub elapsed: SimTime,
}

impl Transmission {
    /// Gross channel throughput in bits/s (2 bits per transaction over
    /// the measured wall-clock time).
    pub fn throughput_bps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        (self.sent.len() as f64 * 2.0) / self.elapsed.as_secs()
    }

    /// Fraction of wrong bits.
    pub fn bit_error_rate(&self) -> f64 {
        if self.sent.is_empty() {
            return 0.0;
        }
        let wrong: u32 = self
            .sent
            .iter()
            .zip(&self.received)
            .map(|(s, r)| s.bit_errors_vs(*r))
            .sum();
        f64::from(wrong) / (self.sent.len() as f64 * 2.0)
    }
}

/// The driver of every slotted channel — the IChannels, the NetSpectre
/// and TurboCC baselines and the multi-level channel — with every
/// per-configuration invariant (instruction counts, slot schedule,
/// receiver window, jitter σ) derived once at construction.
///
/// Slot `i` starts at TSC `slot0 + i·period`: the sender runs
/// `send[levels[i]]` (nothing for `None`) and the receiver, on
/// [`ChannelKind::receiver_thread`] and `recv_delay` cycles into the
/// slot, times its loop. The thread channel does both in one program;
/// SMT and Cores spawn a separate sender on (0, 0) iff `send` is
/// non-empty. A run of `n` slots ends at the latest at
/// `start_offset + slot_period·(n + 2)`.
///
/// A `SymbolRun` owns its [`Soc`] and **re-arms** it in place for each
/// run via [`Soc::rearm`] (reusing the core, rail-segment, and trace
/// allocations): repeated runs are bit-identical to a fresh driver each
/// time — noise arrivals, program state, and measurement jitter all
/// restart from the configuration seeds — while the schedule
/// derivation and the SoC construction are paid once.
pub struct SymbolRun {
    pub(crate) kind: ChannelKind,
    pub(crate) soc_cfg: SocConfig,
    pub(crate) start_offset: SimTime,
    pub(crate) slot_period: SimTime,
    pub(crate) slot0: u64,
    pub(crate) period: u64,
    /// The sender loop of each level.
    pub(crate) send: Rc<[Option<(InstClass, u64)>]>,
    pub(crate) recv_class: InstClass,
    pub(crate) recv_insts: u64,
    pub(crate) recv_delay: u64,
    pub(crate) jitter_seed: u64,
    pub(crate) jitter_sigma_cycles: f64,
    /// The most recently armed SoC; `None` until the first run.
    pub(crate) soc: Option<Soc>,
}

impl std::fmt::Debug for SymbolRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SymbolRun({} on {})",
            self.kind, self.soc_cfg.platform.name
        )
    }
}

impl SymbolRun {
    /// Derives the run invariants of `channel`: its four sender levels
    /// and its calibrated receiver window. No SoC is built yet.
    pub fn new(channel: &IChannel) -> Self {
        let cfg = channel.config();
        let send = Symbol::ALL.map(|s| Some(s.sender_class()));
        // The calibrated integration window; the exact untouched
        // duration when the tuning is the identity, so legacy-tuned
        // platforms reproduce the fixed-window receiver bit for bit.
        let tuning = channel.tuning();
        let recv_window = if tuning.window_scale == 1.0 {
            cfg.receiver_loop
        } else {
            cfg.receiver_loop.scale(tuning.window_scale)
        };
        SymbolRun::slotted(
            channel.kind(),
            cfg,
            &send,
            channel.kind().receiver_class(),
            recv_window,
        )
    }

    /// A `kind` channel on `cfg`'s slot schedule whose level `i` sends
    /// a `cfg.sender_loop`-long loop of `send[i]` and whose receiver
    /// times a `recv_window`-long `recv_class` loop. The TSC is a pure
    /// function of the platform's invariant frequency, exactly what
    /// `Soc::new` would construct.
    pub(crate) fn slotted(
        kind: ChannelKind,
        cfg: &ChannelConfig,
        send: &[Option<InstClass>],
        recv_class: InstClass,
        recv_window: SimTime,
    ) -> Self {
        let freq = cfg.freq();
        let tsc = Tsc::new(cfg.soc.platform.tsc_freq);
        let send = send
            .iter()
            .map(|class| class.map(|c| (c, instructions_for_duration(c, freq, cfg.sender_loop))))
            .collect();
        let recv_delay = if kind == ChannelKind::Cores {
            tsc.duration_to_cycles(cfg.cross_core_delay)
        } else {
            0
        };
        SymbolRun {
            kind,
            soc_cfg: cfg.soc.clone(),
            start_offset: cfg.start_offset,
            slot_period: cfg.slot_period,
            slot0: tsc.read(cfg.start_offset),
            period: tsc.duration_to_cycles(cfg.slot_period),
            send,
            recv_class,
            recv_insts: instructions_for_duration(recv_class, freq, recv_window),
            recv_delay,
            jitter_seed: cfg.jitter_seed,
            jitter_sigma_cycles: tsc.duration_to_cycles(cfg.measurement_jitter) as f64,
            soc: None,
        }
    }

    /// Turns every run into independent one-slot transactions: sender
    /// and receiver both start at TSC 0, the receiver records its
    /// duration unjittered, and the run deadline is `deadline` (the
    /// slots have zero length, so `start_offset` is the whole
    /// deadline).
    pub(crate) fn one_shot(mut self, deadline: SimTime) -> Self {
        self.slot0 = 0;
        self.period = 0;
        self.recv_delay = 0;
        self.jitter_sigma_cycles = 0.0;
        self.start_offset = deadline;
        self.slot_period = SimTime::ZERO;
        self
    }

    /// Re-arms the SoC, lets `setup` add programs to it (noise
    /// applications, a baseline's own sender), runs the slotted
    /// sender/receiver pair over `levels` and returns every duration
    /// the receiver recorded (TSC cycles), at most one per slot.
    pub(crate) fn record<L, F>(&mut self, levels: L, setup: F) -> Vec<u64>
    where
        L: IntoIterator<Item = u8>,
        F: FnOnce(&mut Soc),
    {
        // Re-arm in place after the first run: `Soc::rearm` is pinned
        // bit-identical to a fresh `Soc::new` and skips both the
        // config clone and the PMU/core/trace rebuild.
        let soc = match self.soc.take() {
            Some(mut soc) => {
                soc.rearm();
                self.soc.insert(soc)
            }
            None => self.soc.insert(Soc::new(self.soc_cfg.clone())),
        };
        setup(soc);
        let recorder = Recorder::new();
        // Collected only now, after the SoC is armed: building the table
        // before `Soc::new` fragments the heap measurably (perfbench
        // `stream_post` peak RSS went from 13.2 to 14.3 MB).
        let levels: Rc<[u8]> = levels.into_iter().collect();
        let slots =
            |name, delay| SlotProgram::new(name, levels.clone(), self.slot0 + delay, self.period);
        let receiver = match self.kind {
            ChannelKind::Thread => slots("slotted channel", 0).sending(self.send.clone()),
            ChannelKind::Smt | ChannelKind::Cores => {
                if !self.send.is_empty() {
                    let sender = slots("slotted sender", 0).sending(self.send.clone());
                    soc.spawn(0, 0, Box::new(sender));
                }
                slots("slotted receiver", self.recv_delay)
            }
        };
        let jitter = JitterSource::new(self.jitter_seed, self.jitter_sigma_cycles);
        let receiver =
            receiver.measuring(self.recv_class, self.recv_insts, recorder.clone(), jitter);
        let (core, smt) = self.kind.receiver_thread();
        soc.spawn(core, smt, Box::new(receiver));

        let deadline = self.start_offset + self.slot_period.scale((levels.len() + 2) as f64);
        // Per-rearm SoC stepping time. The Instant is taken only while
        // telemetry is on; timing lives strictly out-of-band and never
        // feeds back into the simulation.
        // lint:allow(D002): telemetry-gated span timing; off by default
        // and never part of campaign bytes.
        let stepping = ichannels_obs::enabled().then(std::time::Instant::now);
        soc.run_until_idle(deadline);
        if let Some(started) = stepping {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ichannels_obs::observe("soc.step_ns", ns);
            ichannels_obs::counter_add("soc.slots_simulated", levels.len() as u64);
            ichannels_obs::counter_add("soc.rearms", 1);
            let counts = soc.step_counts();
            ichannels_obs::counter_add("soc.steps", counts.steps);
            ichannels_obs::counter_add("soc.rail_history_reads", counts.rail_history_reads);
            ichannels_obs::counter_add("soc.decay_queries", counts.decay_queries);
            ichannels_obs::counter_add("soc.decay_scans", counts.decay_scans);
            ichannels_obs::counter_add("soc.thermal_misses", counts.thermal_misses);
            ichannels_obs::counter_add("soc.retargets", counts.retargets);
            ichannels_obs::counter_add("soc.limit_searches", counts.limit_searches);
            ichannels_obs::counter_add("soc.target_misses", counts.target_misses);
            ichannels_obs::counter_add("soc.ramp_misses", counts.ramp_misses);
            ichannels_obs::counter_add("soc.completion_misses", counts.completion_misses);
        }
        recorder.values()
    }

    /// Re-arms the SoC and runs the sender/receiver pair over
    /// `symbols`, returning the raw receiver durations (TSC cycles),
    /// one per transaction. `setup` may add extra programs (noise
    /// applications) to the freshly armed SoC before the run.
    ///
    /// # Errors
    ///
    /// [`ChannelError::ReceiverMissedTransactions`] when the receiver
    /// recorded fewer durations than transmitted slots.
    pub fn run<F>(&mut self, symbols: &[Symbol], setup: F) -> Result<Vec<u64>, ChannelError>
    where
        F: FnOnce(&mut Soc),
    {
        let durations = self.record(symbols.iter().map(|s| s.value()), setup);
        if durations.len() != symbols.len() {
            return Err(ChannelError::ReceiverMissedTransactions {
                channel: self.kind,
                expected: symbols.len(),
                got: durations.len(),
            });
        }
        Ok(durations)
    }
}

/// An IChannels covert channel bound to a configuration.
///
/// # Examples
///
/// ```
/// use ichannels::channel::{ChannelConfig, ChannelKind, IChannel};
/// use ichannels::symbols::Symbol;
///
/// let ch = IChannel::new(ChannelKind::Thread, ChannelConfig::default_cannon_lake());
/// let cal = ch.try_calibrate(3)?;
/// let tx = ch.try_transmit_symbols(&[Symbol::new(0), Symbol::new(3)], &cal)?;
/// assert_eq!(tx.sent.len(), 2);
/// # Ok::<(), ichannels::channel::ChannelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IChannel {
    kind: ChannelKind,
    cfg: ChannelConfig,
}

impl IChannel {
    /// Creates a channel of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if the kind is [`ChannelKind::Smt`] on a platform without
    /// SMT, or [`ChannelKind::Cores`] on a single-core platform.
    pub fn new(kind: ChannelKind, cfg: ChannelConfig) -> Self {
        match kind {
            ChannelKind::Smt => assert!(
                cfg.soc.platform.smt,
                "{} requires SMT (the paper tests it only on Cannon Lake)",
                kind
            ),
            ChannelKind::Cores => assert!(
                cfg.soc.platform.n_cores >= 2,
                "{} requires at least two cores",
                kind
            ),
            ChannelKind::Thread => {}
        }
        IChannel { kind, cfg }
    }

    /// IccThreadCovert on the default platform.
    pub fn icc_thread_covert() -> Self {
        IChannel::new(ChannelKind::Thread, ChannelConfig::default_cannon_lake())
    }

    /// IccSMTcovert on the default platform.
    pub fn icc_smt_covert() -> Self {
        IChannel::new(ChannelKind::Smt, ChannelConfig::default_cannon_lake())
    }

    /// IccCoresCovert on the default platform.
    pub fn icc_cores_covert() -> Self {
        IChannel::new(ChannelKind::Cores, ChannelConfig::default_cannon_lake())
    }

    /// The channel kind.
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Mutable access to the configuration (e.g., to apply mitigations
    /// or noise before calibrating).
    pub fn config_mut(&mut self) -> &mut ChannelConfig {
        &mut self.cfg
    }

    /// The resolved receiver tuning of this channel instance.
    pub fn tuning(&self) -> ReceiverCalibration {
        self.cfg.receiver.resolve(&self.cfg.soc.platform, self.kind)
    }

    /// Transactions (slots) one payload symbol occupies: the resolved
    /// repeat-and-vote count.
    pub fn slots_per_symbol(&self) -> usize {
        self.tuning().votes.max(1) as usize
    }

    /// Runs the sender/receiver pair over `symbols` and returns the raw
    /// receiver durations (TSC cycles), one per transaction.
    ///
    /// # Errors
    ///
    /// [`ChannelError::ReceiverMissedTransactions`] when the slot
    /// schedule broke down before the run deadline.
    pub fn run_symbols(&self, symbols: &[Symbol]) -> Result<Vec<u64>, ChannelError> {
        SymbolRun::new(self).run(symbols, |_| {})
    }

    /// Calibrates the channel: transmits each of the four levels
    /// `reps` times with known symbols and records the mean duration per
    /// level. The four per-level training runs share one re-armed
    /// [`SymbolRun`], so the schedule derivation and SoC construction
    /// are paid once.
    ///
    /// # Errors
    ///
    /// Propagates the [`ChannelError`] of the first failing training
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn try_calibrate(&self, reps: usize) -> Result<Calibration, ChannelError> {
        assert!(reps > 0, "calibration needs at least one repetition");
        ichannels_obs::counter_add("calibration.requests", 1);
        let mut run = SymbolRun::new(self);
        let mut means = [0.0f64; 4];
        for (i, mean) in means.iter_mut().enumerate() {
            let symbols = vec![Symbol::new(i as u8); reps];
            let durations = run.run(&symbols, |_| {})?;
            *mean = durations.iter().map(|&d| d as f64).sum::<f64>() / reps as f64;
        }
        Ok(Calibration::from_means(means))
    }

    /// Transmits symbols and decodes them with the calibration.
    ///
    /// # Errors
    ///
    /// [`ChannelError::ReceiverMissedTransactions`] when the slot
    /// schedule broke down before the run deadline.
    pub fn try_transmit_symbols(
        &self,
        symbols: &[Symbol],
        cal: &Calibration,
    ) -> Result<Transmission, ChannelError> {
        self.try_transmit_symbols_with(symbols, cal, |_| {})
    }

    /// Like [`IChannel::try_transmit_symbols`], with a SoC setup hook
    /// for concurrent noise applications (§6.3).
    ///
    /// With a repeat-and-vote tuning (`votes > 1`) every payload symbol
    /// is transmitted over that many consecutive transaction slots and
    /// decoded by [`Calibration::decode_vote`]; `durations` then holds
    /// one raw measurement per slot and `elapsed` reflects the
    /// `votes`-fold slowdown a real attacker pays for the reliability.
    ///
    /// # Errors
    ///
    /// [`ChannelError::ReceiverMissedTransactions`] when the slot
    /// schedule broke down before the run deadline.
    pub fn try_transmit_symbols_with<F>(
        &self,
        symbols: &[Symbol],
        cal: &Calibration,
        setup: F,
    ) -> Result<Transmission, ChannelError>
    where
        F: FnOnce(&mut Soc),
    {
        let votes = self.slots_per_symbol();
        let slots: Cow<[Symbol]> = if votes == 1 {
            Cow::Borrowed(symbols)
        } else {
            symbols
                .iter()
                .flat_map(|&s| std::iter::repeat_n(s, votes))
                .collect()
        };
        let durations = SymbolRun::new(self).run(&slots, setup)?;
        let received: Vec<Symbol> = if votes == 1 {
            durations.iter().map(|&d| cal.decode(d)).collect()
        } else {
            durations
                .chunks(votes)
                .map(|c| cal.decode_vote(c))
                .collect()
        };
        Ok(Transmission {
            sent: symbols.to_vec(),
            received,
            durations,
            elapsed: self.cfg.slot_period.scale(slots.len() as f64),
        })
    }
}

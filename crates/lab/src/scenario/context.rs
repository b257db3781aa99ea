//! [`TrialContext`]: the one run-one-trial engine every channel family
//! goes through — resolve spec → channel config → calibration →
//! transmit → [`TrialMetrics`].
//!
//! The context resolves the channel configuration once; each trial
//! then trains its own calibration ([`IChannel::try_calibrate`]) from
//! that configuration, so a rerun of the same scenario repeats exactly
//! the same simulation work.

use ichannels::baselines::bit_error_rate;
use ichannels::baselines::dfscovert::DfsCovertChannel;
use ichannels::baselines::netspectre::NetSpectreChannel;
use ichannels::baselines::powert::PowerTChannel;
use ichannels::baselines::turbocc::TurboCcChannel;
use ichannels::ber::random_symbols;
use ichannels::channel::{Calibration, ChannelConfig, ChannelError, ChannelKind, IChannel};
use ichannels::extended::MultiLevelChannel;
use ichannels::symbols::Symbol;
use ichannels_meter::stats::{min_separation, ConfusionMatrix};
use ichannels_soc::config::PlatformSpec;
use ichannels_soc::sim::Soc;
use ichannels_workload::apps::{RandomPhiApp, SevenZipApp};

use super::{mix, AlphabetSpec, AppKind, BaselineKind, ChannelSelect, PayloadSpec, Scenario};
use crate::report::TrialMetrics;

/// The shared run-one-trial engine: a scenario with its channel
/// configuration resolved once, ready to execute whichever channel
/// family the scenario selects.
#[derive(Debug)]
pub struct TrialContext<'a> {
    scenario: &'a Scenario,
    cfg: ChannelConfig,
}

impl<'a> TrialContext<'a> {
    /// Resolves `scenario` into its channel configuration.
    pub fn new(scenario: &'a Scenario) -> Self {
        TrialContext {
            scenario,
            cfg: scenario.channel_config(),
        }
    }

    /// The scenario this context runs.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// The resolved channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Trains the calibration for `kind` on the resolved configuration.
    ///
    /// # Errors
    ///
    /// Propagates the [`ChannelError`] of a failing training run.
    pub fn calibration(&self, kind: ChannelKind) -> Result<Calibration, ChannelError> {
        IChannel::new(kind, self.cfg.clone()).try_calibrate(self.scenario.calib_reps)
    }

    /// Runs the trial and returns its metrics.
    ///
    /// # Errors
    ///
    /// Propagates the [`ChannelError`] of a failing channel run — the
    /// caller ([`Scenario::run`]) records it on the trial instead of
    /// aborting the campaign.
    pub fn run(&self) -> Result<TrialMetrics, ChannelError> {
        match self.scenario.channel {
            ChannelSelect::Icc(kind) => self.run_icc(kind),
            ChannelSelect::MultiLevel(kind, alpha) => self.run_multilevel(kind, alpha),
            ChannelSelect::Baseline(b) => Ok(self.run_baseline(b)),
            ChannelSelect::Probe(p) => {
                // Probes have no separate calibration/metrics phases;
                // the whole measurement counts as transmit time.
                let _span = ichannels_obs::span("trial.transmit");
                super::probe::run_probe(self, p)
            }
        }
    }

    /// The trial's payload symbol stream, derived from the trial seed.
    fn payload_symbols_vec(&self) -> Vec<Symbol> {
        let s = self.scenario;
        match s.payload {
            PayloadSpec::Random => random_symbols(s.payload_symbols, mix(s.seed, 3)),
            PayloadSpec::Constant(v) => vec![Symbol::new(v); s.payload_symbols],
        }
    }

    /// A free hardware thread for the interfering app: one not occupied
    /// by the channel's sender/receiver.
    fn app_placement(&self, kind: ChannelKind, spec: &PlatformSpec) -> (usize, usize) {
        // Every channel's sender runs on (0, 0).
        let occupied = [(0, 0), kind.receiver_thread()];
        let mut candidates = vec![(spec.n_cores - 1, 0)];
        if spec.smt {
            candidates.push((0, 1));
            candidates.push((spec.n_cores - 1, 1));
        }
        candidates.push((1, 0));
        candidates
            .into_iter()
            .find(|slot| !occupied.contains(slot))
            // lint:allow(R001): catalog platforms have >= 2 cores, so a
            // free slot always exists among the candidates.
            .expect("a catalog platform always has a free hardware thread")
    }

    fn run_icc(&self, kind: ChannelKind) -> Result<TrialMetrics, ChannelError> {
        let channel = IChannel::new(kind, self.cfg.clone());
        let cal = {
            let _span = ichannels_obs::span("trial.calibration");
            self.calibration(kind)?
        };
        let symbols = self.payload_symbols_vec();
        let app = self.scenario.app;
        let placement = app.map(|_| self.app_placement(kind, &channel.config().soc.platform));
        // Repeat-and-vote receivers occupy `votes` slots per symbol, so
        // interfering apps must run for the full stretched transmission.
        let slots = symbols.len() * channel.slots_per_symbol();
        let deadline =
            channel.config().start_offset + channel.config().slot_period.scale((slots + 2) as f64);
        let app_seed = mix(self.scenario.seed, 4);
        let transmit_span = ichannels_obs::span("trial.transmit");
        let tx = channel.try_transmit_symbols_with(&symbols, &cal, |soc: &mut Soc| {
            if let (Some(app), Some((core, smt))) = (app, placement) {
                let program: Box<dyn ichannels_soc::program::Program> = match app.kind {
                    AppKind::RandomLevels => Box::new(RandomPhiApp::sender_levels(
                        app.rate_hz,
                        app.burst_insts,
                        deadline,
                        app_seed,
                    )),
                    AppKind::FixedLevel(level) => Box::new(RandomPhiApp::new(
                        app.rate_hz,
                        app.burst_insts,
                        vec![Symbol::new(level).sender_class()],
                        deadline,
                        app_seed,
                    )),
                    AppKind::SevenZip => Box::new(SevenZipApp::typical(deadline, app_seed)),
                };
                soc.spawn(core, smt, program);
            }
        })?;
        drop(transmit_span);
        let _metrics_span = ichannels_obs::span("trial.metrics");
        let mut confusion = ConfusionMatrix::new(4);
        for (s, r) in tx.sent.iter().zip(&tx.received) {
            confusion.record(s.value() as usize, r.value() as usize);
        }
        let symbol_rate = ichannels::ber::symbol_rate(&channel);
        let mi = confusion.mutual_information_bits_corrected();
        Ok(TrialMetrics {
            ber: confusion.bit_error_rate_2bit(),
            ser: confusion.symbol_error_rate(),
            throughput_bps: tx.throughput_bps(),
            capacity_bps: mi * symbol_rate,
            mi_bits_per_symbol: mi,
            min_separation_cycles: cal.min_separation_cycles(),
            n_symbols: symbols.len(),
            probe_value: f64::NAN,
            probe_aux: f64::NAN,
        })
    }

    fn run_multilevel(
        &self,
        kind: ChannelKind,
        alpha: AlphabetSpec,
    ) -> Result<TrialMetrics, ChannelError> {
        let s = self.scenario;
        let channel = MultiLevelChannel::new(kind, self.cfg.clone(), alpha.alphabet());
        let means = {
            let _span = ichannels_obs::span("trial.calibration");
            channel.calibrate(s.calib_reps)
        };
        let eval = {
            let _span = ichannels_obs::span("trial.transmit");
            channel.evaluate(&means, s.payload_symbols, mix(s.seed, 3))
        };
        let _metrics_span = ichannels_obs::span("trial.metrics");
        let symbol_rate = 1.0 / self.cfg.slot_period.as_secs();
        Ok(TrialMetrics {
            // Bit error rate is 2-bit-symbol specific; undefined here.
            ber: f64::NAN,
            ser: eval.ser,
            throughput_bps: eval.raw_bits_per_symbol * symbol_rate,
            capacity_bps: eval.capacity_bps,
            mi_bits_per_symbol: eval.mi_bits_per_symbol,
            min_separation_cycles: min_separation(&means),
            n_symbols: s.payload_symbols,
            probe_value: f64::NAN,
            probe_aux: f64::NAN,
        })
    }

    fn run_baseline(&self, kind: BaselineKind) -> TrialMetrics {
        // Baselines calibrate and transmit inside one published-setup
        // driver; the whole measurement counts as transmit time.
        let _span = ichannels_obs::span("trial.transmit");
        let payload_symbols = self.scenario.payload_symbols;
        let (bps, ber, n) = match kind {
            BaselineKind::NetSpectre => {
                let ns = NetSpectreChannel::default_cannon_lake();
                let cal = ns.calibrate(3);
                let bits: Vec<bool> = (0..payload_symbols).map(|i| i % 3 != 0).collect();
                let tx = ns.transmit(&bits, cal);
                (tx.throughput_bps, tx.bit_error_rate(), bits.len())
            }
            BaselineKind::DfsCovert => {
                let dfs = DfsCovertChannel::default();
                let bits: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
                let (dec, bps) = dfs.transmit(&bits);
                (bps, bit_error_rate(&bits, &dec), bits.len())
            }
            BaselineKind::TurboCc => {
                let turbo = TurboCcChannel::default();
                let cal = turbo.calibrate(2);
                let bits = [true, false, true, true, false];
                let tx = turbo.transmit(&bits, cal);
                (tx.throughput_bps, tx.bit_error_rate(), bits.len())
            }
            BaselineKind::Powert => {
                let pt = PowerTChannel::default();
                let bits: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
                let (dec, bps) = pt.transmit(&bits);
                (bps, bit_error_rate(&bits, &dec), bits.len())
            }
        };
        TrialMetrics {
            ber,
            ser: ber,
            throughput_bps: bps,
            // Baselines report measured throughput/BER only.
            n_symbols: n,
            ..TrialMetrics::undefined()
        }
    }
}

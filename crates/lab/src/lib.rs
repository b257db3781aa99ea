//! # `ichannels-lab` — the parallel experiment-campaign engine
//!
//! The evaluation substrate of the IChannels reproduction: instead of
//! every figure module hand-rolling a serial trial loop, experiments are
//! described declaratively and executed by a worker pool.
//!
//! * [`scenario`] — [`Scenario`]: one fully-specified simulated run
//!   (platform, channel, level alphabet, noise, mitigation set,
//!   concurrent app, payload, seed);
//! * [`grid`] — [`Grid`]: Cartesian sweeps over scenario axes with
//!   per-axis overrides and stable per-trial seed derivation;
//! * [`exec`] — [`Executor`]: a `std::thread` worker pool whose results
//!   are bit-identical to a serial run (every trial re-derives all of
//!   its randomness from the scenario seed);
//! * [`report`] — per-trial records, per-cell aggregation through
//!   `ichannels_meter::stats`, and streaming JSONL + CSV export through
//!   `ichannels_meter::export`;
//! * [`shard`] — [`ShardSpec`]: deterministic round-robin partitioning
//!   of a campaign across processes, plus stream reload and merge back
//!   into enumeration order (byte-identical to an unsharded run);
//! * [`trace`] — [`trace::TraceSpec`]: the characterization timelines
//!   (Figures 6, 7(b), 9) as declarative specs run on the same pool;
//! * [`campaigns`] — ready-made campaigns: client-vs-server,
//!   noise-robustness, mitigation-coverage, modulation-capacity, and
//!   receiver-calibration sweeps.
//!
//! Beyond channel trials, a [`Scenario`] can describe a direct
//! micro-architectural measurement (a [`scenario::ProbeKind`]: TP
//! distributions, power-gate wake, IDQ undelivered slots, per-level
//! receiver durations, operating-point projections) and a
//! design-parameter override ([`scenario::Knob`]), which is how every
//! characterization figure regenerates through the engine.
//!
//! # Quickstart
//!
//! ```
//! use ichannels_lab::{campaigns, Executor, Grid};
//! use ichannels_lab::scenario::{NoiseSpec, PlatformId};
//! use ichannels::channel::ChannelKind;
//!
//! // Sweep two platforms × two channels × two noise levels.
//! let grid = Grid::new()
//!     .platforms(vec![PlatformId::CannonLake, PlatformId::CoffeeLake])
//!     .kinds(&[ChannelKind::Thread, ChannelKind::Cores])
//!     .noises(vec![NoiseSpec::Quiet, NoiseSpec::Low])
//!     .payload_symbols(6);
//! let report = campaigns::run("demo", &grid, Executor::new(2));
//! assert_eq!(report.records.len(), 8);
//! // Every cell sustains the paper's ~2.9 kb/s transaction rate, and
//! // quiet cells stay within the sub-percent measurement-jitter floor.
//! for record in &report.records {
//!     assert!(record.metrics.throughput_bps > 2_500.0);
//!     if record.scenario.noise == NoiseSpec::Quiet {
//!         assert!(record.metrics.ser < 0.2, "{}", record.scenario.label());
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaigns;
pub mod exec;
pub mod fuzz;
pub mod grid;
pub mod report;
pub mod scenario;
pub mod shard;
pub mod trace;

pub use campaigns::{CampaignReport, CampaignRun, MergedCampaign, ResumeCorruption, RunConfig};
pub use exec::Executor;
pub use fuzz::{FuzzConfig, FuzzReport};
pub use grid::{AxisSummary, Grid};
pub use report::{CellSummary, TrialMetrics, TrialRecord, TrialRow};
pub use scenario::{
    AlphabetSpec, AppKind, AppSpec, BaselineKind, ChannelSelect, IdqCondition, Knob, NoiseSpec,
    PayloadSpec, PlatformId, ProbeKind, ReceiverSpec, Scenario, TrialContext,
};
pub use shard::{MergeError, ShardSpec, ShardStream};
pub use trace::{TraceProgram, TraceRun, TraceSpec};

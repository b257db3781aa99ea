//! # IChannels reproduction — workspace root
//!
//! Umbrella crate for the reproduction of *IChannels: Exploiting Current
//! Management Mechanisms to Create Covert Channels in Modern Processors*
//! (Haj-Yahya et al., ISCA 2021). It re-exports every workspace crate so
//! the runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`) have a single dependency.
//!
//! * [`ichannels`] — the covert channels, baselines, and mitigations;
//! * [`ichannels_lab`] — the parallel experiment-campaign engine
//!   (scenario grids, worker-pool executor, aggregation, campaigns);
//! * [`ichannels_soc`] — the event-driven SoC simulator;
//! * [`ichannels_pmu`] / [`ichannels_pdn`] / [`ichannels_uarch`] — the
//!   power-management, power-delivery, and microarchitecture substrates;
//! * [`ichannels_workload`] — measured loops, phase programs, apps;
//! * [`ichannels_meter`] — statistics, time series, and CSV/JSONL export;
//! * [`ichannels_obs`] — the deterministic-safe telemetry layer
//!   (metrics registry, phase spans, mergeable snapshots);
//! * [`ichannels_analysis`] — streaming capacity statistics over
//!   campaign trial streams (bootstrap CIs, model capacity, axis
//!   sensitivity).
//!
//! See `README.md` for a quickstart, `docs/ARCHITECTURE.md` for the
//! crate layering and the byte contract, and `docs/METHODOLOGY.md` for
//! how the campaign statistics are computed.

pub use ichannels;
pub use ichannels_analysis;
pub use ichannels_lab;
pub use ichannels_meter;
pub use ichannels_obs;
pub use ichannels_pdn;
pub use ichannels_pmu;
pub use ichannels_soc;
pub use ichannels_uarch;
pub use ichannels_workload;

//! # `ichannels-workload` — workload substrate
//!
//! The programs the IChannels (ISCA 2021) reproduction runs on its
//! simulated SoC:
//!
//! * [`loops`] — Agner-Fog-style measured instruction loops (the §5.1
//!   micro-benchmarks), including the preceded-loop experiment of
//!   Figure 10(b) and a shared duration [`loops::Recorder`].
//! * [`phases`] — phase workloads: the Non-AVX→AVX2→AVX512 sequence of
//!   Figure 7(b) and the 454.calculix-like trace of Figure 6(b).
//! * [`apps`] — §6.3 noise applications: the random-level PHI injector
//!   and a 7-zip-like AVX2 compressor.
//!
//! # Example
//!
//! ```
//! use ichannels_soc::config::{PlatformSpec, SocConfig};
//! use ichannels_soc::sim::Soc;
//! use ichannels_uarch::isa::InstClass;
//! use ichannels_uarch::time::{Freq, SimTime};
//! use ichannels_workload::loops::{MeasuredLoop, Recorder};
//!
//! let cfg = SocConfig::pinned(PlatformSpec::cannon_lake(), Freq::from_ghz(1.4));
//! let mut soc = Soc::new(cfg);
//! let rec = Recorder::new();
//! soc.spawn(0, 0, Box::new(MeasuredLoop::once(InstClass::Heavy256, 14_000, rec.clone())));
//! soc.run_until_idle(SimTime::from_ms(1.0));
//! assert_eq!(rec.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod loops;
pub mod phases;

pub use apps::{RandomPhiApp, SevenZipApp};
pub use loops::{instructions_for_duration, MeasuredLoop, PrecededLoop, Recorder};
pub use phases::{Phase, PhaseProgram};

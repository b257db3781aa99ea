//! # `ichannels-pmu` — power management unit substrate
//!
//! The decision-making layer of the IChannels (ISCA 2021) reproduction:
//! the central PMU plus the per-core power-management state machines.
//!
//! * [`license`] — per-core voltage-guardband licenses with the paper's
//!   650 µs hysteresis (*reset-time*).
//! * [`central`] — the central PMU: license arbitration, package voltage
//!   targets (Equation 1 guardbands, additive across cores), serialized
//!   VR transitions, and the per-core-VR / secure-mode mitigations.
//! * [`turbo`] — the three `LVL{0,1,2}_TURBO_LICENSE` levels with fast
//!   grants and slow (ms) releases (the TurboCC time base).
//! * [`pstate`] — discrete P-states and tens-of-µs frequency transitions
//!   (the Vccmax/Iccmax protection path of Figure 9(c)).
//! * [`thermal`] — a first-order RC junction model demonstrating the
//!   time-scale separation behind Key Conclusion 2 (throttling is *not*
//!   thermal).
//! * [`governor`] — software frequency governors (§5.7: they do not
//!   affect the hardware throttling mechanisms).
//! * [`memo`] — the direct-mapped exact memo that answers repeated
//!   per-event computations (relaxation factors, guardbands, ramp
//!   times) from stored results.
//!
//! # Example
//!
//! The Figure 10(b) effect — a 512b-Heavy loop's throttling period
//! depends on the previously executed class:
//!
//! ```
//! use ichannels_pmu::central::{CentralPmu, PmuConfig};
//! use ichannels_pdn::guardband::{CdynTable, GuardbandModel};
//! use ichannels_pdn::regulator::VrModel;
//! use ichannels_uarch::isa::InstClass;
//! use ichannels_uarch::time::{Freq, SimTime};
//!
//! let cfg = PmuConfig {
//!     n_cores: 1,
//!     guardband: GuardbandModel::new(CdynTable::default(), 1.9),
//!     vr_model: VrModel::mbvr(),
//!     reset_time: SimTime::from_us(650.0),
//!     per_core_vr: false,
//!     secure_mode: false,
//! };
//! let mut pmu = CentralPmu::new(cfg, Freq::from_ghz(1.4), 760.0);
//! let g0 = pmu.on_execute(0, InstClass::Light128, SimTime::ZERO);
//! let t1 = g0.ready_at + SimTime::from_us(1.0);
//! let g1 = pmu.on_execute(0, InstClass::Heavy512, t1);
//! let tp_after_light = g1.ready_at - t1;
//! assert!(tp_after_light.as_us() > 5.0); // most of the ramp remains
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod central;
pub mod governor;
pub mod license;
pub mod memo;
pub mod pstate;
pub mod thermal;
pub mod turbo;

pub use central::{CentralPmu, ExecGrant, PmuConfig, VrRail};
pub use governor::Governor;
pub use license::CoreLicense;
pub use pstate::{PStateEngine, PStateTable};
pub use thermal::ThermalModel;
pub use turbo::{TurboLicense, TurboState, TurboTable};

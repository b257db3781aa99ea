//! # `ichannels-pdn` — power delivery network substrate
//!
//! Models the electrical side of the IChannels (ISCA 2021) reproduction:
//! everything between the voltage regulator and the core supply rails.
//!
//! * [`loadline`] — `Vccload = Vcc − RLL·Icc` (Figure 2(a,b)).
//! * [`vf_curve`] — fused voltage/frequency operating curves.
//! * [`guardband`] — the adaptive multi-level voltage guardband and
//!   Equation 1 (`ΔV = (Cdyn2 − Cdyn1)·Vcc·F·RLL`).
//! * [`regulator`] — MBVR/FIVR/LDO voltage regulator models with command
//!   latency and linear slew; the µs-scale ramp times are the root cause
//!   of the multi-level throttling period.
//! * [`limits`] — Vccmax/Iccmax protection (Figure 7).
//! * [`power_gate`] — AVX-unit power gates with staggered wake (8–15 ns,
//!   ~0.1 % of the throttling period — Key Conclusion 3).
//! * [`current`] — dynamic + base + leakage package current model.
//!
//! # Example
//!
//! Computing the throttling period implied by an AVX2 guardband ramp on
//! an MBVR platform:
//!
//! ```
//! use ichannels_pdn::guardband::{CdynTable, GuardbandModel};
//! use ichannels_pdn::regulator::VrModel;
//! use ichannels_uarch::isa::InstClass;
//! use ichannels_uarch::time::Freq;
//!
//! let gb = GuardbandModel::new(CdynTable::default(), 1.6);
//! let dv = gb.core_guardband_mv(InstClass::Heavy256, 1000.0, Freq::from_ghz(3.0));
//! let tp = VrModel::mbvr().transition_time(dv);
//! // The paper's measured AVX2 throttling period: 12–15 µs.
//! assert!(tp.as_us() > 10.0 && tp.as_us() < 16.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod current;
pub mod guardband;
pub mod limits;
pub mod loadline;
pub mod power_gate;
pub mod regulator;
pub mod vf_curve;

pub use current::{CoreActivity, CurrentModel};
pub use guardband::{CdynTable, GuardbandModel};
pub use limits::{ElectricalLimits, LimitViolation};
pub use loadline::LoadLine;
pub use power_gate::{GateState, PowerGate};
pub use regulator::{VrKind, VrModel};
pub use vf_curve::{VfCurve, VfCurveError};

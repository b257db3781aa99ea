//! # `ichannels-uarch` — microarchitectural substrate
//!
//! The lowest layer of the IChannels (ISCA 2021) reproduction: the pieces
//! of a modern Intel core that the paper's covert channels interact with.
//!
//! * [`time`] — picosecond simulation time ([`time::SimTime`]) and clock
//!   frequencies ([`time::Freq`]).
//! * [`isa`] — the seven computational-intensity instruction classes of
//!   Figure 10 ([`isa::InstClass`]).
//! * [`ipc`] — the analytic IPC model (nominal rates, the 1/4 throttle
//!   factor of Key Conclusion 5, SMT slot sharing).
//! * [`idq`] — a cycle-accurate IDQ→back-end interface with the 1-of-4
//!   throttle gate of Figure 11(b), SMT arbitration, and the paper's
//!   proposed "improved core throttling" mitigation policy.
//! * [`counters`] — `CPU_CLK_UNHALTED` / `IDQ_UOPS_NOT_DELIVERED`-style
//!   performance counters.
//! * [`tsc`] — the invariant time-stamp counter used by receivers to
//!   measure throttling periods.
//!
//! # Example
//!
//! Reproducing the core of Figure 11(a) — a throttled loop leaves ~75 %
//! of delivery slots unused, an unthrottled one ~0 %:
//!
//! ```
//! use ichannels_uarch::idq::{Idq, SmtId, ThreadDemand};
//!
//! let mut idq = Idq::new();
//! idq.set_throttled(true);
//! let frac = idq.run_normalized_undelivered(
//!     ThreadDemand::busy(),
//!     ThreadDemand::IDLE,
//!     10_000,
//!     SmtId::T0,
//! );
//! assert!((frac - 0.75).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod idq;
pub mod ipc;
pub mod isa;
pub mod time;
pub mod tsc;

pub use counters::PerfCounters;
pub use idq::{Idq, SmtId, ThreadDemand, ThrottlePolicy};
pub use isa::{InstClass, Width};
pub use time::{Freq, SimTime};
pub use tsc::Tsc;

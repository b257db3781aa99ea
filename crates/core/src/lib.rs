//! # `ichannels` — the IChannels covert channels (ISCA 2021)
//!
//! A full reproduction of *IChannels: Exploiting Current Management
//! Mechanisms to Create Covert Channels in Modern Processors*
//! (Haj-Yahya et al., ISCA 2021) on a simulated Intel-client SoC
//! (`ichannels-soc`).
//!
//! The paper's three observations — multi-level throttling periods
//! within a thread, SMT co-throttling through the shared IDQ gate, and
//! cross-core serialization of voltage transitions — become three covert
//! channels:
//!
//! * [`channel::ChannelKind::Thread`] — **IccThreadCovert**, two
//!   execution contexts on the same hardware thread;
//! * [`channel::ChannelKind::Smt`] — **IccSMTcovert**, across SMT
//!   siblings;
//! * [`channel::ChannelKind::Cores`] — **IccCoresCovert**, across
//!   physical cores.
//!
//! Each transmits **2 bits per transaction** (four PHI intensity levels,
//! Figure 3) at ~2.9 kb/s. Supporting modules:
//!
//! * [`symbols`] — the 2-bit symbol ↔ PHI-level coding;
//! * [`ber`] — random payload streams and the effective symbol rate
//!   the campaign engine scores capacity with (§6.2, §6.3);
//! * [`baselines`] — NetSpectre, TurboCC, DFScovert, POWERT comparators
//!   (Figure 12, Table 2);
//! * [`mitigations`] — the §7 mitigations and the Table 1 verdicts;
//! * [`extended`] — beyond the paper: 6/7-level modulation exploiting
//!   all distinguishable throttling levels.
//!
//! # Quickstart
//!
//! ```
//! use ichannels::channel::{ChannelError, IChannel};
//! use ichannels::symbols::{bits_to_symbols, symbols_to_bits};
//!
//! // Exfiltrate one secret byte across SMT threads.
//! let channel = IChannel::icc_smt_covert();
//! let cal = channel.try_calibrate(3)?;
//! let secret = [true, false, true, true, false, false, true, false];
//! let tx = channel.try_transmit_symbols(&bits_to_symbols(&secret), &cal)?;
//! assert_eq!(symbols_to_bits(&tx.received), secret);
//! assert!(tx.throughput_bps() > 2_500.0); // ~2.9 kb/s
//! # Ok::<(), ChannelError>(())
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod ber;
pub mod channel;
pub mod extended;
pub mod mitigations;
pub mod symbols;

pub use channel::{Calibration, ChannelConfig, ChannelKind, IChannel, Transmission};
pub use extended::{LevelAlphabet, MultiLevelChannel};
pub use mitigations::{Effectiveness, Mitigation};
pub use symbols::Symbol;

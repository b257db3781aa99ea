//! [`ChannelKind`]: where the two communicating execution contexts live.

use ichannels_uarch::isa::InstClass;

/// Where the two communicating execution contexts live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Same hardware thread (IccThreadCovert).
    Thread,
    /// Two SMT threads of one physical core (IccSMTcovert).
    Smt,
    /// Two different physical cores (IccCoresCovert).
    Cores,
}

impl ChannelKind {
    /// The receiver's measurement loop class (Figure 3): `512b_Heavy`
    /// on the same thread, `64b` across SMT, `128b_Heavy` across cores.
    pub const fn receiver_class(self) -> InstClass {
        match self {
            ChannelKind::Thread => InstClass::Heavy512,
            ChannelKind::Smt => InstClass::Scalar64,
            ChannelKind::Cores => InstClass::Heavy128,
        }
    }

    /// The receiver's hardware thread `(core, smt)`: the sender's own
    /// thread (0, 0), its SMT sibling, or the next core.
    pub const fn receiver_thread(self) -> (usize, usize) {
        match self {
            ChannelKind::Thread => (0, 0),
            ChannelKind::Smt => (0, 1),
            ChannelKind::Cores => (1, 0),
        }
    }

    /// Display name used in the paper.
    pub const fn name(self) -> &'static str {
        match self {
            ChannelKind::Thread => "IccThreadCovert",
            ChannelKind::Smt => "IccSMTcovert",
            ChannelKind::Cores => "IccCoresCovert",
        }
    }
}

impl std::fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

//! The instruction taxonomy of the paper (§4, §5.5).
//!
//! IChannels classifies instructions along two axes:
//!
//! * **width** — 64-bit scalar, 128-bit SSE, 256-bit AVX2, 512-bit AVX-512;
//! * **heaviness** — *Heavy* instructions "include any instruction that
//!   requires the floating-point unit (e.g., `ADDPD`, `SUBPS`) or any
//!   multiplication instruction, while light instructions include all other
//!   instructions (e.g., non-multiplication integer arithmetic, logic,
//!   shuffle and blend instructions)".
//!
//! This yields the seven canonical classes the characterization sweeps in
//! Figure 10: `64b`, `128b Light`, `128b Heavy`, `256b Light`,
//! `256b Heavy`, `512b Light`, `512b Heavy`.

use std::fmt;

/// Vector register width of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 64-bit scalar (general-purpose register) operations.
    W64,
    /// 128-bit SSE / AVX-128 operations.
    W128,
    /// 256-bit AVX2 operations.
    W256,
    /// 512-bit AVX-512 operations.
    W512,
}

impl Width {
    /// Register width in bits.
    pub const fn bits(self) -> u32 {
        match self {
            Width::W64 => 64,
            Width::W128 => 128,
            Width::W256 => 256,
            Width::W512 => 512,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bits())
    }
}

/// Computational heaviness of an instruction (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Heaviness {
    /// Non-multiplication integer arithmetic, logic, shuffle, blend.
    Light,
    /// Floating-point or multiplication instructions.
    Heavy,
}

impl fmt::Display for Heaviness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Heaviness::Light => write!(f, "Light"),
            Heaviness::Heavy => write!(f, "Heavy"),
        }
    }
}

/// One of the seven computational-intensity classes of Figure 10.
///
/// The ordering (`Scalar64 < Light128 < … < Heavy512`) follows increasing
/// computational intensity and therefore increasing dynamic capacitance,
/// required voltage guardband, and throttling period.
///
/// # Examples
///
/// ```
/// use ichannels_uarch::isa::InstClass;
///
/// assert!(InstClass::Heavy512 > InstClass::Light256);
/// assert_eq!(InstClass::Heavy256.to_string(), "256b Heavy");
/// assert!(InstClass::Heavy256.is_phi());
/// assert!(!InstClass::Scalar64.is_phi());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstClass {
    /// 64-bit scalar instructions (the non-PHI baseline).
    Scalar64,
    /// 128-bit light vector instructions.
    Light128,
    /// 128-bit heavy (FP/multiply) vector instructions.
    Heavy128,
    /// 256-bit light vector instructions.
    Light256,
    /// 256-bit heavy vector instructions (classic "AVX2" PHIs).
    Heavy256,
    /// 512-bit light vector instructions.
    Light512,
    /// 512-bit heavy vector instructions (the most power-hungry class).
    Heavy512,
}

impl InstClass {
    /// All seven classes in increasing computational-intensity order,
    /// exactly the x-axis of Figure 10(a).
    pub const ALL: [InstClass; 7] = [
        InstClass::Scalar64,
        InstClass::Light128,
        InstClass::Heavy128,
        InstClass::Light256,
        InstClass::Heavy256,
        InstClass::Light512,
        InstClass::Heavy512,
    ];

    /// Computational-intensity rank, 0 (`64b`) … 6 (`512b Heavy`).
    ///
    /// The rank doubles as the *virus level* index used by the adaptive
    /// voltage guardband (paper §2, Figure 2(c)).
    pub const fn intensity_rank(self) -> u8 {
        match self {
            InstClass::Scalar64 => 0,
            InstClass::Light128 => 1,
            InstClass::Heavy128 => 2,
            InstClass::Light256 => 3,
            InstClass::Heavy256 => 4,
            InstClass::Light512 => 5,
            InstClass::Heavy512 => 6,
        }
    }

    /// Constructs a class from its intensity rank.
    pub const fn from_rank(rank: u8) -> Option<InstClass> {
        match rank {
            0 => Some(InstClass::Scalar64),
            1 => Some(InstClass::Light128),
            2 => Some(InstClass::Heavy128),
            3 => Some(InstClass::Light256),
            4 => Some(InstClass::Heavy256),
            5 => Some(InstClass::Light512),
            6 => Some(InstClass::Heavy512),
            _ => None,
        }
    }

    /// Register width of the class.
    pub const fn width(self) -> Width {
        match self {
            InstClass::Scalar64 => Width::W64,
            InstClass::Light128 | InstClass::Heavy128 => Width::W128,
            InstClass::Light256 | InstClass::Heavy256 => Width::W256,
            InstClass::Light512 | InstClass::Heavy512 => Width::W512,
        }
    }

    /// Heaviness of the class (scalar counts as light).
    const fn heaviness(self) -> Heaviness {
        match self {
            InstClass::Scalar64
            | InstClass::Light128
            | InstClass::Light256
            | InstClass::Light512 => Heaviness::Light,
            InstClass::Heavy128 | InstClass::Heavy256 | InstClass::Heavy512 => Heaviness::Heavy,
        }
    }

    /// Whether instructions of this class are power-hungry instructions
    /// (PHIs): anything wider than scalar requires a raised voltage
    /// guardband and can trigger throttling.
    pub const fn is_phi(self) -> bool {
        !matches!(self, InstClass::Scalar64)
    }

    /// Whether the class uses the AVX (256/512-bit) unit, which sits
    /// behind a dedicated power-gate on Skylake+ parts (paper §5.4).
    pub const fn uses_avx_unit(self) -> bool {
        matches!(
            self,
            InstClass::Light256 | InstClass::Heavy256 | InstClass::Light512 | InstClass::Heavy512
        )
    }

    /// The four sender levels of the covert channel (Figure 3):
    /// bits `00`→`128b_Heavy` (L4), `01`→`256b_Light` (L3),
    /// `10`→`256b_Heavy` (L2), `11`→`512b_Heavy` (L1).
    pub const SENDER_LEVELS: [InstClass; 4] = [
        InstClass::Heavy128,
        InstClass::Light256,
        InstClass::Heavy256,
        InstClass::Heavy512,
    ];
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == InstClass::Scalar64 {
            write!(f, "64b")
        } else {
            write!(f, "{} {}", self.width(), self.heaviness())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_round_trips() {
        for class in InstClass::ALL {
            assert_eq!(InstClass::from_rank(class.intensity_rank()), Some(class));
        }
        assert_eq!(InstClass::from_rank(7), None);
    }

    #[test]
    fn ordering_follows_intensity() {
        for pair in InstClass::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(pair[0].intensity_rank() < pair[1].intensity_rank());
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        let labels: Vec<String> = InstClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            labels,
            [
                "64b",
                "128b Light",
                "128b Heavy",
                "256b Light",
                "256b Heavy",
                "512b Light",
                "512b Heavy"
            ]
        );
    }

    #[test]
    fn phi_and_avx_flags() {
        assert!(!InstClass::Scalar64.is_phi());
        assert!(InstClass::Light128.is_phi());
        assert!(!InstClass::Heavy128.uses_avx_unit());
        assert!(InstClass::Light256.uses_avx_unit());
        assert!(InstClass::Heavy512.uses_avx_unit());
    }

    #[test]
    fn heaviness_classification() {
        assert_eq!(InstClass::Scalar64.heaviness(), Heaviness::Light);
        assert_eq!(InstClass::Heavy128.heaviness(), Heaviness::Heavy);
        assert_eq!(InstClass::Light512.heaviness(), Heaviness::Light);
    }

    #[test]
    fn sender_levels_match_figure3() {
        assert_eq!(
            InstClass::SENDER_LEVELS,
            [
                InstClass::Heavy128,
                InstClass::Light256,
                InstClass::Heavy256,
                InstClass::Heavy512
            ]
        );
    }

    #[test]
    fn widths() {
        assert_eq!(InstClass::Scalar64.width().bits(), 64);
        assert_eq!(InstClass::Heavy512.width().bits(), 512);
        assert_eq!(Width::W256.to_string(), "256b");
    }
}

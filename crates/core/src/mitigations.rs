//! The paper's §7 mitigations and their Table 1 verdicts.
//!
//! * **Per-core VR** — LDO rails per core: removes the cross-core SVID
//!   serialization entirely and shrinks same-thread/SMT throttling
//!   periods below the measurement noise floor (partial).
//! * **Improved core throttling** — gate only the PHI uops of the
//!   offending SMT thread: kills IccSMTcovert.
//! * **Secure mode** — pin the worst-case guardband: no voltage
//!   transitions, no throttling, all three channels die; costs static
//!   power (≈4 %/11 % for AVX2/AVX-512 parts).

use ichannels_soc::config::PlatformSpec;
use ichannels_uarch::isa::InstClass;

use crate::channel::ChannelConfig;

/// One of the three proposed mitigations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// Per-core (LDO) voltage regulators.
    PerCoreVr,
    /// Per-thread, PHI-only IDQ gating.
    ImprovedThrottling,
    /// Pinned worst-case voltage guardband.
    SecureMode,
}

impl Mitigation {
    /// All mitigations, in Table 1 order.
    pub const ALL: [Mitigation; 3] = [
        Mitigation::PerCoreVr,
        Mitigation::ImprovedThrottling,
        Mitigation::SecureMode,
    ];

    /// Table 1 label.
    pub const fn name(self) -> &'static str {
        match self {
            Mitigation::PerCoreVr => "Per-core VR",
            Mitigation::ImprovedThrottling => "Improved Throttling",
            Mitigation::SecureMode => "Secure-Mode",
        }
    }

    /// Table 1 overhead description.
    pub const fn overhead(self) -> &'static str {
        match self {
            Mitigation::PerCoreVr => "11%-13% more area",
            Mitigation::ImprovedThrottling => "Some design effort",
            Mitigation::SecureMode => "4%-11% additional power",
        }
    }

    /// Applies the mitigation to a channel configuration.
    pub fn apply(self, mut cfg: ChannelConfig) -> ChannelConfig {
        cfg.soc = match self {
            Mitigation::PerCoreVr => cfg.soc.with_per_core_vr(),
            Mitigation::ImprovedThrottling => cfg.soc.with_improved_throttling(),
            Mitigation::SecureMode => cfg.soc.with_secure_mode(),
        };
        cfg
    }
}

impl std::fmt::Display for Mitigation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How well a mitigation neutralizes a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effectiveness {
    /// Channel capacity reduced to (near) zero.
    Full,
    /// Channel weakened substantially but not eliminated.
    Partial,
    /// Channel essentially unaffected.
    None,
}

impl std::fmt::Display for Effectiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effectiveness::Full => write!(f, "yes"),
            Effectiveness::Partial => write!(f, "partially"),
            Effectiveness::None => write!(f, "no"),
        }
    }
}

/// Classifies a mitigated channel's capacity (bits/s) against the
/// unmitigated one — the Table 1 verdict the `ichannels-lab` campaign
/// engine scores each mitigation cell with.
pub fn classify_capacity(mitigated_bps: f64, baseline_bps: f64) -> Effectiveness {
    let residual = if baseline_bps > 0.0 {
        mitigated_bps / baseline_bps
    } else {
        0.0
    };
    if residual < 0.08 {
        Effectiveness::Full
    } else if residual < 0.75 {
        Effectiveness::Partial
    } else {
        Effectiveness::None
    }
}

/// Secure-mode power overhead for a system whose widest PHI class is
/// `widest`: the static power increase of pinning the worst-case
/// guardband, `((V + ΔV)/V)² − 1` (paper: up to 4 % for AVX2 systems,
/// 11 % for AVX-512 systems). Evaluated at the nominal (non-turbo)
/// operating point, where the system spends its time.
pub fn secure_mode_power_overhead(platform: &PlatformSpec, widest: InstClass) -> f64 {
    // Nominal frequency: the median P-state (turbo states are transient).
    let freqs = platform.pstates.freqs();
    let freq = freqs[freqs.len() / 2];
    let base_mv = platform.vf_curve.voltage_mv(freq);
    let gb = platform
        .guardband()
        .core_guardband_mv(widest, base_mv, freq);
    ((base_mv + gb) / base_mv).powi(2) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_mode_overhead_matches_paper_band() {
        let p = PlatformSpec::cannon_lake();
        let avx2 = secure_mode_power_overhead(&p, InstClass::Heavy256);
        let avx512 = secure_mode_power_overhead(&p, InstClass::Heavy512);
        // Paper: up to 4%/11% for AVX2/AVX512 systems.
        assert!((0.015..0.08).contains(&avx2), "avx2 overhead = {avx2}");
        assert!((0.05..0.16).contains(&avx512), "avx512 overhead = {avx512}");
        assert!(avx512 > avx2);
    }
}

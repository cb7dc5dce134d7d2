//! The battery model trait and lifetime result.

use serde::{Deserialize, Serialize};

/// How long a battery lasted under a repeated power profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lifetime {
    /// Complete profile repetitions before cutoff.
    pub iterations: u64,
    /// Additional cycles survived inside the final, incomplete
    /// repetition.
    pub extra_cycles: u64,
    /// Charge actually delivered to the load before cutoff.
    pub delivered_charge: f64,
}

impl Lifetime {
    /// Total cycles survived (`iterations × profile length + extra`).
    #[must_use]
    pub fn total_cycles(&self, profile_len: usize) -> u64 {
        self.iterations * profile_len as u64 + self.extra_cycles
    }
}

/// A battery that can simulate discharging under a cyclic per-cycle power
/// profile.
///
/// Implementations replay `profile` until their cutoff condition, with a
/// hard stop (counted as cutoff) once delivered charge would exceed any
/// physically available charge. Power and current are identified (unit
/// supply voltage), matching the paper's unit-less power numbers.
pub trait BatteryModel {
    /// Simulates repeated executions of `profile` until cutoff.
    ///
    /// An all-zero or empty profile yields a lifetime of `u64::MAX`
    /// iterations conceptually; implementations return a saturated value
    /// instead of looping forever.
    fn lifetime(&self, profile: &[f64]) -> Lifetime;

    /// Human-readable model name for reports.
    fn name(&self) -> &str;
}

/// Iteration cap so that degenerate (zero-power) profiles terminate.
pub(crate) const MAX_ITERATIONS: u64 = 10_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cycles_combines_parts() {
        let l = Lifetime {
            iterations: 3,
            extra_cycles: 2,
            delivered_charge: 0.0,
        };
        assert_eq!(l.total_cycles(10), 32);
    }

    #[test]
    fn ratio_is_relative() {
        // An ideal cell of 120 units lasts 10 cycles at 12 per cycle and
        // 12 cycles at 10: the flattened profile lasts 1.2× as long.
        let cell = crate::IdealBattery::new(120.0);
        let ratio = crate::compare_profiles(&cell, &[12.0], &[10.0]).extension;
        assert!((ratio - 1.2).abs() < 1e-12, "{ratio}");
    }
}

//! Synthesis constraints.

use serde::{Deserialize, Serialize};

use pchls_sched::PowerBudget;

/// The largest latency bound any entry point (CLI flag, points file,
/// wire request) accepts. The kernel allocates per-cycle power-ledger
/// rows on every feasibility probe, so a latency near `u32::MAX` would
/// ask for tens of gigabytes and abort the process; 65,536 cycles stays
/// far above any schedule the built-in or random graphs need.
pub const MAX_LATENCY: u32 = 1 << 16;

/// The constraints of the paper, generalized: a latency bound `T`
/// (clock cycles) and a per-cycle power budget — the paper's scalar
/// `P<` or a time-varying [`PowerBudget`] envelope (battery-derived sag,
/// DVS/thermal phase steps).
///
/// Constructed from a scalar the constraints behave exactly as the
/// historical `(latency, max_power)` pair did — every layer detects the
/// constant shape and takes the original code path, bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisConstraints {
    /// Latency bound in clock cycles: every operation must finish by this
    /// cycle.
    pub latency: u32,
    /// Per-cycle power budget (the paper's `P<` when constant).
    /// `PowerBudget::unbounded()` disables the power constraint.
    pub budget: PowerBudget,
}

impl SynthesisConstraints {
    /// Creates a constraint pair. `budget` accepts a plain `f64` (the
    /// classical scalar bound, converted to a constant budget) or any
    /// [`PowerBudget`] envelope.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero or the budget contains a NaN or
    /// negative bound.
    #[must_use]
    pub fn new(latency: u32, budget: impl Into<PowerBudget>) -> SynthesisConstraints {
        assert!(latency > 0, "latency bound must be positive");
        SynthesisConstraints {
            latency,
            budget: budget.into(),
        }
    }

    /// The scalar shim: a constraint pair under the classical constant
    /// bound `max_power` (may be `f64::INFINITY`). Equivalent to
    /// `new(latency, max_power)`; kept as an explicit name for call
    /// sites migrating from the pre-envelope API.
    ///
    /// # Panics
    ///
    /// As [`new`](SynthesisConstraints::new).
    #[must_use]
    pub fn with_max_power(latency: u32, max_power: f64) -> SynthesisConstraints {
        SynthesisConstraints::new(latency, max_power)
    }

    /// A latency-only constraint (`P< = ∞`).
    #[must_use]
    pub fn latency_only(latency: u32) -> SynthesisConstraints {
        SynthesisConstraints::new(latency, f64::INFINITY)
    }

    /// The largest per-cycle bound any cycle **within the latency
    /// horizon** can see: the bound itself for a scalar constraint, the
    /// envelope's effective peak otherwise. This is the value
    /// quick-reject tests and reports compare against (an operation
    /// drawing more than this can fit in no schedulable cycle at all) —
    /// deliberately horizon-bounded, so budget entries past the
    /// deadline, which can never admit anything, never loosen it.
    #[must_use]
    pub fn max_power(&self) -> f64 {
        self.budget.peak_within(self.latency)
    }

    /// Whether the power constraint is actually binding (some cycle's
    /// bound is finite).
    #[must_use]
    pub fn has_power_bound(&self) -> bool {
        self.budget.is_binding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_has_no_power_bound() {
        let c = SynthesisConstraints::latency_only(10);
        assert!(!c.has_power_bound());
        assert_eq!(c.latency, 10);
    }

    #[test]
    fn finite_power_is_binding() {
        assert!(SynthesisConstraints::new(10, 25.0).has_power_bound());
    }

    #[test]
    fn scalar_and_shim_constructors_agree() {
        assert_eq!(
            SynthesisConstraints::new(10, 25.0),
            SynthesisConstraints::with_max_power(10, 25.0)
        );
        assert_eq!(SynthesisConstraints::new(10, 25.0).max_power(), 25.0);
    }

    #[test]
    fn envelope_constraints_report_their_peak() {
        let c = SynthesisConstraints::new(10, PowerBudget::steps(vec![(0, 30.0), (5, 12.0)]));
        assert_eq!(c.max_power(), 30.0);
        assert!(c.has_power_bound());
        // An envelope with one unconstrained phase is still binding.
        let c =
            SynthesisConstraints::new(10, PowerBudget::steps(vec![(0, f64::INFINITY), (5, 12.0)]));
        assert!(c.has_power_bound());
    }

    #[test]
    fn constraints_round_trip_through_json() {
        for c in [
            SynthesisConstraints::new(17, 25.0),
            SynthesisConstraints::new(17, PowerBudget::steps(vec![(0, 30.0), (8, 12.0)])),
            SynthesisConstraints::new(4, PowerBudget::per_cycle(vec![5.0, 6.0, 7.0, 8.0])),
        ] {
            let json = serde_json::to_string(&c).unwrap();
            let back: SynthesisConstraints = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c, "{json}");
        }
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = SynthesisConstraints::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_power_rejected() {
        let _ = SynthesisConstraints::new(1, f64::NAN);
    }
}

//! Synthesis constraints.

use serde::{Deserialize, Serialize};

use pchls_sched::PowerBudget;

/// The largest latency bound a constraint point may carry, whatever
/// spells it (CLI flag, points file, wire request, library caller).
/// The kernel allocates per-cycle power-ledger rows on every
/// feasibility probe, so a latency near `u32::MAX` would ask for tens
/// of gigabytes and abort the process; 65,536 cycles stays far above
/// any schedule the built-in or random graphs need.
pub const MAX_LATENCY: u32 = 1 << 16;

/// The constraints of the paper, generalized: a latency bound `T`
/// (clock cycles) and a per-cycle power budget — the paper's scalar
/// `P<` or a time-varying [`PowerBudget`] envelope (battery-derived sag,
/// DVS/thermal phase steps).
///
/// Constructed from a scalar, the budget is a constant one, which every
/// layer treats as an envelope with equal bounds: one code path serves
/// every budget shape.
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
    /// Where [`SynthesisConstraints::try_new`] errs, or when a scalar
    /// `budget` is NaN or negative ([`PowerBudget::constant`]).
    #[must_use]
    pub fn new(latency: u32, budget: impl Into<PowerBudget>) -> SynthesisConstraints {
        SynthesisConstraints::try_new(latency, budget.into()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a constraint pair, or says why `latency` is out of range.
    ///
    /// # Errors
    ///
    /// See [`SynthesisConstraints::check_latency`].
    pub fn try_new(latency: u32, budget: PowerBudget) -> Result<SynthesisConstraints, String> {
        SynthesisConstraints::check_latency(latency)?;
        Ok(SynthesisConstraints { latency, budget })
    }

    /// The latency rule every entry point shares: `1 ..= MAX_LATENCY`
    /// cycles. Front ends that validate a budget against the latency
    /// apply this first.
    ///
    /// # Errors
    ///
    /// The rule, in words.
    pub fn check_latency(latency: u32) -> Result<u32, String> {
        if (1..=MAX_LATENCY).contains(&latency) {
            Ok(latency)
        } else {
            Err(format!(
                "latency must be between 1 and {MAX_LATENCY} cycles"
            ))
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_has_no_power_bound() {
        let c = SynthesisConstraints::new(10, PowerBudget::unbounded());
        assert!(!c.budget.is_binding());
        assert_eq!(c.latency, 10);
    }

    #[test]
    fn finite_power_is_binding() {
        assert!(SynthesisConstraints::new(10, 25.0).budget.is_binding());
    }

    #[test]
    fn scalar_and_shim_constructors_agree() {
        assert_eq!(
            SynthesisConstraints::new(10, 25.0),
            SynthesisConstraints::new(10, PowerBudget::constant(25.0))
        );
        assert_eq!(SynthesisConstraints::new(10, 25.0).max_power(), 25.0);
    }

    #[test]
    fn envelope_constraints_report_their_peak() {
        let c = SynthesisConstraints::new(10, PowerBudget::steps(vec![(0, 30.0), (5, 12.0)]));
        assert_eq!(c.max_power(), 30.0);
        assert!(c.budget.is_binding());
        // An envelope with one unconstrained phase is still binding.
        let c =
            SynthesisConstraints::new(10, PowerBudget::steps(vec![(0, f64::INFINITY), (5, 12.0)]));
        assert!(c.budget.is_binding());
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

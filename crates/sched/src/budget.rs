//! Time-varying per-cycle power budgets.
//!
//! The paper's constraint is a scalar "maximum power per clock-cycle"
//! `P<`, but the systems it targets are battery-powered: what the cell
//! can actually deliver varies over the schedule — supply sag as state
//! of charge drops, DVS or thermal phase steps, co-scheduled loads. A
//! [`PowerBudget`] generalizes the scalar bound to an *envelope*: one
//! bound per clock cycle, in one of three shapes:
//!
//! * [`PowerBudget::constant`] — the classical scalar `P<` (the paper's
//!   constraint, and the representation every legacy `f64` entry point
//!   maps to).
//! * [`PowerBudget::steps`] — piecewise-constant phases: `(cycle,
//!   bound)` breakpoints, each bound holding from its cycle until the
//!   next breakpoint.
//! * [`PowerBudget::per_cycle`] — an explicit bound for every cycle
//!   (e.g. derived from a battery model's sag curve — see
//!   `pchls_battery::budget_from_model`).
//!
//! Bounds are user input and stay `f64`. A ledger converts each cycle's
//! bound to integer quanta once, when it is built
//! ([`PowerLedger::under`](crate::PowerLedger::under), through
//! [`pchls_fulib::bound_quanta`]); a constant budget is simply an
//! envelope whose bounds are all equal, so however it is spelled it
//! builds the same ledger.

use serde::{Deserialize, Serialize};

/// A per-cycle power bound envelope: the generalized form of the
/// paper's scalar `P<` constraint.
///
/// Bounds may be `f64::INFINITY` (unconstrained cycles) but never NaN
/// or negative — the constructors panic, and the hand-written
/// [`Deserialize`] impl rejects such values, so a `PowerBudget` in hand
/// is always valid.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerBudget {
    /// The same bound in every cycle (the paper's scalar `P<`).
    Constant(f64),
    /// Piecewise-constant phases: `(start_cycle, bound)` breakpoints in
    /// strictly increasing cycle order. The first breakpoint's bound
    /// also covers any cycles before it; each bound holds until the
    /// next breakpoint.
    Steps(Vec<(u32, f64)>),
    /// One explicit bound per cycle; the last entry persists beyond the
    /// end of the vector (so a short envelope behaves like its final
    /// phase held).
    PerCycle(Vec<f64>),
}

/// A single bound is valid if it is non-negative and not NaN
/// (`+inf` allowed: an unconstrained cycle).
fn valid_bound(b: f64) -> bool {
    !b.is_nan() && b >= 0.0
}

impl PowerBudget {
    /// A constant budget (the classical scalar constraint).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is NaN or negative.
    #[must_use]
    pub fn constant(bound: f64) -> PowerBudget {
        assert!(valid_bound(bound), "power bound must be non-negative");
        PowerBudget::Constant(bound)
    }

    /// A stepwise budget from `(start_cycle, bound)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, cycles are not strictly increasing,
    /// or any bound is NaN or negative.
    #[must_use]
    pub fn steps(steps: Vec<(u32, f64)>) -> PowerBudget {
        assert!(
            !steps.is_empty(),
            "a stepwise budget needs at least one step"
        );
        for w in steps.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "step cycles must be strictly increasing ({} then {})",
                w[0].0,
                w[1].0
            );
        }
        for &(_, b) in &steps {
            assert!(valid_bound(b), "power bound must be non-negative");
        }
        PowerBudget::Steps(steps)
    }

    /// An explicit per-cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or any entry is NaN or negative.
    #[must_use]
    pub fn per_cycle(bounds: Vec<f64>) -> PowerBudget {
        assert!(
            !bounds.is_empty(),
            "a per-cycle budget needs at least one entry"
        );
        for &b in &bounds {
            assert!(valid_bound(b), "power bound must be non-negative");
        }
        PowerBudget::PerCycle(bounds)
    }

    /// An unconstrained budget (`P< = ∞` in every cycle).
    #[must_use]
    pub fn unbounded() -> PowerBudget {
        PowerBudget::Constant(f64::INFINITY)
    }

    /// The bound in force at `cycle`.
    #[must_use]
    pub fn bound_at(&self, cycle: u32) -> f64 {
        match self {
            PowerBudget::Constant(b) => *b,
            PowerBudget::Steps(steps) => steps
                .iter()
                .rev()
                .find(|&&(c, _)| c <= cycle)
                .map_or(steps[0].1, |&(_, b)| b),
            PowerBudget::PerCycle(bounds) => {
                let i = (cycle as usize).min(bounds.len() - 1);
                bounds[i]
            }
        }
    }

    /// The exact bounds over cycles `0..horizon` (empty for a zero
    /// horizon).
    #[must_use]
    pub(crate) fn materialize(&self, horizon: u32) -> Vec<f64> {
        (0..horizon).map(|c| self.bound_at(c)).collect()
    }

    /// The scalar bound, when this budget is structurally constant.
    #[must_use]
    pub fn as_constant(&self) -> Option<f64> {
        match self {
            PowerBudget::Constant(b) => Some(*b),
            _ => None,
        }
    }

    /// The largest bound any cycle can see — the scalar this envelope
    /// relaxes to. Quick-reject tests (`power > peak` can fit nowhere)
    /// and display paths use this; for a constant budget it *is* the
    /// bound.
    #[must_use]
    pub(crate) fn peak(&self) -> f64 {
        match self {
            PowerBudget::Constant(b) => *b,
            PowerBudget::Steps(steps) => steps
                .iter()
                .map(|&(_, b)| b)
                .fold(f64::NEG_INFINITY, f64::max),
            PowerBudget::PerCycle(bounds) => {
                bounds.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }

    /// The largest bound any cycle **inside `horizon`** can see — the
    /// effective peak a scheduler bounded by `horizon` compares
    /// against. For bounds that extend past the horizon (a long
    /// per-cycle vector, a step at or beyond it) this is tighter than
    /// `peak`, and it is the value
    /// [`PowerLedger::under`](crate::PowerLedger::under)
    /// materializes: quick-reject tests must use this form or they
    /// disagree with the ledger about what can ever fit. A zero
    /// horizon reports the opening bound.
    #[must_use]
    pub fn peak_within(&self, horizon: u32) -> f64 {
        if horizon == 0 {
            return self.bound_at(0);
        }
        (0..horizon)
            .map(|c| self.bound_at(c))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The smallest bound any cycle can see (the envelope's tightest
    /// phase).
    #[must_use]
    pub(crate) fn floor(&self) -> f64 {
        match self {
            PowerBudget::Constant(b) => *b,
            PowerBudget::Steps(steps) => {
                steps.iter().map(|&(_, b)| b).fold(f64::INFINITY, f64::min)
            }
            PowerBudget::PerCycle(bounds) => bounds.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Whether the budget constrains anything (some cycle's bound is
    /// finite).
    #[must_use]
    pub fn is_binding(&self) -> bool {
        self.floor().is_finite()
    }

    /// The budget with every bound multiplied by `factor` — the knob
    /// envelope sweeps range over
    /// ([`SweepSpec::budget_scale`](../pchls_core/enum.SweepSpec.html)).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is NaN or negative.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PowerBudget {
        assert!(valid_bound(factor), "scale factor must be non-negative");
        // `0 × ∞` is NaN in IEEE-754 but a zero bound in constraint
        // terms (no headroom stays no headroom; an unbounded phase
        // scaled to nothing is closed): pin both zero cases so a valid
        // budget times a valid factor is always a valid budget.
        let scale = |b: f64| {
            if b == 0.0 || factor == 0.0 {
                0.0
            } else {
                b * factor
            }
        };
        match self {
            PowerBudget::Constant(b) => PowerBudget::Constant(scale(*b)),
            PowerBudget::Steps(steps) => {
                PowerBudget::Steps(steps.iter().map(|&(c, b)| (c, scale(b))).collect())
            }
            PowerBudget::PerCycle(bounds) => {
                PowerBudget::PerCycle(bounds.iter().map(|&b| scale(b)).collect())
            }
        }
    }

    /// The budget with every bound capped at `cap` (element-wise
    /// minimum). Any schedule feasible under the clamped budget is
    /// feasible under the original — this is how the refinement ratchet
    /// tightens an envelope without ever relaxing a phase.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is NaN or negative.
    #[must_use]
    pub fn clamped(&self, cap: f64) -> PowerBudget {
        assert!(valid_bound(cap), "cap must be non-negative");
        match self {
            PowerBudget::Constant(b) => PowerBudget::Constant(b.min(cap)),
            PowerBudget::Steps(steps) => {
                PowerBudget::Steps(steps.iter().map(|&(c, b)| (c, b.min(cap))).collect())
            }
            PowerBudget::PerCycle(bounds) => {
                PowerBudget::PerCycle(bounds.iter().map(|&b| b.min(cap)).collect())
            }
        }
    }

    /// The time-reversed envelope over `horizon` cycles: forward cycle
    /// `c` maps to reversed cycle `horizon - 1 - c`. This is what
    /// `palap` runs against — the power-constrained ALAP schedules the
    /// reversed graph, so its ledger must see the mirrored bounds.
    /// Constant budgets reverse to themselves.
    #[must_use]
    pub(crate) fn reversed(&self, horizon: u32) -> PowerBudget {
        match self {
            PowerBudget::Constant(b) => PowerBudget::Constant(*b),
            _ => {
                let mut bounds = self.materialize(horizon);
                bounds.reverse();
                if bounds.is_empty() {
                    PowerBudget::Constant(self.bound_at(0))
                } else {
                    PowerBudget::PerCycle(bounds)
                }
            }
        }
    }

    /// Checks that the budget is shaped for a horizon of `latency`
    /// cycles: a per-cycle envelope must cover exactly `latency` cycles
    /// and no step may start at or past the horizon (constant budgets
    /// fit every horizon). This is the one source of truth for the
    /// wrong-horizon rules the CLI's `--budget` validation and the
    /// `pchls-serve` wire layer both enforce.
    ///
    /// # Errors
    ///
    /// A human-readable description of the mismatch.
    pub fn check_horizon(&self, latency: u32) -> Result<(), String> {
        match self {
            PowerBudget::Constant(_) => Ok(()),
            PowerBudget::Steps(steps) => match steps.iter().find(|&&(c, _)| c >= latency) {
                Some(&(c, _)) => Err(format!(
                    "budget step at cycle {c} is at or past the latency bound {latency}"
                )),
                None => Ok(()),
            },
            PowerBudget::PerCycle(bounds) => {
                if bounds.len() == latency as usize {
                    Ok(())
                } else {
                    Err(format!(
                        "per-cycle budget covers {} cycle(s) but the latency bound is {latency}",
                        bounds.len()
                    ))
                }
            }
        }
    }

    /// A stable 64-bit digest of the budget's *semantics* over cycles
    /// `0..horizon`: the exact per-cycle bounds a scheduler bounded by
    /// `horizon` observes, hashed bit-for-bit
    /// ([`pchls_cdfg::StableHasher`], so the value is identical across
    /// runs, platforms and builds and safe to persist on disk).
    ///
    /// Two budgets digest identically exactly when they impose the same
    /// bound in every usable cycle, regardless of spelling —
    /// `constant(25.0)`, `per_cycle(vec![25.0; 17])` and
    /// `steps(vec![(0, 25.0)])` all collapse to one digest at
    /// `horizon = 17`. That is the right key for a result store: such
    /// budgets build identical ledgers and so produce byte-identical
    /// designs, and they must share one cache entry.
    #[must_use]
    pub fn digest(&self, horizon: u32) -> u64 {
        // Domain tag: "pbudget" as ASCII words.
        let mut h = pchls_cdfg::StableHasher::new(0x7062_7564_6765_7431);
        h.write_u64(u64::from(horizon));
        if horizon == 0 {
            h.write_u64(self.bound_at(0).to_bits());
        }
        for c in 0..horizon {
            h.write_u64(self.bound_at(c).to_bits());
        }
        h.finish()
    }

    /// A short human-readable description (`P<25`, `envelope(12..30 over
    /// 3 steps)`, …) for error messages and reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            PowerBudget::Constant(b) => format!("P<{b}"),
            PowerBudget::Steps(steps) => format!(
                "envelope({}..{} over {} step(s))",
                self.floor(),
                self.peak(),
                steps.len()
            ),
            PowerBudget::PerCycle(bounds) => format!(
                "envelope({}..{} over {} cycle(s))",
                self.floor(),
                self.peak(),
                bounds.len()
            ),
        }
    }
}

impl From<f64> for PowerBudget {
    /// A scalar bound converts to a constant budget, so every legacy
    /// call site (`SynthesisConstraints::new(17, 25.0)`) keeps working.
    fn from(bound: f64) -> PowerBudget {
        PowerBudget::constant(bound)
    }
}

// The vendored serde derive handles only unit enums, so the tagged
// representation is written by hand:
//
// ```json
// {"constant": 25.0}
// {"steps": [[0, 30.0], [8, 12.0]]}
// {"per_cycle": [30.0, 30.0, 12.0]}
// ```
//
// This doubles as the `--budget` file format and the `pchls-serve` wire
// field. Deserialization re-validates every bound, so budgets arriving
// off the wire hold the same invariants the constructors enforce.
impl Serialize for PowerBudget {
    fn to_value(&self) -> serde::Value {
        let (key, value) = match self {
            PowerBudget::Constant(b) => ("constant", b.to_value()),
            PowerBudget::Steps(steps) => ("steps", steps.to_value()),
            PowerBudget::PerCycle(bounds) => ("per_cycle", bounds.to_value()),
        };
        serde::Value::Object(vec![(key.to_string(), value)])
    }
}

impl Deserialize for PowerBudget {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let Some(fields) = value.as_object() else {
            return Err(serde::Error::custom(
                "expected an object with one of `constant`, `steps`, `per_cycle`",
            ));
        };
        let [(key, inner)] = fields else {
            return Err(serde::Error::custom(format!(
                "expected exactly one of `constant`, `steps`, `per_cycle`, got {} key(s)",
                fields.len()
            )));
        };
        let check = |b: f64| -> Result<f64, serde::Error> {
            if valid_bound(b) {
                Ok(b)
            } else {
                Err(serde::Error::custom(format!(
                    "power bound {b} must be non-negative"
                )))
            }
        };
        match key.as_str() {
            "constant" => Ok(PowerBudget::Constant(check(f64::from_value(inner)?)?)),
            "steps" => {
                let steps = Vec::<(u32, f64)>::from_value(inner)?;
                if steps.is_empty() {
                    return Err(serde::Error::custom("`steps` must not be empty"));
                }
                for w in steps.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(serde::Error::custom(format!(
                            "step cycles must be strictly increasing ({} then {})",
                            w[0].0, w[1].0
                        )));
                    }
                }
                for &(_, b) in &steps {
                    check(b)?;
                }
                Ok(PowerBudget::Steps(steps))
            }
            "per_cycle" => {
                let bounds = Vec::<f64>::from_value(inner)?;
                if bounds.is_empty() {
                    return Err(serde::Error::custom("`per_cycle` must not be empty"));
                }
                for &b in &bounds {
                    check(b)?;
                }
                Ok(PowerBudget::PerCycle(bounds))
            }
            other => Err(serde::Error::custom(format!(
                "unknown budget kind `{other}` (expected `constant`, `steps` or `per_cycle`)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_bound_everywhere() {
        let b = PowerBudget::constant(25.0);
        assert_eq!(b.bound_at(0), 25.0);
        assert_eq!(b.bound_at(1000), 25.0);
        assert_eq!(b.peak(), 25.0);
        assert_eq!(b.floor(), 25.0);
        assert_eq!(b.as_constant(), Some(25.0));
    }

    #[test]
    fn steps_hold_until_the_next_breakpoint() {
        let b = PowerBudget::steps(vec![(0, 30.0), (4, 12.0), (8, 20.0)]);
        assert_eq!(b.bound_at(0), 30.0);
        assert_eq!(b.bound_at(3), 30.0);
        assert_eq!(b.bound_at(4), 12.0);
        assert_eq!(b.bound_at(7), 12.0);
        assert_eq!(b.bound_at(8), 20.0);
        assert_eq!(b.bound_at(100), 20.0);
        assert_eq!(b.peak(), 30.0);
        assert_eq!(b.floor(), 12.0);
        assert_eq!(b.as_constant(), None);
    }

    #[test]
    fn late_first_step_covers_earlier_cycles() {
        let b = PowerBudget::steps(vec![(3, 9.0), (6, 18.0)]);
        assert_eq!(b.bound_at(0), 9.0);
        assert_eq!(b.bound_at(5), 9.0);
        assert_eq!(b.bound_at(6), 18.0);
    }

    #[test]
    fn per_cycle_final_entry_persists() {
        let b = PowerBudget::per_cycle(vec![10.0, 20.0, 5.0]);
        assert_eq!(b.bound_at(1), 20.0);
        assert_eq!(b.bound_at(2), 5.0);
        assert_eq!(b.bound_at(99), 5.0);
        assert_eq!(b.materialize(5), vec![10.0, 20.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn scaling_multiplies_every_bound() {
        let b = PowerBudget::steps(vec![(0, 30.0), (4, 12.0)]).scaled(0.5);
        assert_eq!(b.bound_at(0), 15.0);
        assert_eq!(b.bound_at(4), 6.0);
    }

    #[test]
    fn scaling_zero_against_infinity_stays_a_valid_budget() {
        // IEEE-754 would make these NaN; the constraint semantics pin
        // them to zero, so every scaled budget remains ledger-valid.
        assert_eq!(
            PowerBudget::unbounded().scaled(0.0),
            PowerBudget::constant(0.0)
        );
        assert_eq!(
            PowerBudget::constant(0.0).scaled(f64::INFINITY),
            PowerBudget::constant(0.0)
        );
        let b = PowerBudget::steps(vec![(0, f64::INFINITY), (4, 12.0)]).scaled(0.0);
        assert_eq!(b.bound_at(0), 0.0);
        assert_eq!(b.bound_at(4), 0.0);
        // A scaled budget always builds a ledger without panicking.
        let _ = crate::PowerLedger::under(8, &b);
    }

    #[test]
    fn horizon_check_enforces_shape_rules() {
        assert!(PowerBudget::constant(5.0).check_horizon(1).is_ok());
        assert!(PowerBudget::steps(vec![(0, 5.0), (9, 1.0)])
            .check_horizon(10)
            .is_ok());
        let err = PowerBudget::steps(vec![(0, 5.0), (9, 1.0)])
            .check_horizon(9)
            .unwrap_err();
        assert!(err.contains("cycle 9"), "{err}");
        assert!(PowerBudget::per_cycle(vec![1.0; 4])
            .check_horizon(4)
            .is_ok());
        let err = PowerBudget::per_cycle(vec![1.0; 4])
            .check_horizon(5)
            .unwrap_err();
        assert!(err.contains("4 cycle(s)"), "{err}");
    }

    #[test]
    fn reversal_mirrors_the_time_axis() {
        let b = PowerBudget::steps(vec![(0, 30.0), (4, 12.0)]);
        let r = b.reversed(6);
        for c in 0..6 {
            assert_eq!(r.bound_at(c), b.bound_at(5 - c), "cycle {c}");
        }
        // Constant budgets reverse structurally to themselves.
        let c = PowerBudget::constant(7.0);
        assert_eq!(c.reversed(10), c);
    }

    #[test]
    fn unbounded_is_not_binding() {
        assert!(!PowerBudget::unbounded().is_binding());
        assert!(PowerBudget::constant(5.0).is_binding());
        // An envelope with one finite phase is binding.
        assert!(PowerBudget::steps(vec![(0, f64::INFINITY), (4, 9.0)]).is_binding());
    }

    #[test]
    fn serde_round_trips_all_shapes() {
        for b in [
            PowerBudget::constant(25.0),
            PowerBudget::steps(vec![(0, 30.0), (8, 12.5)]),
            PowerBudget::per_cycle(vec![5.0, 10.0, 2.5]),
        ] {
            let json = serde_json::to_string(&b).unwrap();
            let back: PowerBudget = serde_json::from_str(&json).unwrap();
            assert_eq!(back, b, "{json}");
        }
    }

    #[test]
    fn deserialization_rejects_invalid_bounds() {
        for bad in [
            r#"{"constant": -1.0}"#,
            r#"{"steps": []}"#,
            r#"{"steps": [[4, 9.0], [2, 5.0]]}"#,
            r#"{"per_cycle": []}"#,
            r#"{"per_cycle": [1.0, -2.0]}"#,
            r#"{"nope": 1.0}"#,
            r#"{"constant": 1.0, "per_cycle": [1.0]}"#,
            r#"[1.0]"#,
        ] {
            assert!(
                serde_json::from_str::<PowerBudget>(bad).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn digest_keys_on_semantics_not_spelling() {
        let constant = PowerBudget::constant(25.0);
        let flat_steps = PowerBudget::steps(vec![(0, 25.0)]);
        let flat_cycles = PowerBudget::per_cycle(vec![25.0; 17]);
        let d = constant.digest(17);
        assert_eq!(flat_steps.digest(17), d, "one step, same semantics");
        assert_eq!(flat_cycles.digest(17), d, "explicit cycles, same semantics");
        // A different bound, a different shape inside the horizon, and a
        // different horizon all move the digest.
        assert_ne!(PowerBudget::constant(26.0).digest(17), d);
        assert_ne!(PowerBudget::steps(vec![(0, 25.0), (9, 12.0)]).digest(17), d);
        assert_ne!(constant.digest(18), d);
        // Shape differences *past* the horizon are invisible to a
        // scheduler and therefore to the digest.
        assert_eq!(
            PowerBudget::steps(vec![(0, 30.0), (5, 12.0)]).digest(5),
            PowerBudget::constant(30.0).digest(5),
        );
        // Stable across calls (and across runs by construction).
        assert_eq!(constant.digest(17), d);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_constant_rejected() {
        let _ = PowerBudget::constant(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_steps_rejected() {
        let _ = PowerBudget::steps(vec![(4, 1.0), (4, 2.0)]);
    }
}

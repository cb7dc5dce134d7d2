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
/// or negative. One rule set decides validity: the constructors panic
/// where it refuses, and [`PowerBudget::try_constant`],
/// [`PowerBudget::from_json`] and the hand-written [`Deserialize`] impl
/// return its [`BudgetError`], so a `PowerBudget` in hand is always
/// valid.
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

/// Why a budget, or a scalar bound, was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// The document-order index of the rejected number in the budget's
    /// JSON spelling (a step is two numbers, its cycle then its bound; a
    /// scalar is number 0), or `None` when no single number is at fault.
    pub element: Option<usize>,
    /// The broken rule, in words.
    pub message: String,
}

impl BudgetError {
    fn at(element: usize, message: impl Into<String>) -> BudgetError {
        BudgetError {
            element: Some(element),
            message: message.into(),
        }
    }

    fn whole(message: impl Into<String>) -> BudgetError {
        BudgetError {
            element: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BudgetError {}

// The rules. Each is written once; the constructors, `try_constant`,
// `from_json` (and so `Deserialize`) and `check_horizon` all apply them.

/// A bound is valid if it is non-negative and not NaN (`+inf` allowed:
/// an unconstrained cycle).
fn bound(b: f64, element: usize) -> Result<f64, BudgetError> {
    if b >= 0.0 {
        Ok(b)
    } else {
        Err(BudgetError::at(
            element,
            format!("power bound {b} must be non-negative"),
        ))
    }
}

/// Step `i`, at `cycle`, must start inside a horizon of `latency` cycles.
fn step_within(i: usize, cycle: u32, latency: u32) -> Result<(), BudgetError> {
    if cycle < latency {
        Ok(())
    } else {
        Err(BudgetError::at(
            2 * i,
            format!("step at cycle {cycle} is at or past the latency bound {latency}"),
        ))
    }
}

/// A per-cycle envelope must cover exactly `latency` cycles.
fn covers(len: usize, latency: u32) -> Result<(), BudgetError> {
    if len == latency as usize {
        Ok(())
    } else {
        Err(BudgetError::whole(format!(
            "per-cycle budget covers {len} cycle(s) but the latency bound is {latency}"
        )))
    }
}

/// Collects `(cycle, bound)` steps as they are read, stopping at the
/// first that breaks a rule: read order decides which error a document
/// with several faults reports.
fn read_steps(
    items: impl IntoIterator<Item = Result<(u32, f64), BudgetError>>,
    horizon: Option<u32>,
) -> Result<Vec<(u32, f64)>, BudgetError> {
    let mut steps: Vec<(u32, f64)> = Vec::new();
    for (i, item) in items.into_iter().enumerate() {
        let (cycle, b) = item?;
        if let Some(latency) = horizon {
            step_within(i, cycle, latency)?;
        }
        if let Some(&(prev, _)) = steps.last() {
            if cycle <= prev {
                return Err(BudgetError::at(
                    2 * i,
                    format!("step cycles must be strictly increasing ({prev} then {cycle})"),
                ));
            }
        }
        steps.push((cycle, bound(b, 2 * i + 1)?));
    }
    if steps.is_empty() {
        return Err(BudgetError::whole(
            "`steps` must contain at least one [cycle, bound] pair",
        ));
    }
    Ok(steps)
}

/// Collects per-cycle bounds as they are read (see [`read_steps`]).
fn read_bounds(
    items: impl IntoIterator<Item = Result<f64, BudgetError>>,
    horizon: Option<u32>,
) -> Result<Vec<f64>, BudgetError> {
    let bounds = items
        .into_iter()
        .enumerate()
        .map(|(i, b)| bound(b?, i))
        .collect::<Result<Vec<f64>, BudgetError>>()?;
    if bounds.is_empty() {
        return Err(BudgetError::whole(
            "`per_cycle` must contain at least one bound",
        ));
    }
    if let Some(latency) = horizon {
        covers(bounds.len(), latency)?;
    }
    Ok(bounds)
}

/// Numeric view of a parsed JSON scalar.
fn number(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl PowerBudget {
    /// A constant budget (the classical scalar constraint).
    ///
    /// # Panics
    ///
    /// Where [`PowerBudget::try_constant`] errs.
    #[must_use]
    pub fn constant(bound: f64) -> PowerBudget {
        PowerBudget::try_constant(bound).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A constant budget, or why `bound` (a NaN or negative number) is
    /// none.
    ///
    /// # Errors
    ///
    /// The rejected bound, as element 0.
    pub fn try_constant(b: f64) -> Result<PowerBudget, BudgetError> {
        bound(b, 0).map(PowerBudget::Constant)
    }

    /// A stepwise budget from `(start_cycle, bound)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, cycles are not strictly increasing,
    /// or any bound is NaN or negative.
    #[must_use]
    pub fn steps(steps: Vec<(u32, f64)>) -> PowerBudget {
        read_steps(steps.into_iter().map(Ok), None)
            .map_or_else(|e| panic!("{e}"), PowerBudget::Steps)
    }

    /// An explicit per-cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or any entry is NaN or negative.
    #[must_use]
    pub fn per_cycle(bounds: Vec<f64>) -> PowerBudget {
        read_bounds(bounds.into_iter().map(Ok), None)
            .map_or_else(|e| panic!("{e}"), PowerBudget::PerCycle)
    }

    /// Reads a budget from its parsed JSON spelling (the `--budget` file
    /// format and the `pchls-serve` wire field, shown at the
    /// [`Serialize`] impl), applying every rule. With a `horizon`, the
    /// shape must also fit a latency of that many cycles
    /// ([`PowerBudget::check_horizon`]), checked step by step as the
    /// document is read.
    ///
    /// # Errors
    ///
    /// The first rule the document breaks, in document order, naming the
    /// offending number when there is one.
    pub fn from_json(
        value: &serde::Value,
        horizon: Option<u32>,
    ) -> Result<PowerBudget, BudgetError> {
        let shape = || {
            BudgetError::whole(
                "budget must be a JSON object with exactly one of `constant`, `steps`, `per_cycle`",
            )
        };
        let [(key, inner)] = value.as_object().ok_or_else(shape)? else {
            return Err(shape());
        };
        match key.as_str() {
            "constant" => {
                let b = number(inner)
                    .ok_or_else(|| BudgetError::whole("`constant` must be a number"))?;
                PowerBudget::try_constant(b)
            }
            "steps" => {
                let items = inner
                    .as_array()
                    .ok_or_else(|| BudgetError::whole("`steps` must be an array"))?;
                let step = |(i, item): (usize, &serde::Value)| {
                    let at = |message: &str| BudgetError::at(2 * i, message);
                    let Some([cycle, b]) = item.as_array() else {
                        return Err(at("each step must be [cycle, bound]"));
                    };
                    // Integer-*typed*: `0.0` is no cycle.
                    let serde::Value::Int(cycle) = cycle else {
                        return Err(at("step cycle must be a non-negative integer"));
                    };
                    let cycle = u32::try_from(*cycle)
                        .map_err(|_| at("step cycle must be a non-negative integer"))?;
                    let b = number(b).ok_or_else(|| at("step bound must be a number"))?;
                    Ok((cycle, b))
                };
                read_steps(items.iter().enumerate().map(step), horizon).map(PowerBudget::Steps)
            }
            "per_cycle" => {
                let items = inner
                    .as_array()
                    .ok_or_else(|| BudgetError::whole("`per_cycle` must be an array"))?;
                let b = |(i, item): (usize, &serde::Value)| {
                    number(item)
                        .ok_or_else(|| BudgetError::at(i, "per-cycle bound must be a number"))
                };
                read_bounds(items.iter().enumerate().map(b), horizon).map(PowerBudget::PerCycle)
            }
            other => Err(BudgetError::whole(format!(
                "unknown budget kind `{other}` (expected `constant`, `steps` or `per_cycle`)"
            ))),
        }
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
        assert!(
            bound(factor, 0).is_ok(),
            "scale factor must be non-negative"
        );
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
        assert!(bound(cap, 0).is_ok(), "cap must be non-negative");
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
    /// fit every horizon). [`PowerBudget::from_json`] applies the same
    /// rules while it reads a document.
    ///
    /// # Errors
    ///
    /// The mismatch, naming the first late step's cycle as its element.
    pub fn check_horizon(&self, latency: u32) -> Result<(), BudgetError> {
        match self {
            PowerBudget::Constant(_) => Ok(()),
            PowerBudget::Steps(steps) => steps
                .iter()
                .enumerate()
                .try_for_each(|(i, &(cycle, _))| step_within(i, cycle, latency)),
            PowerBudget::PerCycle(bounds) => covers(bounds.len(), latency),
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
// field. Deserialization is `PowerBudget::from_json`, so budgets arriving
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
        PowerBudget::from_json(value, None).map_err(serde::Error::custom)
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
            .unwrap_err()
            .message;
        assert!(err.contains("cycle 9"), "{err}");
        assert!(PowerBudget::per_cycle(vec![1.0; 4])
            .check_horizon(4)
            .is_ok());
        let err = PowerBudget::per_cycle(vec![1.0; 4])
            .check_horizon(5)
            .unwrap_err()
            .message;
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

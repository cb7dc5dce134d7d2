//! Tunable knobs of the synthesis heuristic (including ablation switches).

use pchls_bind::CostWeights;

use crate::error::SynthesisError;

/// Largest accepted magnitude of a decision-scoring weight. Far beyond
/// any meaningful trade-off between the score terms, and small enough
/// that no score or score bound — a few weights times `u32`-sized areas,
/// connection counts and cycle counts, summed — can overflow to an
/// infinity or NaN.
pub(crate) const MAX_WEIGHT: f64 = 1e100;

/// Options controlling the greedy synthesis loop.
///
/// The defaults reproduce the paper's algorithm; the boolean switches
/// exist for the ablation studies in `EXPERIMENTS.md` (what each
/// ingredient of the heuristic buys).
///
/// Every field is public: start from the paper defaults and change the
/// knobs a run needs with struct-update syntax:
///
/// ```
/// use pchls_core::SynthesisOptions;
///
/// let opts = SynthesisOptions {
///     backtracking: false,
///     interconnect_scoring: false,
///     ..SynthesisOptions::default()
/// };
/// assert!(!opts.backtracking);
/// assert!(opts.module_selection, "untouched knobs keep their defaults");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisOptions {
    /// Relative weight of area vs. interconnect in decision scoring.
    pub weights: CostWeights,
    /// Paper's backtracking rule: on infeasibility, undo the last
    /// decision and lock all unscheduled operations to the last valid
    /// `pasap` schedule. With `false`, a failing decision is simply
    /// skipped in favour of the next-best candidate (ablation).
    pub backtracking: bool,
    /// Explore module selection (e.g. serial vs. parallel multiplier) in
    /// the candidate decisions. With `false`, every operation uses the
    /// module of the bootstrap estimate only (ablation).
    pub module_selection: bool,
    /// Also credit shared operand sources / result consumers when scoring
    /// a binding onto an existing instance (the "least interconnect"
    /// tie-break). With `false`, scoring is by area only (ablation).
    pub interconnect_scoring: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            weights: CostWeights::default(),
            backtracking: true,
            module_selection: true,
            interconnect_scoring: true,
        }
    }
}

impl SynthesisOptions {
    /// Rejects NaN, infinite and overflow-prone decision-scoring weights:
    /// candidate scores must stay totally ordered.
    pub(crate) fn check_weights(&self) -> Result<(), SynthesisError> {
        let w = &self.weights;
        for (field, value) in [
            ("area", w.area),
            ("interconnect", w.interconnect),
            ("displacement", w.displacement),
        ] {
            if !value.is_finite() || value.abs() > MAX_WEIGHT {
                return Err(SynthesisError::InvalidWeight { field, value });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = SynthesisOptions::default();
        assert!(o.backtracking && o.module_selection && o.interconnect_scoring);
    }
}

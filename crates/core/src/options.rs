//! The ablation switches of the synthesis heuristic. Decision scoring
//! itself is fixed: ten times the saved area plus
//! [`INTERCONNECT_WEIGHT`](pchls_bind::INTERCONNECT_WEIGHT) per shared
//! connection, the paper's "minimum area … using least interconnect".

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
            backtracking: true,
            module_selection: true,
            interconnect_scoring: true,
        }
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

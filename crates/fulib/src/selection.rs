//! Module-selection policies.

use serde::{Deserialize, Serialize};

use crate::module::ModuleSpec;

/// How to choose among several modules that implement an operation.
///
/// Used to seed the synthesis heuristic with per-operation delay/power
/// estimates before binding has fixed the real module, and by the
/// baseline schedulers which do no module selection of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SelectionPolicy {
    /// Minimize latency; ties toward smaller area.
    Fastest,
    /// Minimize area; ties toward lower latency.
    MinArea,
    /// Minimize per-cycle power; ties toward lower latency.
    MinPower,
    /// Minimize energy per execution (`power × latency`); ties toward
    /// smaller area.
    MinEnergy,
}

impl SelectionPolicy {
    /// A sortable key: smaller is preferred under this policy.
    #[must_use]
    pub(crate) fn key(self, m: &ModuleSpec) -> (u64, u64) {
        let (latency, area) = (u64::from(m.latency()), u64::from(m.area()));
        match self {
            SelectionPolicy::Fastest => (latency, area),
            SelectionPolicy::MinArea => (area, latency),
            SelectionPolicy::MinPower => (m.power(), latency),
            SelectionPolicy::MinEnergy => (m.energy(), area),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_library;
    use pchls_cdfg::OpKind;

    #[test]
    fn policies_pick_expected_multipliers() {
        let l = paper_library();
        let pick = |p| {
            l.module(l.select(OpKind::Mul, p).unwrap())
                .name()
                .to_owned()
        };
        assert_eq!(pick(SelectionPolicy::Fastest), "mult_par");
        assert_eq!(pick(SelectionPolicy::MinArea), "mult_ser");
        assert_eq!(pick(SelectionPolicy::MinPower), "mult_ser");
        // serial: 2.7*4 = 10.8, parallel: 8.1*2 = 16.2
        assert_eq!(pick(SelectionPolicy::MinEnergy), "mult_ser");
    }

    #[test]
    fn fastest_add_prefers_smaller_area_on_tie() {
        let l = paper_library();
        let id = l.select(OpKind::Add, SelectionPolicy::Fastest).unwrap();
        assert_eq!(l.module(id).name(), "add"); // 87 < 97 (ALU), same latency
    }
}

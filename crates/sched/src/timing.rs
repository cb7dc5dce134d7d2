//! Per-operation timing/power assignment derived from module selection.

use serde::{Deserialize, Serialize};

use pchls_cdfg::{Cdfg, NodeId};
use pchls_fulib::{ModuleId, ModuleLibrary, SelectionPolicy};

/// The execution characteristics of one operation once a module (or a
/// module estimate) has been chosen for it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpTiming {
    /// Execution delay in clock cycles (≥ 1).
    pub delay: u32,
    /// Power drawn in each executing cycle.
    pub power: f64,
}

/// A total map from the nodes of one [`Cdfg`] to their [`OpTiming`].
///
/// The synthesis loop updates entries as binding decisions fix real
/// modules; scheduling algorithms only ever read it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingMap {
    entries: Vec<OpTiming>,
}

impl TimingMap {
    /// Derives a timing map by selecting, for every node, the library
    /// module preferred under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the library does not cover some operation kind used by
    /// the graph; check [`ModuleLibrary::covers`] first if the library
    /// is untrusted.
    #[must_use]
    pub fn from_policy(
        graph: &Cdfg,
        library: &ModuleLibrary,
        policy: SelectionPolicy,
    ) -> TimingMap {
        let entries = graph
            .nodes()
            .iter()
            .map(|n| {
                let id = library
                    .select(n.kind(), policy)
                    .unwrap_or_else(|| panic!("library does not cover {}", n.kind()));
                let m = library.module(id);
                OpTiming {
                    delay: m.latency(),
                    power: m.power(),
                }
            })
            .collect();
        TimingMap { entries }
    }

    /// Derives a timing map from an explicit per-node module assignment.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is not exactly one id per node.
    #[must_use]
    pub fn from_modules(graph: &Cdfg, library: &ModuleLibrary, modules: &[ModuleId]) -> TimingMap {
        assert_eq!(modules.len(), graph.len(), "one module per node required");
        let entries = modules
            .iter()
            .map(|&id| {
                let m = library.module(id);
                OpTiming {
                    delay: m.latency(),
                    power: m.power(),
                }
            })
            .collect();
        TimingMap { entries }
    }

    /// Builds a timing map from raw per-node entries (mainly for tests).
    ///
    /// # Panics
    ///
    /// Panics if any delay is zero.
    #[must_use]
    pub fn from_entries(entries: Vec<OpTiming>) -> TimingMap {
        assert!(
            entries.iter().all(|e| e.delay > 0),
            "every delay must be at least one cycle"
        );
        TimingMap { entries }
    }

    /// The timing of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn of(&self, id: NodeId) -> OpTiming {
        self.entries[id.index()]
    }

    /// Execution delay of `id` in cycles.
    #[must_use]
    pub fn delay(&self, id: NodeId) -> u32 {
        self.of(id).delay
    }

    /// Every node's delay, in node order.
    pub(crate) fn delays(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.delay)
    }

    /// Per-cycle power of `id`.
    #[must_use]
    pub fn power(&self, id: NodeId) -> f64 {
        self.of(id).power
    }

    /// Overwrites the timing of one node (used when binding fixes the
    /// actual module for an operation).
    pub fn set(&mut self, id: NodeId, timing: OpTiming) {
        assert!(timing.delay > 0, "delay must be at least one cycle");
        self.entries[id.index()] = timing;
    }

    /// The largest per-cycle power of any single operation.
    ///
    /// No schedule can beat this peak, so any `max_power` below it is
    /// trivially infeasible.
    #[must_use]
    pub fn max_single_op_power(&self) -> f64 {
        self.entries.iter().map(|e| e.power).fold(0.0, f64::max)
    }

    /// Sum over all operations of `delay × power`: the total energy of one
    /// execution of the graph, which is schedule-invariant.
    #[must_use]
    pub(crate) fn total_energy(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.power * f64::from(e.delay))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks::hal;
    use pchls_cdfg::OpKind;
    use pchls_fulib::paper_library;

    #[test]
    fn fastest_policy_gives_parallel_multipliers() {
        let g = hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        for n in g.nodes() {
            match n.kind() {
                OpKind::Mul => {
                    assert_eq!(t.delay(n.id()), 2);
                    assert!((t.power(n.id()) - 8.1).abs() < 1e-12);
                }
                _ => assert_eq!(t.delay(n.id()), 1),
            }
        }
    }

    #[test]
    fn min_area_policy_gives_serial_multipliers() {
        let g = hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::MinArea);
        let mul = g.nodes().iter().find(|n| n.kind() == OpKind::Mul).unwrap();
        assert_eq!(t.delay(mul.id()), 4);
    }

    #[test]
    fn total_energy_is_schedule_invariant_quantity() {
        let g = hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        // 6 muls at 8.1*2 + 4 alu-ops at 2.5 + 1 comp 2.5 + 6 in 0.2 + 4 out 1.7
        let expected = 6.0 * 16.2 + 5.0 * 2.5 + 6.0 * 0.2 + 4.0 * 1.7;
        assert!((t.total_energy() - expected).abs() < 1e-9);
    }

    #[test]
    fn set_overrides_one_entry() {
        let g = hal();
        let mut t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        let mul = g.nodes().iter().find(|n| n.kind() == OpKind::Mul).unwrap();
        t.set(
            mul.id(),
            OpTiming {
                delay: 4,
                power: 2.7,
            },
        );
        assert_eq!(t.delay(mul.id()), 4);
    }

    #[test]
    fn max_single_op_power_is_parallel_multiplier() {
        let g = hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        assert!((t.max_single_op_power() - 8.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delay")]
    fn zero_delay_entries_rejected() {
        let _ = TimingMap::from_entries(vec![OpTiming {
            delay: 0,
            power: 1.0,
        }]);
    }
}

//! Per-operation timing/power assignment derived from module selection.

use serde::{Deserialize, Serialize};

use pchls_cdfg::{Cdfg, NodeId};
use pchls_fulib::{ModuleId, ModuleLibrary, SelectionPolicy};

/// The execution characteristics of one operation once a module (or a
/// module estimate) has been chosen for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Execution delay in clock cycles (≥ 1).
    pub delay: u32,
    /// Power drawn in each executing cycle, in quanta
    /// ([`pchls_fulib::quanta`]).
    pub power: u64,
}

// Written by hand so `power` is serialized in power units, like every
// other power that leaves the program.
impl Serialize for OpTiming {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("delay".to_owned(), self.delay.to_value()),
            ("power".to_owned(), pchls_fulib::power_value(self.power)),
        ])
    }
}

impl Deserialize for OpTiming {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}` in OpTiming")))
        };
        Ok(OpTiming {
            delay: u32::from_value(field("delay")?)?,
            power: pchls_fulib::power_from_value(field("power")?)?,
        })
    }
}

/// A total map from the nodes of one [`Cdfg`] to their [`OpTiming`].
///
/// The synthesis loop updates entries as binding decisions fix real
/// modules; scheduling algorithms only ever read it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Panics if any entry is invalid (see [`TimingMap::set`]).
    #[must_use]
    pub fn from_entries(entries: Vec<OpTiming>) -> TimingMap {
        entries.iter().for_each(check);
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

    /// Per-cycle power of `id`, in quanta.
    #[must_use]
    pub fn power(&self, id: NodeId) -> u64 {
        self.of(id).power
    }

    /// Overwrites the timing of one node (used when binding fixes the
    /// actual module for an operation).
    ///
    /// # Panics
    ///
    /// Panics if the delay is zero or the power exceeds `u32::MAX`
    /// quanta (the most a module may draw, so no per-cycle sum of
    /// operation powers can overflow).
    pub fn set(&mut self, id: NodeId, timing: OpTiming) {
        check(&timing);
        self.entries[id.index()] = timing;
    }

    /// The largest per-cycle power of any single operation, in quanta.
    ///
    /// No schedule can beat this peak, so any `max_power` below it is
    /// trivially infeasible.
    #[must_use]
    pub fn max_single_op_power(&self) -> u64 {
        self.entries.iter().map(|e| e.power).max().unwrap_or(0)
    }

    /// Sum over all operations of `delay × power`, in quanta-cycles: the
    /// total energy of one execution of the graph, which is
    /// schedule-invariant. Only the exact scheduler's energy bound
    /// reads it.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn total_energy(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.power * u64::from(e.delay))
            .sum()
    }
}

/// Panics unless `t` is an entry a module could produce.
fn check(t: &OpTiming) {
    assert!(t.delay > 0, "every delay must be at least one cycle");
    assert!(
        t.power <= u64::from(u32::MAX),
        "power {} exceeds u32::MAX quanta",
        t.power
    );
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
                    assert_eq!(t.power(n.id()), 8100);
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
        let expected = 6 * 16_200 + 5 * 2_500 + 6 * 200 + 4 * 1_700;
        assert_eq!(t.total_energy(), expected);
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
                power: 2_700,
            },
        );
        assert_eq!(t.delay(mul.id()), 4);
    }

    #[test]
    fn max_single_op_power_is_parallel_multiplier() {
        let g = hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        assert_eq!(t.max_single_op_power(), 8_100);
    }

    #[test]
    #[should_panic(expected = "u32::MAX quanta")]
    fn oversized_powers_rejected() {
        let _ = TimingMap::from_entries(vec![OpTiming {
            delay: 1,
            power: u64::from(u32::MAX) + 1,
        }]);
    }

    #[test]
    #[should_panic(expected = "delay")]
    fn zero_delay_entries_rejected() {
        let _ = TimingMap::from_entries(vec![OpTiming {
            delay: 0,
            power: 1_000,
        }]);
    }
}

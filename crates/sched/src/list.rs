//! Resource-constrained list scheduling (baseline).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pchls_cdfg::{Cdfg, NodeId};
use pchls_fulib::{ModuleId, ModuleLibrary};

use crate::budget::PowerBudget;
use crate::error::ScheduleError;
use crate::power::PowerLedger;
use crate::schedule::Schedule;
use crate::timing::TimingMap;

/// How many instances of each module type a design may use.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Allocation {
    counts: BTreeMap<ModuleId, usize>,
}

impl Allocation {
    /// Builds an allocation from `(module, count)` pairs.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ModuleId, usize)>) -> Allocation {
        Allocation {
            counts: pairs.into_iter().collect(),
        }
    }

    /// Instance count of `module` (0 if absent).
    #[must_use]
    pub(crate) fn count(&self, module: ModuleId) -> usize {
        self.counts.get(&module).copied().unwrap_or(0)
    }

    /// Iterates `(module, count)` pairs with non-zero counts.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ModuleId, usize)> + '_ {
        self.counts.iter().map(|(&m, &c)| (m, c))
    }

    /// Total silicon area of the allocation.
    #[must_use]
    pub fn area(&self, library: &ModuleLibrary) -> u64 {
        self.iter()
            .map(|(m, c)| u64::from(library.module(m).area()) * c as u64)
            .sum()
    }
}

/// Priority-list scheduling under a module assignment, an instance
/// allocation and a per-cycle power budget.
///
/// Every node executes on the module given by `modules[node]`; at most
/// `allocation.count(m)` operations bound to module type `m` may overlap,
/// and the per-cycle power sum never exceeds that cycle's bound in
/// `budget`. Ready operations are prioritized by longest path to a sink
/// (critical-path list scheduling).
///
/// # Errors
///
/// * [`ScheduleError::MissingResource`] if some node's module has a zero
///   instance count.
/// * [`ScheduleError::OpExceedsBudget`] if one operation alone exceeds
///   the envelope's **peak** bound.
///
/// # Panics
///
/// Panics if `modules` is not one entry per node or assigns a module that
/// cannot execute the node's kind.
pub fn list_schedule(
    graph: &Cdfg,
    library: &ModuleLibrary,
    modules: &[ModuleId],
    allocation: &Allocation,
    budget: &PowerBudget,
) -> Result<Schedule, ScheduleError> {
    assert_eq!(modules.len(), graph.len(), "one module per node required");
    for id in graph.node_ids() {
        let m = library.module(modules[id.index()]);
        assert!(
            m.implements(graph.node(id).kind()),
            "{id} assigned to {} which cannot execute {}",
            m.name(),
            graph.node(id).kind()
        );
        if allocation.count(modules[id.index()]) == 0 {
            return Err(ScheduleError::MissingResource { node: id });
        }
    }
    let timing = TimingMap::from_modules(graph, library, modules);

    // Priority: longest delay-weighted path from the node to any sink.
    let mut priority = vec![0u64; graph.len()];
    for &id in graph.topological().iter().rev() {
        let down = graph
            .successors(id)
            .iter()
            .map(|&s| priority[s.index()])
            .max()
            .unwrap_or(0);
        priority[id.index()] = down + u64::from(timing.delay(id));
    }

    // Worst-case horizon: everything serialized.
    let horizon: u32 = graph
        .node_ids()
        .map(|id| timing.delay(id))
        .sum::<u32>()
        .max(1);
    let mut ledger = PowerLedger::under(horizon, budget);
    // The can-never-fit pre-check compares against the peak *within the
    // reachable horizon* (the value the ledger materialized) — a loose
    // phase past every schedulable cycle must not mask the error.
    let max_power = budget.peak_within(horizon);
    for id in graph.node_ids() {
        if !ledger.admits(timing.power(id)) {
            return Err(ScheduleError::OpExceedsBudget {
                node: id,
                power: pchls_fulib::units(timing.power(id)),
                max_power,
            });
        }
    }

    let mut remaining_preds: Vec<usize> = graph
        .node_ids()
        .map(|id| graph.operands(id).len())
        .collect();
    let mut ready_at: Vec<u32> = vec![0; graph.len()];
    let mut starts = vec![0u32; graph.len()];
    let mut unscheduled = graph.len();
    let mut busy_until: BTreeMap<ModuleId, Vec<u32>> =
        allocation.iter().map(|(m, c)| (m, vec![0u32; c])).collect();
    let mut scheduled = vec![false; graph.len()];

    let mut cycle: u32 = 0;
    while unscheduled > 0 {
        // Ops whose operands are done and whose data-ready time has come.
        let mut ready: Vec<NodeId> = graph
            .node_ids()
            .filter(|&id| {
                !scheduled[id.index()]
                    && remaining_preds[id.index()] == 0
                    && ready_at[id.index()] <= cycle
            })
            .collect();
        ready.sort_by_key(|&id| std::cmp::Reverse(priority[id.index()]));

        for id in ready {
            let m = modules[id.index()];
            let t = timing.of(id);
            let units = busy_until.get_mut(&m).expect("allocation checked");
            let Some(unit) = units.iter_mut().find(|u| **u <= cycle) else {
                continue; // all instances busy this cycle
            };
            if !ledger.fits(cycle, t.delay, t.power) {
                continue; // would blow the power budget this cycle
            }
            *unit = cycle + t.delay;
            ledger.reserve(cycle, t.delay, t.power);
            starts[id.index()] = cycle;
            scheduled[id.index()] = true;
            unscheduled -= 1;
            for &s in graph.successors(id) {
                remaining_preds[s.index()] -= 1;
                ready_at[s.index()] = ready_at[s.index()].max(cycle + t.delay);
            }
        }
        cycle += 1;
        if cycle > horizon {
            // Cannot happen with a correct allocation, but guard anyway.
            let stuck = graph
                .node_ids()
                .find(|&id| !scheduled[id.index()])
                .expect("unscheduled > 0");
            return Err(ScheduleError::Infeasible {
                node: stuck,
                horizon,
                max_power,
            });
        }
    }
    Ok(Schedule::new(starts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::{benchmarks, CriticalPath};
    use pchls_fulib::{paper_library, SelectionPolicy};

    fn assignment(g: &Cdfg, lib: &ModuleLibrary, policy: SelectionPolicy) -> Vec<ModuleId> {
        g.nodes()
            .iter()
            .map(|n| lib.select(n.kind(), policy).unwrap())
            .collect()
    }

    fn full_allocation(lib: &ModuleLibrary, count: usize) -> Allocation {
        Allocation::from_pairs(lib.ids().map(|m| (m, count)))
    }

    #[test]
    fn abundant_resources_reach_critical_path() {
        let lib = paper_library();
        for g in benchmarks::all() {
            let ms = assignment(&g, &lib, SelectionPolicy::Fastest);
            let alloc = full_allocation(&lib, 64);
            let s = list_schedule(&g, &lib, &ms, &alloc, &PowerBudget::unbounded()).unwrap();
            let t = TimingMap::from_modules(&g, &lib, &ms);
            let cp = CriticalPath::new(&g, |id| t.delay(id)).length();
            assert_eq!(s.latency(&t), cp, "{}", g.name());
            s.validate(&g, &t, Some(cp), None).unwrap();
        }
    }

    #[test]
    fn single_units_serialize_operations() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let ms = assignment(&g, &lib, SelectionPolicy::Fastest);
        let alloc = full_allocation(&lib, 1);
        let s = list_schedule(&g, &lib, &ms, &alloc, &PowerBudget::unbounded()).unwrap();
        let t = TimingMap::from_modules(&g, &lib, &ms);
        s.validate(&g, &t, None, None).unwrap();
        // 6 multiplications on one 2-cycle multiplier = at least 12 cycles.
        assert!(s.latency(&t) >= 12);
        // No two multiplications may overlap.
        let muls: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| n.kind() == pchls_cdfg::OpKind::Mul)
            .map(|n| n.id())
            .collect();
        for (i, &a) in muls.iter().enumerate() {
            for &b in &muls[i + 1..] {
                let (sa, fa) = (s.start(a), s.finish(a, &t));
                let (sb, fb) = (s.start(b), s.finish(b, &t));
                assert!(fa <= sb || fb <= sa, "{a} and {b} overlap");
            }
        }
    }

    #[test]
    fn power_budget_is_respected() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let ms = assignment(&g, &lib, SelectionPolicy::Fastest);
        let alloc = full_allocation(&lib, 8);
        let s = list_schedule(&g, &lib, &ms, &alloc, &PowerBudget::constant(10.0)).unwrap();
        let t = TimingMap::from_modules(&g, &lib, &ms);
        s.validate(&g, &t, None, Some(&PowerBudget::constant(10.0)))
            .unwrap();
    }

    #[test]
    fn zero_allocation_is_missing_resource() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let ms = assignment(&g, &lib, SelectionPolicy::Fastest);
        let mult_par = lib.by_name("mult_par").unwrap();
        let alloc =
            Allocation::from_pairs(lib.ids().map(|m| (m, if m == mult_par { 0 } else { 4 })));
        let err = list_schedule(&g, &lib, &ms, &alloc, &PowerBudget::unbounded()).unwrap_err();
        assert!(matches!(err, ScheduleError::MissingResource { .. }));
    }

    #[test]
    fn allocation_area_sums_instances() {
        let lib = paper_library();
        let a = Allocation::from_pairs([
            (lib.by_name("add").unwrap(), 2),
            (lib.by_name("mult_par").unwrap(), 1),
        ]);
        assert_eq!(a.area(&lib), 2 * 87 + 339);
    }
}

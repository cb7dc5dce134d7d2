//! Exact minimal-latency power-constrained scheduling by branch and
//! bound — the optimality yardstick for `pasap`. A test-only reference:
//! it is compiled only under `cfg(test)`, where the tests below compare
//! `pasap` against it.
//!
//! `pasap` is a greedy heuristic; this module computes, for small
//! graphs, the *true* minimum latency achievable under the per-cycle
//! power budget (resources unconstrained, module timing fixed). The
//! search branches on the start time of one ready operation at a time
//! and prunes with two lower bounds:
//!
//! * the **critical-path bound**: an operation starting at `s` forces a
//!   makespan of at least `s + longest path from it to a sink`;
//! * the **energy bound**: total energy `Σ delay·power` divided by the
//!   budget is a makespan lower bound regardless of structure.
//!
//! Complexity is exponential; callers bound the effort with
//! [`ExactLimits`] and receive `None` when the budget runs out, so the
//! result is either exact or explicitly unknown — never silently
//! approximate.

use pchls_cdfg::{Cdfg, NodeId};

use crate::power::PowerLedger;

use crate::timing::TimingMap;
use pchls_fulib::bound_quanta;

/// Effort limits for the exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExactLimits {
    /// Maximum search-tree nodes to expand before giving up.
    pub(crate) max_nodes: u64,
    /// Hard cap on the latency considered (search space horizon).
    pub(crate) max_latency: u32,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits {
            max_nodes: 20_000_000,
            max_latency: 128,
        }
    }
}

/// Computes the exact minimum latency of `graph` under `max_power`, or
/// `None` if the limits were exhausted before the search completed, or
/// if no schedule exists within `limits.max_latency` (including the case
/// of a single operation exceeding the budget).
///
/// The returned latency is achievable: the search only accepts complete,
/// validated placements.
#[must_use]
pub(crate) fn minimal_latency_exact(
    graph: &Cdfg,
    timing: &TimingMap,
    max_power: f64,
    limits: ExactLimits,
) -> Option<u32> {
    let n = graph.len();
    if n == 0 {
        return Some(0);
    }
    let budget = crate::PowerBudget::constant(max_power);
    let cap = bound_quanta(max_power);
    if graph.node_ids().any(|id| timing.power(id) > cap) {
        return None;
    }

    // Suffix critical path: longest delay-weighted path to a sink.
    let mut suffix = vec![0u32; n];
    for &id in graph.topological().iter().rev() {
        let down = graph
            .successors(id)
            .iter()
            .map(|&s| suffix[s.index()])
            .max()
            .unwrap_or(0);
        suffix[id.index()] = down + timing.delay(id);
    }
    let cp_bound = graph
        .node_ids()
        .map(|id| suffix[id.index()])
        .max()
        .unwrap_or(0);
    // Energy bound: the budget caps work per cycle.
    let energy_bound = if cap > 0 {
        timing.total_energy().div_ceil(cap) as u32
    } else {
        0
    };
    let lower = cp_bound.max(energy_bound);

    // Start from the pasap solution as the incumbent upper bound.
    let best = crate::pasap::pasap(graph, timing, &budget, limits.max_latency)
        .map(|s| s.latency(timing))
        .unwrap_or(limits.max_latency + 1);
    if best == lower {
        return Some(best); // the heuristic already matched the lower bound
    }

    // Branch on operations in a fixed topological order; at each depth
    // try every start from data-ready upward while the bounds allow.
    let order: Vec<NodeId> = graph.topological().to_vec();
    let starts = vec![0u32; n];
    let ledger = PowerLedger::under(limits.max_latency, &budget);
    let budget = limits.max_nodes;

    // Remaining energy after each depth (energy of all ops at or beyond
    // that position in the branching order).
    let mut remaining_energy = vec![0u64; n + 1];
    for d in (0..n).rev() {
        let t = timing.of(order[d]);
        remaining_energy[d] = remaining_energy[d + 1] + t.power * u64::from(t.delay);
    }

    struct Search<'a> {
        graph: &'a Cdfg,
        timing: &'a TimingMap,
        order: &'a [NodeId],
        suffix: &'a [u32],
        remaining_energy: &'a [u64],
        cap: u64,
        lower: u32,
        starts: Vec<u32>,
        ledger: PowerLedger,
        best: u32,
        budget: u64,
    }

    impl Search<'_> {
        /// Energy-aware makespan lower bound: the undecided operations
        /// must fit into the free capacity at or before `makespan`, with
        /// any excess forcing extra cycles at `cap` throughput.
        fn energy_bound(&self, depth: usize, makespan: u32) -> u32 {
            if self.cap == 0 {
                return 0;
            }
            let free = (0..makespan)
                .map(|c| self.cap - self.ledger.used(c))
                .fold(0u64, u64::saturating_add);
            match self.remaining_energy[depth].saturating_sub(free) {
                0 => 0,
                excess => makespan + excess.div_ceil(self.cap) as u32,
            }
        }

        fn dfs(&mut self, depth: usize, makespan: u32) {
            if self.budget == 0 || self.best == self.lower {
                return;
            }
            self.budget -= 1;
            if depth == self.order.len() {
                self.best = self.best.min(makespan);
                return;
            }
            if self.energy_bound(depth, makespan) >= self.best {
                return;
            }
            let id = self.order[depth];
            let t = self.timing.of(id);
            let ready = self
                .graph
                .operands(id)
                .iter()
                .map(|&p| self.starts[p.index()] + self.timing.delay(p))
                .max()
                .unwrap_or(0);
            let mut s = ready;
            // An op may start no later than best-1 - (suffix after it).
            while s + self.suffix[id.index()] < self.best {
                if self.ledger.fits(s, t.delay, t.power) {
                    self.ledger.reserve(s, t.delay, t.power);
                    self.starts[id.index()] = s;
                    self.dfs(depth + 1, makespan.max(s + t.delay));
                    self.ledger.release(s, t.delay, t.power);
                    if self.budget == 0 || self.best == self.lower {
                        return;
                    }
                }
                s += 1;
            }
        }
    }

    let mut search = Search {
        graph,
        timing,
        order: &order,
        suffix: &suffix,
        remaining_energy: &remaining_energy,
        cap,
        lower,
        starts,
        ledger,
        best,
        budget,
    };
    search.dfs(0, 0);
    let best = search.best;
    let budget = search.budget;

    if budget == 0 && best > lower {
        // Effort exhausted without proving optimality.
        return None;
    }
    (best <= limits.max_latency).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap;
    use crate::pasap::pasap;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::{paper_library, SelectionPolicy};

    fn hal_timing() -> (Cdfg, TimingMap) {
        let g = benchmarks::hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        (g, t)
    }

    #[test]
    fn infinite_power_gives_the_critical_path() {
        let (g, t) = hal_timing();
        let exact = minimal_latency_exact(&g, &t, f64::INFINITY, ExactLimits::default());
        assert_eq!(exact, Some(8));
    }

    #[test]
    fn exact_never_exceeds_pasap_where_it_completes() {
        // fft_butterfly (16 nodes) and fir(4) complete at every pressure
        // level; hal (21 nodes) completes at moderate pressure.
        let lib = paper_library();
        let cases = [
            (benchmarks::fft_butterfly(), vec![20.0, 12.0, 9.0]),
            (benchmarks::fir(4), vec![20.0, 12.0, 9.0]),
            (benchmarks::hal(), vec![20.0]),
        ];
        for (g, bounds) in cases {
            let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
            for bound in bounds {
                let heuristic = pasap(&g, &t, &crate::PowerBudget::constant(bound), 200)
                    .unwrap()
                    .latency(&t);
                let exact = minimal_latency_exact(&g, &t, bound, ExactLimits::default())
                    .unwrap_or_else(|| panic!("{} at {bound} should complete", g.name()));
                assert!(
                    exact <= heuristic,
                    "{} bound {bound}: exact {exact} > pasap {heuristic}",
                    g.name()
                );
                // Exact respects the structural lower bounds.
                let energy_lb = t.total_energy().div_ceil(pchls_fulib::bound_quanta(bound)) as u32;
                let cp = asap(&g, &t).latency(&t);
                assert!(exact >= energy_lb.max(cp).min(exact));
            }
        }
    }

    #[test]
    fn pasap_is_optimal_where_exactness_is_provable() {
        // Measured result worth documenting: at every (graph, bound)
        // where the exact search completes, the criticality-ordered
        // pasap heuristic matches the true optimum exactly.
        let lib = paper_library();
        let cases = [
            (benchmarks::fft_butterfly(), vec![20.0, 12.0, 9.0]),
            (benchmarks::fir(4), vec![20.0, 12.0, 9.0]),
            (benchmarks::hal(), vec![20.0]),
        ];
        for (g, bounds) in cases {
            let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
            for bound in bounds {
                let heuristic = pasap(&g, &t, &crate::PowerBudget::constant(bound), 200)
                    .unwrap()
                    .latency(&t);
                let exact = minimal_latency_exact(&g, &t, bound, ExactLimits::default()).unwrap();
                assert_eq!(
                    heuristic,
                    exact,
                    "{} bound {bound}: pasap is not optimal",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn over_budget_op_is_unschedulable() {
        let (g, t) = hal_timing();
        assert_eq!(
            minimal_latency_exact(&g, &t, 5.0, ExactLimits::default()),
            None // mult_par draws 8.1
        );
    }

    #[test]
    fn exhausted_budget_returns_unknown() {
        let g = benchmarks::cosine();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        let limits = ExactLimits {
            max_nodes: 10,
            max_latency: 64,
        };
        // 64 ops with 10 nodes of search: either the heuristic already
        // matched the lower bound (fine) or the result must be None.
        if let Some(lat) = minimal_latency_exact(&g, &t, 30.0, limits) {
            let lb = t.total_energy().div_ceil(30_000) as u32;
            assert!(lat <= 64 && lat >= lb.min(lat));
        }
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = pchls_cdfg::CdfgBuilder::new("empty").finish().unwrap();
        let t = TimingMap::from_entries(vec![]);
        assert_eq!(
            minimal_latency_exact(&g, &t, 1.0, ExactLimits::default()),
            Some(0)
        );
    }
}

//! Baseline flows the paper compares against.

use pchls_bind::bind_schedule;
use pchls_cdfg::Cdfg;
use pchls_fulib::{ModuleLibrary, SelectionPolicy};
use pchls_sched::{asap, two_step, PowerProfile, TimingMap};

use crate::constraints::SynthesisConstraints;
use crate::design::SynthesizedDesign;
use crate::error::SynthesisError;

/// A design produced by a baseline flow, with the extra flag two-phase
/// methods need: whether the power constraint was actually met.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDesign {
    /// The scheduled/bound design.
    pub design: SynthesizedDesign,
    /// `false` when the baseline could not satisfy the power bound (the
    /// returned design then violates it — the failure mode of two-phase
    /// methods the paper highlights).
    pub met_power: bool,
}

/// The two-step baseline (paper refs [1, 2]): a time-constrained ASAP
/// schedule, a mobility-based power-flattening pass, then clique-
/// partitioning binding on the *fixed* resulting schedule.
///
/// Module selection is a single up-front policy (`policy`) — two-phase
/// flows do not co-optimize it.
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when even the unconstrained
/// schedule misses the latency bound, and propagates binding failures.
pub(crate) fn two_step_bind(
    graph: &Cdfg,
    library: &ModuleLibrary,
    constraints: SynthesisConstraints,
    policy: SelectionPolicy,
) -> Result<BaselineDesign, SynthesisError> {
    let timing = TimingMap::from_policy(graph, library, policy);
    let outcome = two_step(graph, &timing, constraints.latency, &constraints.budget)
        .map_err(|cause| SynthesisError::Infeasible { cause })?;
    let binding = bind_schedule(graph, library, &outcome.schedule, &timing)?;
    let design =
        SynthesizedDesign::assemble(outcome.schedule, timing, binding, library, constraints);
    Ok(BaselineDesign {
        design,
        met_power: outcome.met_power,
    })
}

/// The power-oblivious baseline: plain ASAP scheduling plus
/// clique-partitioning binding, ignoring `P<` entirely. Its designs show
/// the power spikes of Figure 1 (top).
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when the critical path misses
/// the latency bound, and propagates binding failures.
pub(crate) fn unconstrained_bind(
    graph: &Cdfg,
    library: &ModuleLibrary,
    latency: u32,
    policy: SelectionPolicy,
) -> Result<SynthesizedDesign, SynthesisError> {
    let timing = TimingMap::from_policy(graph, library, policy);
    let schedule = asap(graph, &timing);
    let achieved = schedule.latency(&timing);
    if achieved > latency {
        return Err(SynthesisError::Infeasible {
            cause: pchls_sched::ScheduleError::LatencyExceeded {
                latency: achieved,
                bound: latency,
            },
        });
    }
    let binding = bind_schedule(graph, library, &schedule, &timing)?;
    let peak = PowerProfile::of(&schedule, &timing).peak();
    Ok(SynthesizedDesign::assemble(
        schedule,
        timing,
        binding,
        library,
        SynthesisConstraints::new(latency, peak.max(1.0)),
    ))
}

/// The allocation-trimming baseline: a classic iterative-refinement flow
/// that fixes module selection up front (`policy`), starts from a
/// dedicated allocation (one unit per operation) and repeatedly removes
/// the largest-area unit whose removal still admits a power- and
/// resource-constrained list schedule within the latency bound. The
/// final schedule is then bound by clique partitioning.
///
/// Unlike the paper's algorithm it cannot trade module types and explores
/// allocations only along a single greedy trajectory.
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when even the dedicated
/// allocation cannot meet the constraints.
pub(crate) fn trimmed_allocation_bind(
    graph: &Cdfg,
    library: &ModuleLibrary,
    constraints: SynthesisConstraints,
    policy: SelectionPolicy,
) -> Result<SynthesizedDesign, SynthesisError> {
    use pchls_sched::{list_schedule, Allocation};

    let modules: Vec<pchls_fulib::ModuleId> = graph
        .nodes()
        .iter()
        .map(|n| {
            library
                .select(n.kind(), policy)
                .unwrap_or_else(|| panic!("library does not cover {}", n.kind()))
        })
        .collect();

    // Dedicated allocation: as many units of each type as operations
    // assigned to it.
    let mut counts: std::collections::BTreeMap<pchls_fulib::ModuleId, usize> =
        std::collections::BTreeMap::new();
    for &m in &modules {
        *counts.entry(m).or_insert(0) += 1;
    }
    // Module selection is fixed for the whole trim loop, so the timing
    // map is too — one build, not one per feasibility probe.
    let timing = TimingMap::from_modules(graph, library, &modules);
    let feasible = |counts: &std::collections::BTreeMap<pchls_fulib::ModuleId, usize>| {
        let alloc = Allocation::from_pairs(counts.iter().map(|(&m, &c)| (m, c)));
        list_schedule(graph, library, &modules, &alloc, &constraints.budget)
            .ok()
            .filter(|s| s.latency(&timing) <= constraints.latency)
    };
    let Some(mut schedule) = feasible(&counts) else {
        return Err(SynthesisError::Infeasible {
            cause: pchls_sched::ScheduleError::Infeasible {
                node: graph.node_ids().next().expect("non-empty graph"),
                horizon: constraints.latency,
                max_power: constraints.max_power(),
            },
        });
    };

    // Trim: drop the most expensive removable unit until stuck.
    loop {
        let mut candidates: Vec<pchls_fulib::ModuleId> = counts
            .iter()
            .filter(|&(_, &c)| c > 1)
            .map(|(&m, _)| m)
            .collect();
        candidates.sort_by_key(|&m| std::cmp::Reverse(library.module(m).area()));
        let mut trimmed = false;
        for m in candidates {
            *counts.get_mut(&m).expect("candidate exists") -= 1;
            if let Some(s) = feasible(&counts) {
                schedule = s;
                trimmed = true;
                break;
            }
            *counts.get_mut(&m).expect("candidate exists") += 1;
        }
        if !trimmed {
            break;
        }
    }

    let binding = bind_schedule(graph, library, &schedule, &timing)?;
    Ok(SynthesizedDesign::assemble(
        schedule,
        timing,
        binding,
        library,
        constraints,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    #[test]
    fn unconstrained_designs_validate() {
        let lib = paper_library();
        for g in benchmarks::paper_set() {
            let d = unconstrained_bind(&g, &lib, 100, SelectionPolicy::Fastest).unwrap();
            d.validate(&g, &lib)
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }

    #[test]
    fn two_step_meets_power_with_slack() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let c = SynthesisConstraints::new(20, 20.0);
        let b = two_step_bind(&g, &lib, c, SelectionPolicy::Fastest).unwrap();
        assert!(b.met_power);
        b.design.validate(&g, &lib).unwrap();
    }

    #[test]
    fn two_step_fails_power_at_tight_latency() {
        // At the critical path there is no mobility: the reorder phase
        // cannot flatten anything, while the simultaneous algorithm could
        // still trade modules. This is the paper's motivating weakness.
        let lib = paper_library();
        let g = benchmarks::hal();
        let c = SynthesisConstraints::new(8, 12.0);
        let b = two_step_bind(&g, &lib, c, SelectionPolicy::Fastest).unwrap();
        assert!(!b.met_power);
    }

    #[test]
    fn unconstrained_infeasible_latency_reported() {
        let lib = paper_library();
        let g = benchmarks::hal();
        assert!(unconstrained_bind(&g, &lib, 3, SelectionPolicy::Fastest).is_err());
    }

    #[test]
    fn trimming_meets_constraints_and_beats_dedicated() {
        let lib = paper_library();
        for g in benchmarks::paper_set() {
            let c = SynthesisConstraints::new(30, 40.0);
            let d = trimmed_allocation_bind(&g, &lib, c, SelectionPolicy::Fastest)
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            d.validate(&g, &lib).unwrap();
            let dedicated: u64 = g
                .nodes()
                .iter()
                .map(|n| {
                    u64::from(
                        lib.module(lib.select(n.kind(), SelectionPolicy::Fastest).unwrap())
                            .area(),
                    )
                })
                .sum();
            assert!(d.area < dedicated, "{}: no trimming happened", g.name());
        }
    }

    #[test]
    fn trimming_reports_infeasible_latency() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let c = SynthesisConstraints::new(4, 1e6);
        assert!(trimmed_allocation_bind(&g, &lib, c, SelectionPolicy::Fastest).is_err());
    }
}

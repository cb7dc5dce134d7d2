//! Greedy partial clique partitioning of the compatibility graph.

use pchls_cdfg::{Cdfg, NodeId};
use pchls_fulib::ModuleLibrary;
use pchls_sched::{Schedule, TimingMap};

use crate::binding::Binding;
use crate::compat::{
    cheapest_common_module, shared_connections, CompatibilityGraph, INTERCONNECT_WEIGHT,
};
use crate::error::BindError;

/// Partitions the operations into cliques of the compatibility graph and
/// returns the resulting binding: one functional-unit instance per
/// clique, typed with the cheapest module that covers the whole clique.
///
/// The greedy rule follows Jou et al.: repeatedly merge the pair of
/// cliques with the largest gain (cheapest-common-module area saved plus
/// [`INTERCONNECT_WEIGHT`] per shared connection), until no merge is
/// possible. Singleton cliques remain for operations that cannot share.
///
/// This is the *fixed-schedule* partitioner used by the baselines; the
/// full synthesis algorithm in `pchls-core` interleaves partitioning with
/// power-aware rescheduling instead.
///
/// # Panics
///
/// Panics if `compat` does not cover `graph`.
#[must_use]
pub(crate) fn partition_cliques(
    graph: &Cdfg,
    library: &ModuleLibrary,
    compat: &CompatibilityGraph,
    timing: &TimingMap,
) -> Binding {
    assert_eq!(compat.len(), graph.len(), "compatibility graph mismatch");
    let mut cliques: Vec<Vec<NodeId>> = graph.node_ids().map(|id| vec![id]).collect();

    loop {
        let mut best: Option<(i64, usize, usize)> = None;
        for i in 0..cliques.len() {
            for j in (i + 1)..cliques.len() {
                let Some(gain) =
                    merge_gain(graph, library, compat, timing, &cliques[i], &cliques[j])
                else {
                    continue;
                };
                if gain <= 0 {
                    continue; // partial partitioning: never merge at a loss
                }
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, i, j));
                }
            }
        }
        let Some((_, i, j)) = best else { break };
        let merged = cliques.swap_remove(j);
        cliques[i].extend(merged);
        // swap_remove never disturbs index i because i < j.
    }

    let mut binding = Binding::new(graph.len());
    for clique in &cliques {
        let module = cheapest_common_module(graph, library, timing, clique)
            .expect("every clique admits a module by construction");
        let inst = binding.new_instance(module);
        for &op in clique {
            binding.bind(op, inst);
        }
    }
    binding
}

/// Gain of merging cliques `a` and `b` in tenths of an area unit, or
/// `None` if they cannot merge.
///
/// Merging is allowed when every cross pair is compatible and one module
/// covers the union. The gain is ten times the area no longer
/// duplicated, `area(module(a)) + area(module(b)) − area(module(a ∪ b))`,
/// plus [`INTERCONNECT_WEIGHT`] per connection shared across the cut.
fn merge_gain(
    graph: &Cdfg,
    library: &ModuleLibrary,
    compat: &CompatibilityGraph,
    timing: &TimingMap,
    a: &[NodeId],
    b: &[NodeId],
) -> Option<i64> {
    for &x in a {
        for &y in b {
            if !compat.compatible(x, y) {
                return None;
            }
        }
    }
    let union: Vec<NodeId> = a.iter().chain(b).copied().collect();
    let m_union = cheapest_common_module(graph, library, timing, &union)?;
    let m_a = cheapest_common_module(graph, library, timing, a).expect("clique invariant");
    let m_b = cheapest_common_module(graph, library, timing, b).expect("clique invariant");
    let area_gain = i64::from(library.module(m_a).area()) + i64::from(library.module(m_b).area())
        - i64::from(library.module(m_union).area());
    let shared: usize = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| shared_connections(graph, x, y)))
        .sum();
    Some(10 * area_gain + INTERCONNECT_WEIGHT * shared as i64)
}

/// Binds a *fixed* schedule: builds its interval compatibility graph
/// and clique-partitions it. `schedule` must meet every dependence
/// (see [`CompatibilityGraph`]).
///
/// # Errors
///
/// Returns the first [`BindError`] if the produced binding fails
/// validation — which would indicate an internal invariant violation and
/// is asserted against in tests.
pub fn bind_schedule(
    graph: &Cdfg,
    library: &ModuleLibrary,
    schedule: &Schedule,
    timing: &TimingMap,
) -> Result<Binding, BindError> {
    let compat = CompatibilityGraph::build(graph, library, schedule, timing);
    let binding = partition_cliques(graph, library, &compat, timing);
    binding.validate(graph, library, schedule, timing)?;
    Ok(binding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks;
    use pchls_cdfg::OpKind;
    use pchls_fulib::{paper_library, SelectionPolicy};
    use pchls_sched::asap;

    #[test]
    fn bound_designs_validate_on_all_benchmarks() {
        let lib = paper_library();
        for g in benchmarks::all() {
            for policy in [SelectionPolicy::Fastest, SelectionPolicy::MinArea] {
                let t = TimingMap::from_policy(&g, &lib, policy);
                let s = asap(&g, &t);
                let b =
                    bind_schedule(&g, &lib, &s, &t).unwrap_or_else(|e| panic!("{}: {e}", g.name()));
                assert!(b.is_complete());
            }
        }
    }

    #[test]
    fn merge_gain_is_area_saved_plus_shared_interconnect() {
        let mut builder = pchls_cdfg::CdfgBuilder::new("g");
        let x = builder.input("x");
        let y = builder.input("y");
        let a = builder.add(x, y);
        let s = builder.sub(a, y);
        builder.output("o", s);
        let g = builder.finish().unwrap();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let sched = asap(&g, &t);
        let compat = CompatibilityGraph::build(&g, &lib, &sched, &t);
        let gain = merge_gain(&g, &lib, &compat, &t, &[a], &[s]).unwrap();
        // One ALU (97), the cheapest {+,−} module, replaces an adder and
        // a subtractor (87 each); the pair shares one operand, `y`.
        assert_eq!(gain, 10 * (87 + 87 - 97) + 1);
    }

    #[test]
    fn sharing_beats_one_unit_per_op() {
        let lib = paper_library();
        let g = benchmarks::elliptic();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        let no_sharing: u64 = g
            .nodes()
            .iter()
            .map(|n| {
                u64::from(
                    lib.module(lib.select(n.kind(), SelectionPolicy::Fastest).unwrap())
                        .area(),
                )
            })
            .sum();
        assert!(
            b.area(&lib) < no_sharing,
            "sharing {} !< dedicated {no_sharing}",
            b.area(&lib)
        );
    }

    #[test]
    fn serialized_chain_folds_to_one_adder() {
        // add -> add -> add chain: all dependence-ordered, one unit.
        let mut builder = pchls_cdfg::CdfgBuilder::new("chain");
        let x = builder.input("x");
        let y = builder.input("y");
        let a1 = builder.add(x, y);
        let a2 = builder.add(a1, y);
        let a3 = builder.add(a2, y);
        builder.output("o", a3);
        let g = builder.finish().unwrap();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        let adders = b
            .instances()
            .iter()
            .filter(|i| lib.module(i.module()).implements(OpKind::Add))
            .count();
        assert_eq!(adders, 1);
        assert_eq!(b.instance_of(a1), b.instance_of(a2));
        assert_eq!(b.instance_of(a2), b.instance_of(a3));
    }

    #[test]
    fn hal_asap_needs_four_parallel_multipliers() {
        // Under the fastest-module ASAP schedule the four first-level
        // multiplications run concurrently, so sharing cannot go below 4.
        let lib = paper_library();
        let g = benchmarks::hal();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        let mults = b
            .instances()
            .iter()
            .filter(|i| lib.module(i.module()).implements(OpKind::Mul))
            .count();
        assert_eq!(mults, 4);
    }

    #[test]
    fn io_modules_are_shared_too() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        // Serialize the inputs over 6 cycles so one input unit suffices.
        let mut starts = asap(&g, &t).starts().to_vec();
        for (cycle, n) in g.inputs().enumerate() {
            starts[n.id().index()] = cycle as u32;
        }
        // Shift everything else by 6 to stay valid.
        for id in g.node_ids() {
            if g.node(id).kind() != OpKind::Input {
                starts[id.index()] += 6;
            }
        }
        let s = Schedule::new(starts);
        s.validate(&g, &t, None, None).unwrap();
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        let inputs = b
            .instances()
            .iter()
            .filter(|i| lib.module(i.module()).implements(OpKind::Input))
            .count();
        assert_eq!(inputs, 1);
    }
}

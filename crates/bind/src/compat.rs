//! The compatibility graph of a fixed schedule, and the one
//! merge-scoring weight, [`INTERCONNECT_WEIGHT`].

use pchls_cdfg::{Cdfg, NodeId};
use pchls_fulib::{ModuleId, ModuleLibrary};
use pchls_sched::{Schedule, TimingMap};

/// Weight of each shared operand source / result consumer (a proxy for a
/// multiplexer input saved) in a merge's score. Scores are integers in
/// tenths of an area unit: a score is ten times the functional-unit area
/// a merge saves plus this weight times its shared connections, so a
/// connection weighs a tenth of an area unit. The paper's objective is
/// "minimum area … using least interconnect": module areas are whole
/// numbers, so a merge saving one area unit more outranks any merge
/// sharing fewer than ten connections more, and interconnect in effect
/// only breaks ties between merges that save the same area.
pub const INTERCONNECT_WEIGHT: i64 = 1;

/// The compatibility graph over the operations of one CDFG under one
/// fixed schedule.
///
/// Two operations are *compatible* (may share a functional unit) when
///
/// 1. some library module implements both kinds with exactly the delay
///    and power each operation is scheduled with, **and**
/// 2. their execution intervals `[start, finish)` are disjoint.
///
/// The schedule must meet every dependence (an op starts no earlier
/// than each operand finishes), as `asap`, `list_schedule` and
/// `two_step` schedules do. Then two dependence-ordered ops always have
/// disjoint intervals, so the interval test alone admits every
/// serializable pair.
#[derive(Debug, Clone)]
pub struct CompatibilityGraph {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl CompatibilityGraph {
    /// Builds the compatibility graph. See the type-level documentation
    /// for the compatibility rule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule or timing does not cover the graph.
    #[must_use]
    pub fn build(
        graph: &Cdfg,
        library: &ModuleLibrary,
        schedule: &Schedule,
        timing: &TimingMap,
    ) -> CompatibilityGraph {
        let n = graph.len();
        assert_eq!(schedule.len(), n, "the schedule covers the graph");
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];

        for i in 0..n {
            let a = NodeId::new(i as u32);
            for j in (i + 1)..n {
                let b = NodeId::new(j as u32);
                if cheapest_common_module(graph, library, timing, &[a, b]).is_none() {
                    continue;
                }
                let disjoint = schedule.finish(a, timing) <= schedule.start(b)
                    || schedule.finish(b, timing) <= schedule.start(a);
                if !disjoint {
                    continue;
                }
                bits[i * words + j / 64] |= 1 << (j % 64);
                bits[j * words + i / 64] |= 1 << (i % 64);
            }
        }
        CompatibilityGraph { n, words, bits }
    }

    /// Number of operations covered.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Whether `a` and `b` may share a functional unit.
    #[must_use]
    pub fn compatible(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let (i, j) = (a.index(), b.index());
        self.bits[i * self.words + j / 64] & (1 << (j % 64)) != 0
    }
}

/// The cheapest module implementing every op in `ops` with each op's
/// scheduled delay and power.
pub(crate) fn cheapest_common_module(
    graph: &Cdfg,
    library: &ModuleLibrary,
    timing: &TimingMap,
    ops: &[NodeId],
) -> Option<ModuleId> {
    library
        .ids()
        .filter(|&mid| {
            let m = library.module(mid);
            ops.iter().all(|&op| {
                let t = timing.of(op);
                m.implements(graph.node(op).kind())
                    && m.latency() == t.delay
                    && m.power() == t.power
            })
        })
        .min_by_key(|&mid| library.module(mid).area())
}

/// Shared operand producers plus shared result consumers — each saves a
/// multiplexer input when the two operations share a unit.
pub(crate) fn shared_connections(graph: &Cdfg, a: NodeId, b: NodeId) -> usize {
    let count_common = |xs: &[NodeId], ys: &[NodeId]| xs.iter().filter(|x| ys.contains(x)).count();
    count_common(graph.operands(a), graph.operands(b))
        + count_common(graph.successors(a), graph.successors(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks::hal;
    use pchls_cdfg::{CdfgBuilder, OpKind};
    use pchls_fulib::{paper_library, SelectionPolicy};
    use pchls_sched::asap;

    fn fixed_compat(g: &Cdfg) -> (CompatibilityGraph, TimingMap) {
        let lib = paper_library();
        let t = TimingMap::from_policy(g, &lib, SelectionPolicy::Fastest);
        let s = asap(g, &t);
        let c = CompatibilityGraph::build(g, &lib, &s, &t);
        (c, t)
    }

    #[test]
    fn dependence_ordered_same_kind_ops_are_compatible() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a1 = b.add(x, y);
        let a2 = b.add(a1, y);
        b.output("o", a2);
        let g = b.finish().unwrap();
        let (c, _) = fixed_compat(&g);
        assert!(c.compatible(a1, a2));
    }

    #[test]
    fn concurrent_ops_with_fixed_schedule_are_incompatible() {
        // Two independent adds, both scheduled at cycle 1 by asap.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a1 = b.add(x, y);
        let a2 = b.add(y, x);
        b.output("o1", a1);
        b.output("o2", a2);
        let g = b.finish().unwrap();
        let (c, _) = fixed_compat(&g);
        assert!(!c.compatible(a1, a2));
    }

    #[test]
    fn different_uncombinable_kinds_are_incompatible() {
        // No module implements both * and + in the paper library.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        let m = b.mul(a, y);
        b.output("o", m);
        let g = b.finish().unwrap();
        let (c, _) = fixed_compat(&g);
        assert!(!c.compatible(a, m));
    }

    #[test]
    fn alu_makes_add_and_sub_compatible() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        let s = b.sub(a, y);
        b.output("o", s);
        let g = b.finish().unwrap();
        let (c, _) = fixed_compat(&g);
        assert!(c.compatible(a, s));
    }

    #[test]
    fn serial_and_parallel_multiplications_cannot_share() {
        // Ops scheduled with different multiplier timings must not merge.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let m1 = b.mul(x, y);
        let m2 = b.mul(m1, y);
        b.output("o", m2);
        let g = b.finish().unwrap();
        let lib = paper_library();
        let mut t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        // m2 uses the serial multiplier instead.
        t.set(
            m2,
            pchls_sched::OpTiming {
                delay: 4,
                power: 2_700,
            },
        );
        let s = asap(&g, &t);
        let c = CompatibilityGraph::build(&g, &lib, &s, &t);
        assert!(!c.compatible(m1, m2));
    }

    #[test]
    fn clique_check_on_hal_multiplications() {
        let g = hal();
        let (c, _) = fixed_compat(&g);
        // Chained multiplications form a clique; the four concurrent
        // first-level ones do not.
        let muls: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| n.kind() == OpKind::Mul)
            .map(|n| n.id())
            .collect();
        let is_clique = |ops: &[NodeId]| {
            ops.iter()
                .enumerate()
                .all(|(i, &a)| ops[i + 1..].iter().all(|&b| c.compatible(a, b)))
        };
        assert!(!is_clique(&muls));
        // t2 -> t3 chain is a 2-clique.
        assert!(is_clique(&[muls[1], muls[2]]));
    }
}

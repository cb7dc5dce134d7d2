//! Graph analyses: node sets and critical path.

use crate::graph::{Cdfg, NodeId};

/// A fixed-capacity set of [`NodeId`]s stored as packed `u64` words —
/// the word-parallel replacement for a `Vec<bool>` membership array.
///
/// Trailing bits beyond `len` are kept zero as an invariant, so whole-word
/// operations (`count`, intersection walks) never see phantom members.
///
/// # Example
///
/// ```
/// use pchls_cdfg::{NodeId, NodeSet};
///
/// let mut s = NodeSet::full(70);
/// s.remove(NodeId::new(3));
/// assert_eq!(s.count(), 69);
/// assert!(!s.contains(NodeId::new(3)));
/// assert!(s.contains(NodeId::new(69)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    len: usize,
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set over a universe of `len` node ids.
    #[must_use]
    pub fn empty(len: usize) -> NodeSet {
        NodeSet {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// The full set `{0, …, len-1}`.
    #[must_use]
    pub fn full(len: usize) -> NodeSet {
        let mut s = NodeSet::empty(len);
        s.fill();
        s
    }

    /// Whether `id` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        let i = id.index();
        assert!(i < self.len, "foreign id");
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn insert(&mut self, id: NodeId) {
        let i = id.index();
        assert!(i < self.len, "foreign id");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn remove(&mut self, id: NodeId) {
        let i = id.index();
        assert!(i < self.len, "foreign id");
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every id in the universe.
    pub fn fill(&mut self) {
        self.words.fill(!0u64);
        let tail = self.len % 64;
        if tail != 0 {
            *self.words.last_mut().expect("len % 64 != 0 implies words") = (1u64 << tail) - 1;
        }
    }

    /// Number of members (popcount over the words).
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed word row: bit `i % 64` of word `i / 64` for id `i`.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(NodeId::new((w * 64) as u32 + b))
            })
        })
    }
}

/// Longest-path (critical path) analysis under a per-node delay function.
///
/// `level_from_source(v)` is the earliest cycle `v` could start if every
/// operation ran as soon as its operands finished (i.e. the unconstrained
/// ASAP start); `length` is the minimum latency of the whole graph.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    start: Vec<u32>,
    length: u32,
}

impl CriticalPath {
    /// Computes longest paths where node `v` contributes `delay(v)` cycles.
    ///
    /// `delay` must be total over the graph's nodes and every delay must be
    /// at least 1 for the result to be meaningful as a schedule bound.
    #[must_use]
    pub fn new(graph: &Cdfg, mut delay: impl FnMut(NodeId) -> u32) -> CriticalPath {
        let mut start = vec![0u32; graph.len()];
        let mut length = 0;
        for &id in graph.topological() {
            let s = graph
                .operands(id)
                .iter()
                .map(|&p| start[p.index()] + delay(p))
                .max()
                .unwrap_or(0);
            start[id.index()] = s;
            length = length.max(s + delay(id));
        }
        CriticalPath { start, length }
    }

    /// Earliest possible start cycle of `id` (unconstrained ASAP).
    #[must_use]
    pub fn earliest_start(&self, id: NodeId) -> u32 {
        self.start[id.index()]
    }

    /// Minimum achievable latency of the graph in cycles.
    #[must_use]
    pub fn length(&self) -> u32 {
        self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdfgBuilder, OpKind};

    fn sample() -> Cdfg {
        // x y      (inputs, delay 1)
        //  \ /
        //   a      add
        //   |
        //   m      mul
        //   |
        //   o      output
        let mut b = CdfgBuilder::new("chain");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        let m = b.mul(a, y);
        b.output("o", m);
        b.finish().unwrap()
    }

    fn unit_delay(_: NodeId) -> u32 {
        1
    }

    #[test]
    fn critical_path_unit_delays() {
        let g = sample();
        let cp = CriticalPath::new(&g, unit_delay);
        // input(1) + add(1) + mul(1) + output(1) = 4
        assert_eq!(cp.length(), 4);
        let add = g.nodes().iter().find(|n| n.kind() == OpKind::Add).unwrap();
        assert_eq!(cp.earliest_start(add.id()), 1);
    }

    #[test]
    fn critical_path_weighted_mul() {
        let g = sample();
        let cp = CriticalPath::new(&g, |id| match g.node(id).kind() {
            OpKind::Mul => 4,
            _ => 1,
        });
        // 1 + 1 + 4 + 1 = 7
        assert_eq!(cp.length(), 7);
    }

    #[test]
    fn reachability_agrees_with_dfs_on_wide_graph() {
        // A universe wider than 64 nodes exercises the multi-word path.
        let mut b = CdfgBuilder::new("wide");
        let x = b.input("x");
        let y = b.input("y");
        let mut layer: Vec<NodeId> = (0..80).map(|_| b.add(x, y)).collect();
        for _ in 0..3 {
            layer = layer
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        b.add(c[0], c[1])
                    } else {
                        b.add(c[0], y)
                    }
                })
                .collect();
        }
        b.output("o", layer[0]);
        let g = b.finish().unwrap();

        // DFS-based oracle.
        let reaches_dfs = |from: NodeId, to: NodeId| -> bool {
            let mut stack = vec![from];
            let mut seen = vec![false; g.len()];
            while let Some(v) = stack.pop() {
                for &s in g.successors(v) {
                    if s == to {
                        return true;
                    }
                    if !seen[s.index()] {
                        seen[s.index()] = true;
                        stack.push(s);
                    }
                }
            }
            false
        };
        // Iteration enumerates exactly the members, in ascending order:
        // here each node's ancestors.
        for c in g.node_ids() {
            let expected: Vec<NodeId> = g.node_ids().filter(|&a| reaches_dfs(a, c)).collect();
            let mut ancestors = NodeSet::empty(g.len());
            for &a in &expected {
                ancestors.insert(a);
            }
            assert_eq!(ancestors.count(), expected.len());
            assert_eq!(ancestors.iter().collect::<Vec<_>>(), expected);
        }
    }
}

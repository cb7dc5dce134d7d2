//! Graph analyses: reachability (transitive closure) and critical path.

use crate::graph::{Cdfg, NodeId};

/// Dense transitive-closure over a [`Cdfg`], answering ancestor /
/// descendant queries in O(1) after O(V·E/64) construction.
///
/// Binding uses this heavily: two dependence-ordered operations can always
/// share a functional unit because their execution intervals can never
/// overlap.
///
/// # Example
///
/// ```
/// use pchls_cdfg::{CdfgBuilder, Reachability};
///
/// # fn main() -> Result<(), pchls_cdfg::CdfgError> {
/// let mut b = CdfgBuilder::new("chain");
/// let x = b.input("x");
/// let y = b.input("y");
/// let a = b.add(x, y);
/// let m = b.mul(a, y);
/// b.output("o", m);
/// let g = b.finish()?;
/// let r = Reachability::new(&g);
/// assert!(r.reaches(x, m));
/// assert!(!r.reaches(m, x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachability {
    n: usize,
    words: usize,
    /// `desc[i]` = bitset of nodes reachable from `i` (excluding `i`).
    desc: Vec<u64>,
    /// `anc[i]` = bitset of nodes that reach `i` (excluding `i`) — the
    /// transpose of `desc`, precomputed so a fixed operation's full
    /// dependence cone (the set force-directed scheduling must refit) is
    /// two word-slices instead of two graph traversals.
    anc: Vec<u64>,
}

impl Reachability {
    /// Computes the transitive closure of `graph`.
    #[must_use]
    pub fn new(graph: &Cdfg) -> Reachability {
        let n = graph.len();
        let words = n.div_ceil(64);
        // `desc[i] |= desc[s] | {s}` for each edge i→s, successors first.
        let mut desc = vec![0u64; n * words];
        for &id in graph.topological().iter().rev() {
            let i = id.index();
            for &s in graph.successors(id) {
                let si = s.index();
                union_row(&mut desc, words, i, si);
                desc[i * words + si / 64] |= 1u64 << (si % 64);
            }
        }
        // `anc[s] |= anc[i] | {i}` for each edge i→s, predecessors first.
        let mut anc = vec![0u64; n * words];
        for &id in graph.topological() {
            let i = id.index();
            for &s in graph.successors(id) {
                let si = s.index();
                union_row(&mut anc, words, si, i);
                anc[si * words + i / 64] |= 1u64 << (i % 64);
            }
        }
        Reachability {
            n,
            words,
            desc,
            anc,
        }
    }

    /// Number of `u64` words per node bitset row.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.words
    }

    /// Number of nodes in the analyzed graph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Bitset of the nodes reachable from `id` (excluding `id`), one bit
    /// per node index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the analyzed graph.
    #[must_use]
    pub fn descendant_words(&self, id: NodeId) -> &[u64] {
        assert!(id.index() < self.n, "foreign id");
        &self.desc[id.index() * self.words..(id.index() + 1) * self.words]
    }

    /// Bitset of the nodes that reach `id` (excluding `id`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the analyzed graph.
    #[must_use]
    pub fn ancestor_words(&self, id: NodeId) -> &[u64] {
        assert!(id.index() < self.n, "foreign id");
        &self.anc[id.index() * self.words..(id.index() + 1) * self.words]
    }

    /// Whether node index `index` is set in a bitset row returned by
    /// [`Reachability::descendant_words`] /
    /// [`Reachability::ancestor_words`].
    #[must_use]
    pub fn bit(row: &[u64], index: usize) -> bool {
        row[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Iterates the node ids set in a bitset row, in ascending order.
    pub fn iter_row(row: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
        row.iter().enumerate().flat_map(|(w, &bits)| {
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

    /// Whether a directed path from `from` to `to` exists (`from != to`
    /// required for a `true` result; a node does not reach itself).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for the analyzed graph.
    #[must_use]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        assert!(from.index() < self.n && to.index() < self.n, "foreign id");
        let ti = to.index();
        self.desc[from.index() * self.words + ti / 64] & (1u64 << (ti % 64)) != 0
    }

    /// Whether `a` and `b` are dependence-ordered in either direction.
    #[must_use]
    pub fn ordered(&self, a: NodeId, b: NodeId) -> bool {
        self.reaches(a, b) || self.reaches(b, a)
    }

    /// Number of descendants of `id`.
    #[must_use]
    pub fn descendant_count(&self, id: NodeId) -> usize {
        let i = id.index();
        self.desc[i * self.words..(i + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Lazily computed, shareable analysis handles for one [`Cdfg`].
///
/// Derived analyses like [`Reachability`] are pure functions of the
/// graph, yet historically every pass (synthesis kernel, force-directed
/// scheduling, clique partitioning) rebuilt its own copy. A cache
/// computes each analysis at most once and hands out shared references,
/// so a compile-once layer (e.g. `pchls-core`'s `Engine::compile`) can
/// reuse them across thousands of constraint points. Thread-safe: the
/// first caller on any thread computes, everyone else borrows.
///
/// # Example
///
/// ```
/// use pchls_cdfg::{benchmarks::hal, AnalysisCache};
///
/// let g = hal();
/// let cache = AnalysisCache::new();
/// let r1 = cache.reachability(&g) as *const _;
/// let r2 = cache.reachability(&g) as *const _;
/// assert_eq!(r1, r2, "computed once, shared after");
/// ```
#[derive(Debug, Default)]
pub struct AnalysisCache {
    reach: std::sync::OnceLock<Reachability>,
}

impl AnalysisCache {
    /// An empty cache; analyses are computed on first request.
    #[must_use]
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The transitive closure of `graph`, computed on first call and
    /// shared afterwards. Callers must pass the same graph every time
    /// (the cache is per-graph by construction wherever it is embedded).
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different node count than the graph the
    /// closure was first computed for — the cheap detectable slice of
    /// "same graph every time" (same-size different graphs cannot be
    /// told apart without hashing and stay the caller's contract).
    pub fn reachability(&self, graph: &Cdfg) -> &Reachability {
        let reach = self.reach.get_or_init(|| Reachability::new(graph));
        assert_eq!(
            reach.node_count(),
            graph.len(),
            "AnalysisCache queried with a different graph than it was built for"
        );
        reach
    }
}

/// A fixed-capacity set of [`NodeId`]s stored as packed `u64` words —
/// the word-parallel replacement for a `Vec<bool>` membership array.
///
/// The payoff is not `contains` (a bool-vec answers that in O(1) too)
/// but the *row view*: [`NodeSet::words`] exposes the same packed layout
/// as [`Reachability::descendant_words`], so set intersections ("unbound
/// ∧ kind-compatible ∧ id > u") collapse to a handful of `AND`s walked
/// with `trailing_zeros` — see [`iter_and_above`].
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

    /// Size of the universe (not the member count — see [`NodeSet::count`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty (a zero-node graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The packed word row — same layout as the [`Reachability`] rows, so
    /// the two can be `AND`ed word-for-word.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        Reachability::iter_row(&self.words)
    }
}

/// Walks the ids set in `a ∧ b` that are strictly greater than `above`,
/// in ascending order — the kernel's pair-enumeration primitive
/// ("unbound ∧ compatible-with-`u`'s-kind ∧ id > u") as two word `AND`s
/// plus a `trailing_zeros` loop, touching only surviving words.
///
/// Both rows must use the packed layout of [`NodeSet::words`] /
/// [`Reachability::descendant_words`] and be at least
/// `(above + 1).div_ceil(64)` words long; shorter of the two rows bounds
/// the walk.
pub fn iter_and_above<'a>(
    a: &'a [u64],
    b: &'a [u64],
    above: usize,
) -> impl Iterator<Item = NodeId> + 'a {
    let start = (above + 1) / 64;
    // Bits ≤ `above` in the first surviving word are masked off; later
    // words are taken whole.
    let first_mask = !0u64 << ((above + 1) % 64);
    let words = a.len().min(b.len());
    (start..words).flat_map(move |w| {
        let mut rest = a[w] & b[w];
        if w == start && !(above + 1).is_multiple_of(64) {
            rest &= first_mask;
        }
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            Some(NodeId::new((w * 64) as u32 + bit))
        })
    })
}

/// `rows[dst] |= rows[src]`, borrowing both rows disjointly.
fn union_row(rows: &mut [u64], words: usize, dst: usize, src: usize) {
    debug_assert_ne!(dst, src, "a DAG has no self edges");
    let (lo, hi) = if dst < src { (dst, src) } else { (src, dst) };
    let (a, b) = rows.split_at_mut(hi * words);
    let (d, s) = if dst < src {
        (&mut a[lo * words..lo * words + words], &b[..words])
    } else {
        (&mut b[..words], &a[lo * words..lo * words + words])
    };
    for w in 0..words {
        d[w] |= s[w];
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
    fn reachability_chain() {
        let g = sample();
        let r = Reachability::new(&g);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (x, y, a, m, o) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        assert!(r.reaches(x, o));
        assert!(r.reaches(y, m));
        assert!(r.reaches(a, m));
        assert!(!r.reaches(m, a));
        assert!(!r.reaches(x, y));
        assert!(r.ordered(a, o));
        assert!(!r.ordered(x, y));
    }

    #[test]
    fn node_does_not_reach_itself() {
        let g = sample();
        let r = Reachability::new(&g);
        for id in g.node_ids() {
            assert!(!r.reaches(id, id));
        }
    }

    #[test]
    fn descendant_counts() {
        let g = sample();
        let r = Reachability::new(&g);
        let ids: Vec<NodeId> = g.node_ids().collect();
        // x reaches a, m, o
        assert_eq!(r.descendant_count(ids[0]), 3);
        // y reaches a, m, o
        assert_eq!(r.descendant_count(ids[1]), 3);
        // o reaches nothing
        assert_eq!(r.descendant_count(ids[4]), 0);
    }

    #[test]
    fn reachability_agrees_with_dfs_on_wide_graph() {
        // A graph wider than 64 nodes exercises the multi-word bitset path.
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
        let r = Reachability::new(&g);

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
        for a in g.node_ids().step_by(7) {
            for c in g.node_ids().step_by(5) {
                assert_eq!(r.reaches(a, c), reaches_dfs(a, c), "{a} -> {c}");
            }
        }

        // The ancestor bitsets are the exact transpose of the descendant
        // bitsets, and row iteration enumerates exactly the set bits.
        for a in g.node_ids() {
            for c in g.node_ids() {
                assert_eq!(
                    r.reaches(a, c),
                    Reachability::bit(r.descendant_words(a), c.index())
                );
                assert_eq!(
                    r.reaches(a, c),
                    Reachability::bit(r.ancestor_words(c), a.index())
                );
            }
            let iterated: Vec<NodeId> = Reachability::iter_row(r.descendant_words(a)).collect();
            let expected: Vec<NodeId> = g.node_ids().filter(|&c| r.reaches(a, c)).collect();
            assert_eq!(iterated, expected);
        }
    }
}

//! Content-addressed fingerprinting of CDFGs.
//!
//! [`graph_fingerprint`] maps a [`Cdfg`] to a stable 64-bit hash of the
//! graph *as spelled*: its name and, per node in id order, its kind, its
//! io label and its port-ordered operand ids. The value is the same on
//! every run, every platform and every build (no
//! [`std::collections::hash_map::RandomState`] seeding), so a compile
//! cache, a result tier or an on-disk store can address what it keeps
//! by content rather than by name or by pointer.
//!
//! The hash keeps node ids because synthesis answers depend on them: the
//! kernel breaks ties by id and serializes a pair merge in rank order,
//! which follows the ids. Two spellings of one dataflow whose ids differ
//! (a relabelling) can get different designs, so they must not share a
//! key. What does not change an answer stays out of the hash: the order
//! the edges were added in, and compute-op labels (generated from the
//! id by [`CdfgBuilder::op`](crate::CdfgBuilder::op)). A graph and its
//! [`write_cdfg`](crate::write_cdfg) text therefore share a key.
//!
//! The hash is *not* a proof of equality: different graphs can collide
//! (the 64-bit birthday bound). A caller that shares a compiled graph on
//! a fingerprint match verifies it with a full equality check, exactly
//! like a hash map verifies keys within a bucket.
//!
//! [`diff`](crate::diff) matches nodes by a different, id-free hash:
//! each node's dependence cone in both directions (`canonical_hashes`).
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::{graph_fingerprint, parse_cdfg, write_cdfg, CdfgBuilder, OpKind};
//!
//! # fn main() -> Result<(), pchls_cdfg::CdfgError> {
//! let mut b = CdfgBuilder::new("g");
//! let x = b.input("x");
//! let y = b.input("y");
//! let s = b.op(OpKind::Add, &[x, y]);
//! b.output("o", s);
//! let first = b.finish()?;
//!
//! // The same spelling read back from text: the same key.
//! let text = parse_cdfg(&write_cdfg(&first))?;
//! assert_eq!(graph_fingerprint(&text), graph_fingerprint(&first));
//!
//! // The same dataflow with the inputs' ids swapped: another key.
//! let mut b = CdfgBuilder::new("g");
//! let y = b.input("y");
//! let x = b.input("x");
//! let s = b.op(OpKind::Add, &[x, y]);
//! b.output("o", s);
//! let relabelled = b.finish()?;
//! assert_ne!(graph_fingerprint(&relabelled), graph_fingerprint(&first));
//! # Ok(())
//! # }
//! ```

use crate::graph::Cdfg;

/// An incremental, order-sensitive stable hasher built from the same
/// primitives as [`graph_fingerprint`]: SplitMix64 avalanche over an
/// order-sensitive fold, FNV-1a for strings. Unlike
/// [`std::hash::DefaultHasher`] the result is identical on every run,
/// platform and build, so it is safe to persist (the on-disk result
/// store keys records by hashes produced here).
///
/// # Example
///
/// ```
/// use pchls_cdfg::StableHasher;
///
/// let mut h = StableHasher::new(0x1234);
/// h.write_u64(7);
/// h.write_str("hal");
/// let a = h.finish();
/// assert_eq!(a, {
///     let mut h = StableHasher::new(0x1234);
///     h.write_u64(7);
///     h.write_str("hal");
///     h.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher seeded with a caller-chosen domain tag, so hashes of
    /// different kinds of data never collide by construction.
    #[must_use]
    pub fn new(domain: u64) -> StableHasher {
        StableHasher { state: mix(domain) }
    }

    /// Folds one word into the hash (order-sensitive).
    pub fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state, word);
    }

    /// Folds a string into the hash (FNV-1a over the bytes, then
    /// avalanched, then folded).
    pub fn write_str(&mut self, s: &str) {
        self.state = fold(self.state, hash_str(s));
    }

    /// The accumulated 64-bit hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix(self.state)
    }
}

/// SplitMix64 finalizer: the avalanche core of the fingerprint. Public
/// within the crate so tests can build expected values by hand.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-sensitive combination of a running hash with one more word.
fn fold(acc: u64, word: u64) -> u64 {
    mix(acc ^ mix(word))
}

/// Stable hash of a byte string (FNV-1a over the bytes, then avalanched).
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

/// A stable 64-bit fingerprint of `graph` as spelled.
///
/// Guarantees (see the module docs for why):
///
/// * **deterministic** across processes, platforms and builds;
/// * **spelling-exact**: the graph name and, per node in id order, its
///   kind, io label and port-ordered operand ids feed the hash, so a
///   relabelling of the node ids or any structural mutation changes the
///   fingerprint with overwhelming probability;
/// * **edge-order-insensitive**: the order the edges were added in, and
///   compute-op labels, do not feed the hash.
///
/// Equal fingerprints do **not** prove equal graphs: follow a match
/// with a full equality verify before sharing anything derived from the
/// graph.
#[must_use]
pub fn graph_fingerprint(graph: &Cdfg) -> u64 {
    let mut h = StableHasher::new(0x7063_686c_732d_6670);
    h.write_str(graph.name());
    h.write_u64(graph.len() as u64);
    // A kind fixes its arity, so the words below parse one way.
    for node in graph.nodes() {
        h.write_u64(node.kind().index() as u64);
        if node.kind().is_io() {
            h.write_str(node.label());
        }
        for &src in graph.operands(node.id()) {
            h.write_u64(src.index() as u64);
        }
    }
    h.finish()
}

/// The canonical per-node hash [`diff`](crate::diff) matches on: a node
/// is identified by its whole dependence cone in both directions,
/// independently of its [`NodeId`](crate::NodeId).
///
/// 1. A **forward** pass in topological order hashes each node from its
///    kind, its io label (compute-op labels embed the id and are
///    excluded) and the port-ordered forward hashes of its operands.
/// 2. A **backward** pass in reverse topological order hashes each node
///    from its kind and the *sorted multiset* of `(successor hash,
///    operand port)` pairs of its out-edges.
/// 3. The node's canonical hash mixes the two.
pub(crate) fn canonical_hashes(graph: &Cdfg) -> Vec<u64> {
    let n = graph.len();

    // Forward pass: hash(kind, io label, port-ordered operand hashes),
    // in topological order so operand hashes are ready when needed.
    let mut fwd = vec![0u64; n];
    for &id in graph.topological() {
        let node = graph.node(id);
        let mut h = fold(0x66_6f72_7761_7264, node.kind().index() as u64);
        if node.kind().is_io() {
            h = fold(h, hash_str(node.label()));
        }
        for (port, &src) in graph.operands(id).iter().enumerate() {
            h = fold(h, fwd[src.index()]);
            h = fold(h, port as u64);
        }
        fwd[id.index()] = h;
    }

    // Backward pass: hash(kind, io label, sorted multiset of
    // (successor hash, port at the successor)), in reverse topological
    // order. Sorting makes the out-edge combination order-insensitive.
    let mut bwd = vec![0u64; n];
    for &id in graph.topological().iter().rev() {
        let node = graph.node(id);
        let mut h = fold(0x6261_636b_7761_7264, node.kind().index() as u64);
        if node.kind().is_io() {
            h = fold(h, hash_str(node.label()));
        }
        let mut outs: Vec<u64> = graph
            .successors(id)
            .iter()
            .map(|&s| {
                // Recover the operand port(s) this value drives at `s`;
                // one value feeding two ports of one consumer appears
                // once per port in `successors`, and the port multiset
                // below disambiguates which ports.
                bwd[s.index()]
            })
            .zip(ports_at_consumers(graph, id))
            .map(|(sh, port)| fold(fold(0, sh), port as u64))
            .collect();
        outs.sort_unstable();
        for o in outs {
            h = fold(h, o);
        }
        bwd[id.index()] = h;
    }

    (0..n).map(|i| fold(fwd[i], bwd[i])).collect()
}

/// For each entry of `graph.successors(id)` (in order), the operand
/// port of that consumer driven by `id`. When one value feeds several
/// ports of the same consumer, the ports are yielded in ascending
/// order, matching the duplicate successor entries.
fn ports_at_consumers<'g>(graph: &'g Cdfg, id: crate::NodeId) -> impl Iterator<Item = usize> + 'g {
    graph.successors(id).iter().scan(
        std::collections::HashMap::<u32, usize>::new(),
        move |seen, &s| {
            let skip = seen.entry(s.index() as u32).or_insert(0);
            let port = graph
                .operands(s)
                .iter()
                .enumerate()
                .filter(|&(_, &src)| src == id)
                .map(|(p, _)| p)
                .nth(*skip)
                .expect("successor entry implies a driving port");
            *skip += 1;
            Some(port)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{benchmarks, CdfgBuilder, Edge, NodeId, OpKind};

    #[test]
    fn benchmarks_have_distinct_stable_fingerprints() {
        let fps: Vec<u64> = benchmarks::all().iter().map(graph_fingerprint).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "two benchmarks collide");
            }
        }
        // Stability within a process (and across runs by construction:
        // no RandomState anywhere in the pipeline).
        for (g, fp) in benchmarks::all().iter().zip(&fps) {
            assert_eq!(graph_fingerprint(g), *fp);
        }
    }

    #[test]
    fn edge_insertion_order_is_ignored() {
        let g = benchmarks::hal();
        let nodes: Vec<(OpKind, String)> = g
            .nodes()
            .iter()
            .map(|n| (n.kind(), n.label().to_owned()))
            .collect();
        let mut edges = g.edges().to_vec();
        edges.reverse();
        let permuted = Cdfg::from_parts(g.name(), nodes, edges).unwrap();
        assert_ne!(permuted, g, "edge order differs under full equality");
        assert_eq!(graph_fingerprint(&permuted), graph_fingerprint(&g));
    }

    #[test]
    fn node_relabelling_changes_the_fingerprint() {
        // The kernel's answer depends on node ids, so a relabelled
        // spelling of one dataflow must not share its key.
        let g = benchmarks::hal();
        let n = g.len();
        // Reverse the node order (a valid relabeling permutation).
        let perm: Vec<usize> = (0..n).rev().collect();
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let nodes: Vec<(OpKind, String)> = perm
            .iter()
            .map(|&old| {
                let nd = &g.nodes()[old];
                (nd.kind(), nd.label().to_owned())
            })
            .collect();
        let edges: Vec<Edge> = g
            .edges()
            .iter()
            .map(|e| Edge {
                from: NodeId::new(inv[e.from.index()] as u32),
                to: NodeId::new(inv[e.to.index()] as u32),
                port: e.port,
            })
            .collect();
        let permuted = Cdfg::from_parts(g.name(), nodes, edges).unwrap();
        assert_ne!(permuted, g, "node order differs under full equality");
        assert_ne!(graph_fingerprint(&permuted), graph_fingerprint(&g));
        // Its text round trip is the same spelling again.
        let back = crate::parse_cdfg(&crate::write_cdfg(&permuted)).unwrap();
        assert_eq!(graph_fingerprint(&back), graph_fingerprint(&permuted));
    }

    #[test]
    fn structural_mutations_change_the_fingerprint() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        let base = b.finish().unwrap();
        let fp = graph_fingerprint(&base);

        // Different name.
        let mut b = CdfgBuilder::new("h");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // Different kind.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Sub, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // Swapped operand ports on a non-commutative consumer.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[x, a]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // Different io label.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("z");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // One extra (dead) operation.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        let _dead = b.op(OpKind::Sub, &[a, m]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);
    }

    #[test]
    fn compute_labels_do_not_feed_the_hash() {
        // The same structure with hand-picked compute labels must
        // fingerprint identically: labels of compute ops come from the
        // insertion index, and no answer reads them.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        b.output("o", a);
        let auto = b.finish().unwrap();

        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op_named(OpKind::Add, "my_adder", &[x, y]);
        b.output("o", a);
        let named = b.finish().unwrap();

        assert_ne!(auto, named, "labels differ under full equality");
        assert_eq!(graph_fingerprint(&auto), graph_fingerprint(&named));
    }

    #[test]
    fn double_port_fanout_is_distinguished() {
        // v drives both ports of one consumer vs. two different
        // consumers' single ports — the (successor, port) multiset and
        // the edge multiset must tell these apart.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let s = b.op(OpKind::Add, &[x, x]);
        b.output("o", s);
        let both_ports = b.finish().unwrap();

        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.op(OpKind::Add, &[x, y]);
        b.output("o", s);
        let split = b.finish().unwrap();

        assert_ne!(graph_fingerprint(&both_ports), graph_fingerprint(&split));
    }
}

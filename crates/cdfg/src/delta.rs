//! Structural diffing of two CDFGs: [`diff`] matches the nodes of an
//! edited graph against a base graph and reports what changed — the
//! added/removed operations, the rewired region, and the *edit cone*
//! (every node whose dependence cone the edit intersects) as a
//! [`NodeSet`].
//!
//! The cone is the contract incremental replay is built on: a node
//! outside the cone has a bit-for-bit identical ancestor subgraph and
//! descendant subgraph in both graphs (under the node mapping), so any
//! per-node artifact derived purely from those cones — reachability
//! rows, ASAP levels, [`cone_fingerprints`](crate::cone_fingerprints)
//! — can be reused from the base graph without recomputation. The cone
//! is a conservative superset of where such artifacts change: staying
//! outside it is proof of reuse, being inside it is only suspicion of
//! change.
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::{diff, CdfgBuilder, GraphEdit, OpKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CdfgBuilder::new("g");
//! let x = b.input("x");
//! let y = b.input("y");
//! let a = b.add(x, y);
//! b.output("o", a);
//! let base = b.finish()?;
//!
//! let mut edit = GraphEdit::new(&base);
//! edit.add_op(OpKind::Mul, &[a, a])?;
//! let edited = edit.finish()?;
//!
//! let delta = diff(&base, &edited);
//! assert_eq!(delta.added().len(), 1);
//! assert!(delta.removed().is_empty());
//! assert!(!delta.is_identity());
//! assert!(delta.cone_size() > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use crate::analysis::NodeSet;
use crate::fingerprint::canonical_hashes;
use crate::graph::{Cdfg, NodeId};
use crate::op::OpKind;

/// The structural difference between a base graph and an edited graph,
/// produced by [`diff`].
///
/// Node ids of the two graphs are unrelated; the delta carries the
/// matching in both directions plus the derived change sets, all over
/// the *edited* graph's id universe unless noted otherwise.
#[derive(Debug, Clone)]
pub struct GraphDelta {
    base_len: usize,
    edited_len: usize,
    base_to_edited: Vec<Option<NodeId>>,
    edited_to_base: Vec<Option<NodeId>>,
    /// Edited-graph ids with no counterpart in the base, ascending.
    added: Vec<NodeId>,
    /// Base-graph ids with no counterpart in the edited graph, ascending.
    removed: Vec<NodeId>,
    /// Edited-graph nodes whose immediate structure changed: added
    /// nodes, nodes whose operand list differs under the mapping, and
    /// nodes whose out-edge multiset differs under the mapping.
    touched: NodeSet,
    /// Edited-graph nodes whose ancestor-side or descendant-side
    /// structure changed (touched nodes included): descendants of
    /// operand-side edits plus ancestors of out-edge-side edits.
    cone: NodeSet,
    degenerate: bool,
}

impl GraphDelta {
    /// Number of nodes in the base graph.
    #[must_use]
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of nodes in the edited graph.
    #[must_use]
    pub fn edited_len(&self) -> usize {
        self.edited_len
    }

    /// The edited-graph counterpart of base node `id`, if it survived
    /// the edit.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the base graph.
    #[must_use]
    pub fn map_base(&self, id: NodeId) -> Option<NodeId> {
        self.base_to_edited[id.index()]
    }

    /// The base-graph counterpart of edited node `id`, if it existed
    /// before the edit.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the edited graph.
    #[must_use]
    pub fn map_edited(&self, id: NodeId) -> Option<NodeId> {
        self.edited_to_base[id.index()]
    }

    /// Edited-graph ids of operations the edit added, ascending.
    #[must_use]
    pub fn added(&self) -> &[NodeId] {
        &self.added
    }

    /// Base-graph ids of operations the edit removed, ascending.
    #[must_use]
    pub fn removed(&self) -> &[NodeId] {
        &self.removed
    }

    /// Edited-graph nodes whose immediate structure changed (added,
    /// operand list rewired, or out-edge multiset changed).
    #[must_use]
    pub fn touched(&self) -> &NodeSet {
        &self.touched
    }

    /// The edit cone over the edited graph: the touched nodes, the
    /// descendants of every operand-side edit, and the ancestors of
    /// every out-edge-side edit. Nodes outside the cone have an
    /// edge-for-edge identical ancestor subgraph *and* descendant
    /// subgraph in both graphs under the mapping — so reachability
    /// rows, ASAP/ALAP levels and cone fingerprints are provably
    /// unchanged for them.
    #[must_use]
    pub fn cone(&self) -> &NodeSet {
        &self.cone
    }

    /// Number of edited-graph nodes inside the cone.
    #[must_use]
    pub fn cone_size(&self) -> usize {
        self.cone.count()
    }

    /// Whether the two graphs matched node-for-node with nothing
    /// touched: same length, identity mapping, empty cone. (Graph
    /// names are ignored by [`diff`].)
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.base_len == self.edited_len
            && !self.degenerate
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.touched.count() == 0
            && self
                .base_to_edited
                .iter()
                .enumerate()
                .all(|(i, m)| *m == Some(NodeId::new(i as u32)))
    }

    /// Whether the matcher could not produce an id-monotone mapping —
    /// the graphs are too dissimilar (or too symmetric) to diff
    /// reliably. The cone is the full edited graph in that case, so
    /// cone-size thresholds fall back to full recomputation naturally.
    #[must_use]
    pub fn degenerate(&self) -> bool {
        self.degenerate
    }
}

/// Matches the nodes of `edited` against `base` and computes the
/// [`GraphDelta`]: added/removed/rewired operations and the edit cone.
///
/// Matching is structural, not positional: nodes pair up by their
/// canonical dependence-cone hash (the per-node hash underlying
/// [`graph_fingerprint`](crate::graph_fingerprint)) first, then
/// leftovers pair by `(kind, label)` so the directly edited operations
/// still map when their cones changed. Graph names are ignored. The
/// result is exact for the edit APIs in this crate
/// ([`GraphEdit`](crate::GraphEdit)) and best-effort for arbitrary
/// graph pairs: when no id-monotone matching exists the delta is
/// marked [`degenerate`](GraphDelta::degenerate) with a full cone.
#[must_use]
pub fn diff(base: &Cdfg, edited: &Cdfg) -> GraphDelta {
    let canon_b = canonical_hashes(base);
    let canon_e = canonical_hashes(edited);

    // Primary matching key: canonical cone hash + kind + label. Nodes
    // untouched by the edit keep their canonical hash, so this pairs
    // the entire unchanged region. Classes are consumed in ascending
    // id order on both sides, which keeps equal-key ties monotone.
    let mut classes: HashMap<(u64, OpKind, &str), Vec<NodeId>> = HashMap::new();
    for node in edited.nodes().iter().rev() {
        classes
            .entry((canon_e[node.id().index()], node.kind(), node.label()))
            .or_default()
            .push(node.id());
    }

    let mut base_to_edited: Vec<Option<NodeId>> = vec![None; base.len()];
    let mut edited_to_base: Vec<Option<NodeId>> = vec![None; edited.len()];
    for node in base.nodes() {
        let key = (canon_b[node.id().index()], node.kind(), node.label());
        if let Some(class) = classes.get_mut(&key) {
            if let Some(e) = class.pop() {
                base_to_edited[node.id().index()] = Some(e);
                edited_to_base[e.index()] = Some(node.id());
            }
        }
    }

    // Secondary key for the leftovers (their cones changed): kind +
    // label. This recovers the directly edited nodes, whose labels are
    // stable under GraphEdit.
    let mut fallback: HashMap<(OpKind, &str), Vec<NodeId>> = HashMap::new();
    for node in edited.nodes().iter().rev() {
        if edited_to_base[node.id().index()].is_none() {
            fallback
                .entry((node.kind(), node.label()))
                .or_default()
                .push(node.id());
        }
    }
    for node in base.nodes() {
        if base_to_edited[node.id().index()].is_some() {
            continue;
        }
        if let Some(class) = fallback.get_mut(&(node.kind(), node.label())) {
            if let Some(e) = class.pop() {
                base_to_edited[node.id().index()] = Some(e);
                edited_to_base[e.index()] = Some(node.id());
            }
        }
    }

    let removed: Vec<NodeId> = base
        .node_ids()
        .filter(|id| base_to_edited[id.index()].is_none())
        .collect();
    let added: Vec<NodeId> = edited
        .node_ids()
        .filter(|id| edited_to_base[id.index()].is_none())
        .collect();

    // The mapping must be id-monotone for downstream remapping (and is
    // for every GraphEdit-produced pair: surviving ids only ever shift
    // down past removals and new ids append at the end).
    let monotone = base_to_edited
        .iter()
        .flatten()
        .try_fold(None::<NodeId>, |prev, &e| match prev {
            Some(p) if p >= e => None,
            _ => Some(Some(e)),
        })
        .is_some();
    if !monotone {
        return GraphDelta {
            base_len: base.len(),
            edited_len: edited.len(),
            base_to_edited,
            edited_to_base,
            added,
            removed,
            touched: NodeSet::full(edited.len()),
            cone: NodeSet::full(edited.len()),
            degenerate: true,
        };
    }

    // Touched = added ∪ operand-list-changed ∪ out-edge-multiset-changed,
    // all judged under the mapping over the edited graph. Operand-side
    // changes invalidate the *descendant* direction (fwd structure,
    // ASAP, ancestor sets of everything below); out-edge changes
    // invalidate the *ancestor* direction (bwd structure, ALAP,
    // descendant sets of everything above) — tracked separately so the
    // cone closure stays tight.
    let mut touched = NodeSet::empty(edited.len());
    let mut down_seed = vec![false; edited.len()];
    let mut up_seed = vec![false; edited.len()];
    for &id in &added {
        touched.insert(id);
        down_seed[id.index()] = true;
        up_seed[id.index()] = true;
    }
    let mut base_outs: Vec<Vec<(Option<NodeId>, usize)>> = vec![Vec::new(); base.len()];
    for e in base.edges() {
        base_outs[e.from.index()].push((base_to_edited[e.to.index()], e.port));
    }
    let mut edited_outs: Vec<Vec<(Option<NodeId>, usize)>> = vec![Vec::new(); edited.len()];
    for e in edited.edges() {
        edited_outs[e.from.index()].push((Some(e.to), e.port));
    }
    for (b_idx, mapped) in base_to_edited.iter().enumerate() {
        let Some(e_id) = *mapped else { continue };
        let b_id = NodeId::new(b_idx as u32);
        let preds_changed = {
            let bp = base.operands(b_id);
            let ep = edited.operands(e_id);
            bp.len() != ep.len()
                || bp
                    .iter()
                    .zip(ep)
                    .any(|(&bo, &eo)| base_to_edited[bo.index()] != Some(eo))
        };
        let succs_changed = {
            let mut bo = std::mem::take(&mut base_outs[b_idx]);
            let mut eo = std::mem::take(&mut edited_outs[e_id.index()]);
            bo.sort_unstable();
            eo.sort_unstable();
            bo != eo
        };
        let kind_changed = base.node(b_id).kind() != edited.node(e_id).kind();
        if preds_changed || succs_changed || kind_changed {
            touched.insert(e_id);
        }
        if preds_changed || kind_changed {
            down_seed[e_id.index()] = true;
        }
        if succs_changed || kind_changed {
            up_seed[e_id.index()] = true;
        }
    }

    // Cone closure: descendants of operand-side edits (forward pass)
    // and ancestors of out-edge-side edits (reverse pass). A node
    // outside both closures has an edge-for-edge identical ancestor
    // subgraph *and* descendant subgraph under the mapping.
    let mut down = vec![false; edited.len()];
    for &id in edited.topological() {
        down[id.index()] =
            down_seed[id.index()] || edited.operands(id).iter().any(|p| down[p.index()]);
    }
    let mut up = vec![false; edited.len()];
    for &id in edited.topological().iter().rev() {
        up[id.index()] = up_seed[id.index()] || edited.successors(id).iter().any(|s| up[s.index()]);
    }
    let mut cone = NodeSet::empty(edited.len());
    for id in edited.node_ids() {
        if down[id.index()] || up[id.index()] {
            cone.insert(id);
        }
    }

    GraphDelta {
        base_len: base.len(),
        edited_len: edited.len(),
        base_to_edited,
        edited_to_base,
        added,
        removed,
        touched,
        cone,
        degenerate: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Reachability;
    use crate::fingerprint::cone_fingerprints;
    use crate::{benchmarks, CdfgBuilder, GraphEdit};

    fn sample() -> Cdfg {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        let m = b.mul(a, y);
        let s = b.sub(m, a);
        b.output("o", s);
        b.finish().unwrap()
    }

    #[test]
    fn identical_graphs_diff_to_identity() {
        let g = sample();
        let d = diff(&g, &g.clone());
        assert!(d.is_identity());
        assert!(!d.degenerate());
        assert_eq!(d.cone_size(), 0);
        for id in g.node_ids() {
            assert_eq!(d.map_base(id), Some(id));
        }
    }

    #[test]
    fn added_op_is_detected_with_its_cone() {
        let g = sample();
        let a = NodeId::new(2); // the add
        let mut edit = GraphEdit::new(&g);
        let new = edit.add_op(OpKind::Mul, &[a, a]).unwrap();
        let edited = edit.finish().unwrap();
        let d = diff(&g, &edited);
        assert_eq!(d.added(), &[new]);
        assert!(d.removed().is_empty());
        assert!(d.touched().contains(new));
        // The new op and its ancestors are in the cone; x (an ancestor
        // of the add) is in the cone, the untouched mul/sub branch also
        // ancestors... check the output node: it has no touched
        // ancestor or descendant and must be clean.
        assert!(d.cone().contains(new));
        assert!(d.cone().contains(a), "producer of the new op is in cone");
        let out = edited
            .nodes()
            .iter()
            .find(|n| n.kind() == OpKind::Output)
            .unwrap()
            .id();
        assert!(
            !d.cone().contains(out),
            "output is unrelated to the new dead op"
        );
    }

    #[test]
    fn removed_op_touches_its_producers() {
        let g = sample();
        let mut edit = GraphEdit::new(&g);
        // Add a dead op, finish, then remove it again from the edited
        // graph and diff against the *edited* base.
        let a = NodeId::new(2);
        edit.add_op(OpKind::Mul, &[a, a]).unwrap();
        let with_dead = edit.finish().unwrap();
        let mut edit2 = GraphEdit::new(&with_dead);
        edit2.remove_op(NodeId::new(6)).unwrap();
        let without = edit2.finish().unwrap();
        let d = diff(&with_dead, &without);
        assert_eq!(d.removed(), &[NodeId::new(6)]);
        assert!(d.added().is_empty());
        // The add lost an out-edge: it is touched in the edited graph.
        let add_in_edited = d.map_base(a).unwrap();
        assert!(d.touched().contains(add_in_edited));
    }

    #[test]
    fn rewire_touches_consumer_and_both_producers() {
        let g = sample();
        // `sub(m, a)` → `sub(m, y)`.
        let y = NodeId::new(1);
        let a = NodeId::new(2);
        let s = NodeId::new(4);
        let mut edit = GraphEdit::new(&g);
        edit.rewire_edge(s, 1, y).unwrap();
        let edited = edit.finish().unwrap();
        let d = diff(&g, &edited);
        assert!(d.added().is_empty() && d.removed().is_empty());
        let (s_e, a_e, y_e) = (
            d.map_base(s).unwrap(),
            d.map_base(a).unwrap(),
            d.map_base(y).unwrap(),
        );
        assert!(d.touched().contains(s_e), "consumer operand list changed");
        assert!(d.touched().contains(a_e), "old producer lost an out-edge");
        assert!(d.touched().contains(y_e), "new producer gained an out-edge");
    }

    #[test]
    fn cone_fingerprints_stable_outside_cone() {
        let g = benchmarks::hal();
        let reach = Reachability::new(&g);
        let base_fps = cone_fingerprints(&g, &reach);
        // Rewire one edge of some compute node.
        let target = g
            .nodes()
            .iter()
            .find(|n| n.kind() == OpKind::Output)
            .unwrap()
            .id();
        let donor = g
            .nodes()
            .iter()
            .find(|n| n.kind().produces_value() && !g.operands(target).contains(&n.id()))
            .unwrap()
            .id();
        let mut edit = GraphEdit::new(&g);
        edit.rewire_edge(target, 0, donor).unwrap();
        let edited = edit.finish().unwrap();
        let d = diff(&g, &edited);
        let edited_fps = cone_fingerprints(&edited, &Reachability::new(&edited));
        let mut changed_inside = 0;
        for id in edited.node_ids() {
            let Some(b) = d.map_edited(id) else { continue };
            if !d.cone().contains(id) {
                assert_eq!(
                    edited_fps[id.index()],
                    base_fps[b.index()],
                    "cone fingerprint changed outside the edit cone at {id}"
                );
            } else if edited_fps[id.index()] != base_fps[b.index()] {
                changed_inside += 1;
            }
        }
        assert!(changed_inside > 0, "the edit changed something in-cone");
    }

    #[test]
    fn unrelated_graphs_are_degenerate_or_fully_coned() {
        let a = benchmarks::hal();
        let b = benchmarks::cosine();
        let d = diff(&a, &b);
        // Whatever the matcher salvaged, no clean reuse may escape:
        // every mapped node must be in the cone or the delta degenerate.
        if !d.degenerate() {
            for id in b.node_ids() {
                if d.map_edited(id).is_some() && !d.cone().contains(id) {
                    // Clean survivors must genuinely have identical
                    // cones — spot-check via cone fingerprints.
                    let fa = cone_fingerprints(&a, &Reachability::new(&a));
                    let fb = cone_fingerprints(&b, &Reachability::new(&b));
                    assert_eq!(fb[id.index()], fa[d.map_edited(id).unwrap().index()]);
                }
            }
        }
    }
}

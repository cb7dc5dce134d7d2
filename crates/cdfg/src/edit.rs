//! Validated, incremental editing of an existing [`Cdfg`].
//!
//! [`GraphEdit`] wraps a finished graph in a mutable working copy with
//! three primitive edits — [`add_op`](GraphEdit::add_op),
//! [`remove_op`](GraphEdit::remove_op) and
//! [`rewire_edge`](GraphEdit::rewire_edge) — each validated eagerly
//! with a typed [`EditError`], so edit workloads and property
//! tests can build graph deltas without hand-rolling node and edge
//! vectors. Node ids stay stable for the whole edit session (removals
//! tombstone); [`finish`](GraphEdit::finish) compacts the survivors in
//! id order, which keeps the base→edited id mapping monotone — exactly
//! what [`diff`](crate::diff) needs to recover the delta.
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::{CdfgBuilder, GraphEdit, OpKind};
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
//! let m = edit.add_op(OpKind::Mul, &[a, a])?;
//! edit.rewire_edge(m, 1, x)?;
//! let edited = edit.finish()?;
//! assert_eq!(edited.len(), base.len() + 1);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::error::CdfgError;
use crate::graph::{Cdfg, Edge, NodeId};
use crate::op::OpKind;

/// Errors produced by the eager validation in [`GraphEdit`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EditError {
    /// The node id does not exist in the graph being edited.
    UnknownNode(NodeId),
    /// The node was already removed in this edit session.
    RemovedNode(NodeId),
    /// The node still drives operands of other nodes and cannot be
    /// removed.
    HasConsumers(NodeId),
    /// Only compute operations can be added through the edit API
    /// (inputs/outputs carry interface contracts).
    NotCompute(OpKind),
    /// The node produces no value and cannot drive an operand.
    SourceProducesNoValue(NodeId),
    /// The consumer has no operand port with that index.
    NoSuchPort {
        /// The consumer node.
        node: NodeId,
        /// The out-of-range port.
        port: usize,
    },
    /// The rewire would create a dependence cycle.
    WouldCycle {
        /// The proposed producer.
        from: NodeId,
        /// The consumer whose operand was being rewired.
        to: NodeId,
    },
    /// Wrong operand count for the kind being added.
    Arity {
        /// Operands the kind requires.
        expected: usize,
        /// Operands supplied.
        found: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownNode(n) => write!(f, "node {n} does not exist in the graph"),
            EditError::RemovedNode(n) => write!(f, "node {n} was removed by this edit"),
            EditError::HasConsumers(n) => {
                write!(f, "node {n} still drives operands and cannot be removed")
            }
            EditError::NotCompute(k) => {
                write!(f, "only compute operations can be added, not `{k}`")
            }
            EditError::SourceProducesNoValue(n) => {
                write!(f, "node {n} produces no value but would drive an operand")
            }
            EditError::NoSuchPort { node, port } => {
                write!(f, "node {node} has no operand port {port}")
            }
            EditError::WouldCycle { from, to } => {
                write!(f, "edge {from} -> {to} would create a dependence cycle")
            }
            EditError::Arity { expected, found } => {
                write!(f, "kind expects {expected} operand(s) but got {found}")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// A mutable working copy of a [`Cdfg`] supporting validated single-op
/// edits; surviving nodes keep their [`NodeId`]s (the id-stability
/// contract [`diff`](crate::diff) leans on), and removals leave holes
/// that [`finish`](GraphEdit::finish) compacts monotonically.
#[derive(Debug, Clone)]
pub struct GraphEdit {
    name: String,
    nodes: Vec<(OpKind, String)>,
    alive: Vec<bool>,
    /// Operand drivers by port, per node; kept arity-exact so every
    /// edit leaves a structurally complete graph.
    preds: Vec<Vec<NodeId>>,
}

impl GraphEdit {
    /// Starts an edit session over `graph`.
    #[must_use]
    pub fn new(graph: &Cdfg) -> GraphEdit {
        GraphEdit {
            name: graph.name().to_owned(),
            nodes: graph
                .nodes()
                .iter()
                .map(|n| (n.kind(), n.label().to_owned()))
                .collect(),
            alive: vec![true; graph.len()],
            preds: graph
                .node_ids()
                .map(|id| graph.operands(id).to_vec())
                .collect(),
        }
    }

    fn check_alive(&self, id: NodeId) -> Result<(), EditError> {
        if id.index() >= self.nodes.len() {
            return Err(EditError::UnknownNode(id));
        }
        if !self.alive[id.index()] {
            return Err(EditError::RemovedNode(id));
        }
        Ok(())
    }

    /// Adds a compute operation driven by the given live operands and
    /// returns its id (stable until [`finish`](GraphEdit::finish)).
    ///
    /// # Errors
    ///
    /// [`EditError::NotCompute`] for io kinds, [`EditError::Arity`] on
    /// operand count mismatch, [`EditError::UnknownNode`] /
    /// [`EditError::RemovedNode`] / [`EditError::SourceProducesNoValue`]
    /// on invalid operands.
    pub fn add_op(&mut self, kind: OpKind, operands: &[NodeId]) -> Result<NodeId, EditError> {
        if kind.is_io() {
            return Err(EditError::NotCompute(kind));
        }
        if operands.len() != kind.arity() {
            return Err(EditError::Arity {
                expected: kind.arity(),
                found: operands.len(),
            });
        }
        for &src in operands {
            self.check_alive(src)?;
            if !self.nodes[src.index()].0.produces_value() {
                return Err(EditError::SourceProducesNoValue(src));
            }
        }
        let id = NodeId::new(self.nodes.len() as u32);
        let label = format!("{}{}", kind.mnemonic(), self.nodes.len());
        self.nodes.push((kind, label));
        self.alive.push(true);
        self.preds.push(operands.to_vec());
        Ok(id)
    }

    /// Removes a node that drives no operands (tombstoned; its id stays
    /// addressable but dead for the rest of the session).
    ///
    /// # Errors
    ///
    /// [`EditError::UnknownNode`] / [`EditError::RemovedNode`] for bad
    /// ids, [`EditError::HasConsumers`] while any live node still
    /// consumes its value.
    pub fn remove_op(&mut self, id: NodeId) -> Result<(), EditError> {
        self.check_alive(id)?;
        let consumed = self
            .preds
            .iter()
            .enumerate()
            .any(|(i, ports)| self.alive[i] && ports.contains(&id));
        if consumed {
            return Err(EditError::HasConsumers(id));
        }
        self.alive[id.index()] = false;
        Ok(())
    }

    /// Replaces the driver of operand `port` of `to` with `new_from`.
    ///
    /// # Errors
    ///
    /// [`EditError::UnknownNode`] / [`EditError::RemovedNode`] for bad
    /// ids, [`EditError::NoSuchPort`] for an out-of-range port,
    /// [`EditError::SourceProducesNoValue`] when `new_from` is an
    /// output, [`EditError::WouldCycle`] when `to` already (transitively)
    /// feeds `new_from`.
    pub fn rewire_edge(
        &mut self,
        to: NodeId,
        port: usize,
        new_from: NodeId,
    ) -> Result<(), EditError> {
        self.check_alive(to)?;
        self.check_alive(new_from)?;
        if port >= self.preds[to.index()].len() {
            return Err(EditError::NoSuchPort { node: to, port });
        }
        if !self.nodes[new_from.index()].0.produces_value() {
            return Err(EditError::SourceProducesNoValue(new_from));
        }
        // `new_from → to` cycles iff `to` is an ancestor of `new_from`
        // (self-rewire included): walk the operand DAG upward from
        // `new_from` looking for `to`.
        if new_from == to || self.reaches_upward(new_from, to) {
            return Err(EditError::WouldCycle { from: new_from, to });
        }
        self.preds[to.index()][port] = new_from;
        Ok(())
    }

    /// Whether `target` appears among the (transitive) operands of
    /// `start` in the current working copy.
    fn reaches_upward(&self, start: NodeId, target: NodeId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &p in &self.preds[v.index()] {
                if p == target {
                    return true;
                }
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Compacts the survivors in id order and validates the result as
    /// a fresh [`Cdfg`]. Surviving ids shift down past removals only,
    /// so the base→edited mapping recovered by [`diff`](crate::diff)
    /// is monotone by construction.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError`] under the same conditions as
    /// [`Cdfg::from_parts`] — with eager per-edit validation the only
    /// realistic failure left is an arity gap from removing a node the
    /// session later rewired back into use, which the per-edit checks
    /// already prevent; the validation is kept as a final guarantee.
    pub fn finish(&self) -> Result<Cdfg, CdfgError> {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut next = 0u32;
        for (i, &alive) in self.alive.iter().enumerate() {
            if alive {
                remap[i] = Some(NodeId::new(next));
                next += 1;
            }
        }
        let nodes: Vec<(OpKind, String)> = self
            .nodes
            .iter()
            .zip(&self.alive)
            .filter(|&(_, &alive)| alive)
            .map(|((k, l), _)| (*k, l.clone()))
            .collect();
        let mut edges = Vec::new();
        for (i, ports) in self.preds.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            let to = remap[i].expect("alive nodes are remapped");
            for (port, src) in ports.iter().enumerate() {
                let from = remap[src.index()].expect("live drivers only: removal is guarded");
                edges.push(Edge { from, to, port });
            }
        }
        Cdfg::from_parts(self.name.clone(), nodes, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CdfgBuilder;

    fn sample() -> (Cdfg, NodeId, NodeId, NodeId) {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        b.output("o", a);
        (b.finish().unwrap(), x, y, a)
    }

    #[test]
    fn add_remove_round_trip_is_structurally_identical() {
        let (g, _, _, a) = sample();
        let mut edit = GraphEdit::new(&g);
        let m = edit.add_op(OpKind::Mul, &[a, a]).unwrap();
        let bigger = edit.finish().unwrap();
        assert_eq!(bigger.len(), g.len() + 1);

        let mut edit = GraphEdit::new(&bigger);
        edit.remove_op(m).unwrap();
        let back = edit.finish().unwrap();
        assert_eq!(
            crate::graph_fingerprint(&back),
            crate::graph_fingerprint(&g)
        );
    }

    #[test]
    fn io_kinds_are_rejected() {
        let (g, x, _, _) = sample();
        let mut edit = GraphEdit::new(&g);
        assert_eq!(
            edit.add_op(OpKind::Input, &[]),
            Err(EditError::NotCompute(OpKind::Input))
        );
        assert_eq!(
            edit.add_op(OpKind::Output, &[x]),
            Err(EditError::NotCompute(OpKind::Output))
        );
    }

    #[test]
    fn arity_and_operand_validation() {
        let (g, x, _, a) = sample();
        let out = NodeId::new(3);
        let mut edit = GraphEdit::new(&g);
        assert_eq!(
            edit.add_op(OpKind::Add, &[x]),
            Err(EditError::Arity {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            edit.add_op(OpKind::Add, &[x, NodeId::new(99)]),
            Err(EditError::UnknownNode(NodeId::new(99)))
        );
        assert_eq!(
            edit.add_op(OpKind::Add, &[x, out]),
            Err(EditError::SourceProducesNoValue(out))
        );
        let m = edit.add_op(OpKind::Mul, &[x, a]).unwrap();
        edit.remove_op(m).unwrap();
        assert_eq!(
            edit.add_op(OpKind::Add, &[x, m]),
            Err(EditError::RemovedNode(m))
        );
    }

    #[test]
    fn consumed_nodes_cannot_be_removed() {
        let (g, x, _, a) = sample();
        let mut edit = GraphEdit::new(&g);
        assert_eq!(edit.remove_op(a), Err(EditError::HasConsumers(a)));
        assert_eq!(edit.remove_op(x), Err(EditError::HasConsumers(x)));
    }

    #[test]
    fn rewire_validates_ports_cycles_and_sources() {
        let (g, x, y, a) = sample();
        let out = NodeId::new(3);
        let mut edit = GraphEdit::new(&g);
        assert_eq!(
            edit.rewire_edge(a, 2, x),
            Err(EditError::NoSuchPort { node: a, port: 2 })
        );
        assert_eq!(
            edit.rewire_edge(a, 0, out),
            Err(EditError::SourceProducesNoValue(out))
        );
        assert_eq!(
            edit.rewire_edge(a, 0, a),
            Err(EditError::WouldCycle { from: a, to: a })
        );
        let m = edit.add_op(OpKind::Mul, &[a, y]).unwrap();
        assert_eq!(
            edit.rewire_edge(a, 0, m),
            Err(EditError::WouldCycle { from: m, to: a })
        );
        edit.rewire_edge(m, 1, x).unwrap();
        let edited = edit.finish().unwrap();
        assert_eq!(edited.operands(m), &[a, x]);
    }

    #[test]
    fn removal_compacts_ids_monotonically() {
        let (g, x, y, a) = sample();
        let mut edit = GraphEdit::new(&g);
        let m1 = edit.add_op(OpKind::Mul, &[x, y]).unwrap();
        let m2 = edit.add_op(OpKind::Sub, &[a, m1]).unwrap();
        let bigger = edit.finish().unwrap();
        // Remove m1's consumer first, then m1 (now consumerless).
        let mut edit = GraphEdit::new(&bigger);
        edit.remove_op(m2).unwrap();
        edit.remove_op(m1).unwrap();
        let back = edit.finish().unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(
            crate::graph_fingerprint(&back),
            crate::graph_fingerprint(&g)
        );
    }

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EditError>();
        let s = EditError::WouldCycle {
            from: NodeId::new(1),
            to: NodeId::new(2),
        }
        .to_string();
        assert!(s.contains("n1") && s.contains("n2"));
    }
}

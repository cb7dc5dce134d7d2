//! Fluent construction of CDFGs.

use crate::error::CdfgError;
use crate::graph::{Cdfg, Edge, NodeId};
use crate::op::OpKind;

/// Incrementally builds a [`Cdfg`].
///
/// The builder assigns dense [`NodeId`]s in creation order and defers all
/// validation to [`CdfgBuilder::finish`].
///
/// # Example
///
/// ```
/// use pchls_cdfg::{CdfgBuilder, OpKind};
///
/// # fn main() -> Result<(), pchls_cdfg::CdfgError> {
/// let mut b = CdfgBuilder::new("mac");
/// let a = b.input("a");
/// let x = b.input("x");
/// let acc = b.input("acc");
/// let prod = b.mul(a, x);
/// let sum = b.add(prod, acc);
/// b.output("acc_next", sum);
/// let g = b.finish()?;
/// assert_eq!(g.name(), "mac");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CdfgBuilder {
    name: String,
    nodes: Vec<(OpKind, String)>,
    edges: Vec<Edge>,
}

impl CdfgBuilder {
    /// Starts building a graph with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> CdfgBuilder {
        CdfgBuilder {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn push(&mut self, kind: OpKind, label: String, operands: &[NodeId]) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push((kind, label));
        for (port, &src) in operands.iter().enumerate() {
            self.edges.push(Edge {
                from: src,
                to: id,
                port,
            });
        }
        id
    }

    /// Adds a primary input named `name`.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.push(OpKind::Input, name.into(), &[])
    }

    /// Adds a primary output named `name` driven by `value`.
    pub fn output(&mut self, name: impl Into<String>, value: NodeId) -> NodeId {
        self.push(OpKind::Output, name.into(), &[value])
    }

    /// Adds an operation node of the given kind with the given operands.
    ///
    /// The node label is generated from the kind and id. Operand count is
    /// checked at [`CdfgBuilder::finish`] time.
    pub fn op(&mut self, kind: OpKind, operands: &[NodeId]) -> NodeId {
        let label = format!("{}{}", kind.mnemonic(), self.nodes.len());
        self.push(kind, label, operands)
    }

    /// Adds a labelled operation node.
    pub(crate) fn op_named(
        &mut self,
        kind: OpKind,
        label: impl Into<String>,
        operands: &[NodeId],
    ) -> NodeId {
        self.push(kind, label.into(), operands)
    }

    /// Shorthand for `op(OpKind::Add, &[a, b])`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.op(OpKind::Add, &[a, b])
    }

    /// Shorthand for `op(OpKind::Sub, &[a, b])` computing `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.op(OpKind::Sub, &[a, b])
    }

    /// Shorthand for `op(OpKind::Mul, &[a, b])`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.op(OpKind::Mul, &[a, b])
    }

    /// Greater-than comparison `a > b`.
    pub(crate) fn gt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.op(OpKind::Comp, &[a, b])
    }

    /// Less-than comparison `a < b`, expressed as `b > a`.
    pub(crate) fn lt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gt(b, a)
    }

    /// Validates and returns the finished graph.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError`] under the same conditions as
    /// [`Cdfg::from_parts`]: arity violations, cycles, duplicate
    /// input/output names, or outputs used as value sources.
    pub fn finish(self) -> Result<Cdfg, CdfgError> {
        Cdfg::from_parts(self.name, self.nodes, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        assert_eq!(s.index(), 2);
        assert_eq!(b.nodes.len(), 3);
    }

    #[test]
    fn lt_swaps_operands() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.lt(x, y); // x < y  ==  y > x
        b.output("c", c);
        let g = b.finish().unwrap();
        let ops = g.operands(c);
        assert_eq!(ops[0], y);
        assert_eq!(ops[1], x);
    }

    #[test]
    fn generated_labels_are_distinct() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        let c = b.add(a, y);
        b.output("o", c);
        let g = b.finish().unwrap();
        assert_ne!(g.node(a).label(), g.node(c).label());
    }

    #[test]
    fn finish_reports_arity_errors() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        b.op(OpKind::Add, &[x]); // missing one operand
        assert!(matches!(b.finish(), Err(CdfgError::Arity { .. })));
    }
}

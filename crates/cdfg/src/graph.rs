//! The core CDFG data structure.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CdfgError;
use crate::op::OpKind;

/// Identifier of a node inside one [`Cdfg`].
///
/// Ids are dense indices assigned in insertion order, so they can be used
/// directly to index per-node side tables (`Vec`s of length
/// [`Cdfg::len`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[must_use]
    pub fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// The raw index of the node, usable to address side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operation node of a CDFG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    kind: OpKind,
    label: String,
}

impl Node {
    /// The node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The operation this node performs.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Human-readable label. For inputs/outputs this is the port name and
    /// is unique within the graph.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A data-dependence edge: the value produced by `from` drives operand
/// `port` of `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// Operand position at the consumer (`0` = left, `1` = right).
    pub port: usize,
}

/// An immutable, validated control/data-flow graph.
///
/// Construct one with [`CdfgBuilder`](crate::CdfgBuilder) or by parsing
/// the textual format with [`parse_cdfg`](crate::parse_cdfg). A `Cdfg` is
/// guaranteed acyclic with every node's operand ports fully and uniquely
/// connected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cdfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Predecessors of each node ordered by operand port.
    preds: Vec<Vec<NodeId>>,
    /// Successors of each node in insertion order (may repeat if one value
    /// feeds two ports of the same consumer).
    succs: Vec<Vec<NodeId>>,
    topo: Vec<NodeId>,
}

impl Cdfg {
    /// Builds and validates a graph from raw parts.
    ///
    /// `nodes[i]` must describe the node with id `i`. This is the low-level
    /// entry point; prefer [`CdfgBuilder`](crate::CdfgBuilder).
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError`] if an edge references an unknown node, a port
    /// is driven twice or missing, an `output` node is used as a value
    /// source, input/output names collide, or the graph is cyclic.
    pub fn from_parts(
        name: impl Into<String>,
        kinds_and_labels: Vec<(OpKind, String)>,
        edges: Vec<Edge>,
    ) -> Result<Cdfg, CdfgError> {
        let nodes: Vec<Node> = kinds_and_labels
            .into_iter()
            .enumerate()
            .map(|(i, (kind, label))| Node {
                id: NodeId::new(i as u32),
                kind,
                label,
            })
            .collect();
        let n = nodes.len();

        // Unique names for primary inputs and outputs.
        let mut seen = HashMap::new();
        for node in &nodes {
            if node.kind.is_io() {
                if let Some(_prev) = seen.insert(node.label.clone(), node.id) {
                    return Err(CdfgError::DuplicateName(node.label.clone()));
                }
            }
        }

        let mut preds: Vec<Vec<Option<NodeId>>> =
            nodes.iter().map(|nd| vec![None; nd.kind.arity()]).collect();
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for e in &edges {
            if e.from.index() >= n {
                return Err(CdfgError::UnknownNode(e.from));
            }
            if e.to.index() >= n {
                return Err(CdfgError::UnknownNode(e.to));
            }
            if !nodes[e.from.index()].kind.produces_value() {
                return Err(CdfgError::SourceProducesNoValue(e.from));
            }
            let ports = &mut preds[e.to.index()];
            if e.port >= ports.len() {
                return Err(CdfgError::Arity {
                    node: e.to,
                    expected: ports.len(),
                    found: e.port + 1,
                });
            }
            if ports[e.port].is_some() {
                return Err(CdfgError::DuplicatePort {
                    node: e.to,
                    port: e.port,
                });
            }
            ports[e.port] = Some(e.from);
            succs[e.from.index()].push(e.to);
        }

        let mut resolved_preds = Vec::with_capacity(n);
        for (i, ports) in preds.into_iter().enumerate() {
            let node = &nodes[i];
            let mut out = Vec::with_capacity(ports.len());
            for p in ports {
                match p {
                    Some(src) => out.push(src),
                    None => {
                        return Err(CdfgError::Arity {
                            node: node.id,
                            expected: node.kind.arity(),
                            found: out.len(),
                        })
                    }
                }
            }
            resolved_preds.push(out);
        }

        let topo = topological_order(n, &resolved_preds, &succs)?;

        Ok(Cdfg {
            name: name.into(),
            nodes,
            edges,
            preds: resolved_preds,
            succs,
            topo,
        })
    }

    /// The graph's name (e.g. `"hal"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in id order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// All edges in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The operands of `id`, ordered by port.
    #[must_use]
    pub fn operands(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// The consumers of the value produced by `id` (with multiplicity if
    /// one value feeds several ports of one consumer).
    #[must_use]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Nodes in a topological order (every node after all its operands).
    #[must_use]
    pub fn topological(&self) -> &[NodeId] {
        &self.topo
    }

    /// Primary input nodes in id order.
    pub fn inputs(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.iter().filter(|n| n.kind == OpKind::Input)
    }

    /// Primary output nodes in id order.
    pub fn outputs(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.iter().filter(|n| n.kind == OpKind::Output)
    }

    /// Number of nodes of each kind, as `(kind, count)` pairs over
    /// [`OpKind::ALL`], omitting kinds with zero occurrences.
    #[must_use]
    pub fn op_histogram(&self) -> Vec<(OpKind, usize)> {
        OpKind::ALL
            .into_iter()
            .map(|k| (k, self.nodes.iter().filter(|n| n.kind == k).count()))
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

/// Kahn's algorithm; reports a node on a cycle if one exists.
fn topological_order(
    n: usize,
    preds: &[Vec<NodeId>],
    succs: &[Vec<NodeId>],
) -> Result<Vec<NodeId>, CdfgError> {
    let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: Vec<NodeId> = (0..n as u32)
        .map(NodeId::new)
        .filter(|id| indeg[id.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = ready.pop() {
        order.push(id);
        for &s in &succs[id.index()] {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    if order.len() != n {
        let culprit = (0..n as u32)
            .map(NodeId::new)
            .find(|id| indeg[id.index()] > 0)
            .expect("cycle implies a node with remaining in-degree");
        return Err(CdfgError::Cycle(culprit));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CdfgBuilder;

    fn diamond() -> Cdfg {
        let mut b = CdfgBuilder::new("diamond");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        let s = b.op(OpKind::Sub, &[a, m]);
        b.output("o", s);
        b.finish().expect("diamond is valid")
    }

    #[test]
    fn topological_respects_dependences() {
        let g = diamond();
        let pos: HashMap<NodeId, usize> = g
            .topological()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        for e in g.edges() {
            assert!(pos[&e.from] < pos[&e.to], "{} -> {}", e.from, e.to);
        }
    }

    #[test]
    fn operands_ordered_by_port() {
        let g = diamond();
        // Node 4 is `sub(a, m)`; port order must be preserved.
        let sub = g
            .nodes()
            .iter()
            .find(|n| n.kind() == OpKind::Sub)
            .unwrap()
            .id();
        let ops = g.operands(sub);
        assert_eq!(g.node(ops[0]).kind(), OpKind::Add);
        assert_eq!(g.node(ops[1]).kind(), OpKind::Mul);
    }

    #[test]
    fn cycle_is_rejected() {
        let nodes = vec![(OpKind::Add, "a".to_owned()), (OpKind::Add, "b".to_owned())];
        // a and b feed each other (and themselves to fill arity): cycle.
        let edges = vec![
            Edge {
                from: NodeId::new(0),
                to: NodeId::new(1),
                port: 0,
            },
            Edge {
                from: NodeId::new(0),
                to: NodeId::new(1),
                port: 1,
            },
            Edge {
                from: NodeId::new(1),
                to: NodeId::new(0),
                port: 0,
            },
            Edge {
                from: NodeId::new(1),
                to: NodeId::new(0),
                port: 1,
            },
        ];
        let err = Cdfg::from_parts("cyc", nodes, edges).unwrap_err();
        assert!(matches!(err, CdfgError::Cycle(_)));
    }

    #[test]
    fn missing_operand_is_rejected() {
        let nodes = vec![
            (OpKind::Input, "x".to_owned()),
            (OpKind::Add, "a".to_owned()),
        ];
        let edges = vec![Edge {
            from: NodeId::new(0),
            to: NodeId::new(1),
            port: 0,
        }];
        let err = Cdfg::from_parts("bad", nodes, edges).unwrap_err();
        assert!(matches!(
            err,
            CdfgError::Arity {
                expected: 2,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_port_is_rejected() {
        let nodes = vec![
            (OpKind::Input, "x".to_owned()),
            (OpKind::Input, "y".to_owned()),
            (OpKind::Output, "o".to_owned()),
        ];
        let edges = vec![
            Edge {
                from: NodeId::new(0),
                to: NodeId::new(2),
                port: 0,
            },
            Edge {
                from: NodeId::new(1),
                to: NodeId::new(2),
                port: 0,
            },
        ];
        let err = Cdfg::from_parts("bad", nodes, edges).unwrap_err();
        assert!(matches!(err, CdfgError::DuplicatePort { port: 0, .. }));
    }

    #[test]
    fn output_cannot_source_values() {
        let nodes = vec![
            (OpKind::Input, "x".to_owned()),
            (OpKind::Output, "o".to_owned()),
            (OpKind::Output, "p".to_owned()),
        ];
        let edges = vec![
            Edge {
                from: NodeId::new(0),
                to: NodeId::new(1),
                port: 0,
            },
            Edge {
                from: NodeId::new(1),
                to: NodeId::new(2),
                port: 0,
            },
        ];
        let err = Cdfg::from_parts("bad", nodes, edges).unwrap_err();
        assert!(matches!(err, CdfgError::SourceProducesNoValue(_)));
    }

    #[test]
    fn duplicate_io_names_rejected() {
        let nodes = vec![
            (OpKind::Input, "x".to_owned()),
            (OpKind::Input, "x".to_owned()),
        ];
        let err = Cdfg::from_parts("bad", nodes, vec![]).unwrap_err();
        assert_eq!(err, CdfgError::DuplicateName("x".to_owned()));
    }

    #[test]
    fn unknown_node_in_edge_rejected() {
        let nodes = vec![(OpKind::Input, "x".to_owned())];
        let edges = vec![Edge {
            from: NodeId::new(5),
            to: NodeId::new(0),
            port: 0,
        }];
        let err = Cdfg::from_parts("bad", nodes, edges).unwrap_err();
        assert_eq!(err, CdfgError::UnknownNode(NodeId::new(5)));
    }

    #[test]
    fn histogram_counts_kinds() {
        let g = diamond();
        let h: HashMap<OpKind, usize> = g.op_histogram().into_iter().collect();
        assert_eq!(h[&OpKind::Input], 2);
        assert_eq!(h[&OpKind::Add], 1);
        assert_eq!(h[&OpKind::Mul], 1);
        assert_eq!(h[&OpKind::Sub], 1);
        assert_eq!(h[&OpKind::Output], 1);
        assert!(!h.contains_key(&OpKind::Comp));
    }

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId::new(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }
}

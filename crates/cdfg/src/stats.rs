//! Structural statistics of a CDFG.

use serde::{Deserialize, Serialize};

use crate::analysis::CriticalPath;
use crate::graph::Cdfg;
use crate::op::OpKind;

/// Summary statistics of a graph's structure, under unit delays.
///
/// `width_profile[d]` is the number of operations whose unit-delay ASAP
/// level is `d` — the graph's inherent parallelism profile, which bounds
/// how much hardware sharing any schedule can achieve.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Total node count.
    pub nodes: usize,
    /// Total edge count.
    pub edges: usize,
    /// Unit-delay critical path length (graph depth).
    pub depth: u32,
    /// Maximum number of operations at one ASAP level (graph width).
    pub width: usize,
    /// Operations per ASAP level.
    pub width_profile: Vec<usize>,
    /// `(kind, count)` histogram, omitting absent kinds.
    pub op_histogram: Vec<(OpKind, usize)>,
    /// Largest operand fan-out of any value.
    pub max_fanout: usize,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    #[must_use]
    pub fn of(graph: &Cdfg) -> GraphStats {
        let cp = CriticalPath::new(graph, |_| 1);
        let depth = cp.length();
        let mut width_profile = vec![0usize; depth as usize];
        for id in graph.node_ids() {
            width_profile[cp.earliest_start(id) as usize] += 1;
        }
        GraphStats {
            nodes: graph.len(),
            edges: graph.edges().len(),
            depth,
            width: width_profile.iter().copied().max().unwrap_or(0),
            width_profile,
            op_histogram: graph.op_histogram(),
            max_fanout: graph
                .node_ids()
                .map(|id| graph.successors(id).len())
                .max()
                .unwrap_or(0),
        }
    }

    /// Average parallelism: nodes per level.
    #[must_use]
    pub(crate) fn average_width(&self) -> f64 {
        if self.depth == 0 {
            0.0
        } else {
            self.nodes as f64 / f64::from(self.depth)
        }
    }

    /// Renders the statistics as a short human-readable report.
    #[must_use]
    pub fn to_report(&self) -> String {
        let hist: Vec<String> = self
            .op_histogram
            .iter()
            .map(|(k, c)| format!("{c}x{}", k.symbol()))
            .collect();
        format!(
            "nodes: {}\nedges: {}\ndepth: {}\nwidth: {} (avg {:.1})\nmax fanout: {}\nops: {}\nwidth profile: {:?}\n",
            self.nodes,
            self.edges,
            self.depth,
            self.width,
            self.average_width(),
            self.max_fanout,
            hist.join(" "),
            self.width_profile
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn hal_stats_are_exact() {
        let s = GraphStats::of(&benchmarks::hal());
        assert_eq!(s.nodes, 21);
        assert_eq!(s.depth, 6); // in, mul, mul, sub, sub, out (unit delays)
        assert_eq!(s.width_profile.iter().sum::<usize>(), 21);
        assert_eq!(s.width_profile[0], 6, "six inputs at level 0");
    }

    #[test]
    fn width_profile_covers_all_nodes() {
        for g in benchmarks::all() {
            let s = GraphStats::of(&g);
            assert_eq!(
                s.width_profile.iter().sum::<usize>(),
                s.nodes,
                "{}",
                g.name()
            );
            assert_eq!(s.width, *s.width_profile.iter().max().unwrap());
        }
    }

    #[test]
    fn report_mentions_key_numbers() {
        let s = GraphStats::of(&benchmarks::elliptic());
        let r = s.to_report();
        assert!(r.contains("nodes: 50"));
        assert!(r.contains("26x+"));
        assert!(r.contains("8x*"));
    }

    #[test]
    fn average_width_is_nodes_over_depth() {
        let s = GraphStats::of(&benchmarks::hal());
        assert!((s.average_width() - 21.0 / 6.0).abs() < 1e-12);
    }
}

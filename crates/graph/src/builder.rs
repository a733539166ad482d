//! Incremental construction of [`CsrGraph`]s.

use crate::csr::CsrGraph;
use crate::types::NodeId;

/// Accumulates edges and finalizes them into a [`CsrGraph`].
///
/// Duplicate edges are removed at build time (keeping the first weight);
/// neighbor lists come out sorted.
///
/// # Example
///
/// ```
/// use lsdgnn_graph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(0), NodeId(1)); // duplicate, dropped at build
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u64,
    edges: Vec<(NodeId, NodeId, f32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: u64) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Adds a directed edge `u -> v` with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.add_weighted_edge(u, v, 1.0)
    }

    /// Adds a directed edge with an explicit weight. The built graph is
    /// weighted when an edge it keeps has a weight other than 1.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: f32) -> &mut Self {
        assert!(
            u.0 < self.num_nodes && v.0 < self.num_nodes,
            "edge ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((u, v, w));
        self
    }

    /// Adds both `u -> v` and `v -> u`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.add_edge(u, v);
        self.add_edge(v, u)
    }

    /// Number of edges added so far (before dedup).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes the graph will have.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Finalizes into CSR form: counting sort by source, then per-row sort
    /// and dedup.
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_nodes as usize;
        // Sort by (src, dst) — stable so the first weight for a duplicate
        // edge wins.
        self.edges.sort_by_key(|&(u, v, _)| (u, v));
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let mut offsets = vec![0u64; n + 1];
        for &(u, _, _) in &self.edges {
            offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = self.edges.iter().map(|&(_, v, _)| v).collect();
        let weights = if self.edges.iter().any(|&(_, _, w)| w != 1.0) {
            Some(self.edges.iter().map(|&(_, _, w)| w).collect())
        } else {
            None
        };
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_unique_rows() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn weighted_edges_preserved() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(NodeId(0), NodeId(1), 2.5);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(NodeId(0)).unwrap(), &[2.5]);
    }

    #[test]
    fn first_weight_wins_on_duplicate() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(NodeId(0), NodeId(1), 3.0);
        b.add_weighted_edge(NodeId(0), NodeId(1), 9.0);
        let g = b.build();
        assert_eq!(g.edge_weights(NodeId(0)).unwrap(), &[3.0]);
    }

    #[test]
    fn a_dropped_duplicate_weight_leaves_the_graph_unweighted() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(NodeId(0), NodeId(1), 1.0);
        b.add_weighted_edge(NodeId(0), NodeId(1), 9.0);
        assert!(!b.build().is_weighted());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.degree(NodeId(4)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(5));
    }
}

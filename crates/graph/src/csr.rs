//! Compressed sparse row (CSR) adjacency storage.

use crate::types::NodeId;

/// An immutable directed graph in CSR form.
///
/// Built through [`crate::GraphBuilder`]; neighbor lists are sorted and
/// deduplicated. Optionally carries one `f32` weight per edge (used by
/// degree-/weight-based sampling).
///
/// # Example
///
/// ```
/// use lsdgnn_graph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(2));
/// b.add_edge(NodeId(0), NodeId(1));
/// let g = b.build();
/// assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    pub(crate) offsets: Vec<u64>,
    pub(crate) targets: Vec<NodeId>,
    pub(crate) weights: Option<Vec<f32>>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> u64 {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted, deduplicated neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Hints the CSR offsets of `v` (both bounds of its neighbor range)
    /// toward L1. Forming a neighbor list's address loads `offsets[v]`,
    /// so in a random walk over node ids that load is a miss of its own:
    /// hinting it a few nodes ahead of [`Self::neighbor_range`] (and
    /// the list a few nodes behind that) keeps both in flight. A no-op
    /// for an id at or past the end of the array.
    #[inline]
    pub fn prefetch_offsets(&self, v: NodeId) {
        if let Some(bounds) = self.offsets.get(v.index()..).and_then(|t| t.get(..2)) {
            crate::mem::prefetch_read(&bounds[0]);
            crate::mem::prefetch_read(&bounds[1]);
        }
    }

    /// The flat CSR target array every neighbor list is a slice of.
    ///
    /// Together with [`Self::neighbor_range`] this lets a caller hold
    /// *positions* into the adjacency instead of copying neighbor lists —
    /// the zero-copy fast path of the serving data plane.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The range of `v`'s neighbor list inside [`Self::targets`]
    /// (`targets()[range]` equals `neighbors(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Edge weights parallel to [`Self::neighbors`], if the graph is weighted.
    pub fn edge_weights(&self, v: NodeId) -> Option<&[f32]> {
        let i = v.index();
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Whether an edge `u -> v` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether edge weights are stored.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Maximum out-degree across all nodes.
    pub fn max_degree(&self) -> u64 {
        (0..self.num_nodes())
            .map(|v| self.degree(NodeId(v)))
            .max()
            .unwrap_or(0)
    }

    /// The `k` highest-out-degree nodes, highest first, ties broken by
    /// node id — the degree prior behind hot-set cache warmup: under
    /// power-law sampling traffic, access frequency tracks degree, so
    /// these are the nodes worth admitting before a single request runs.
    pub fn top_degree_nodes(&self, k: usize) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.num_nodes()).map(NodeId).collect();
        let k = k.min(nodes.len());
        if k == 0 {
            return Vec::new();
        }
        if k < nodes.len() {
            nodes.select_nth_unstable_by_key(k - 1, |&v| (std::cmp::Reverse(self.degree(v)), v.0));
            nodes.truncate(k);
        }
        nodes.sort_unstable_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v.0));
        nodes
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Bytes of structure data this graph occupies (offsets + targets +
    /// weights), matching what a storage server would hold.
    pub fn structure_bytes(&self) -> u64 {
        let w = self.weights.as_ref().map_or(0, |w| w.len() * 4);
        (self.offsets.len() * 8 + self.targets.len() * 8 + w) as u64
    }

    /// The transposed graph: every edge `u -> v` becomes `v -> u`
    /// (weights preserved). In-degree queries and reverse traversal run
    /// on the transpose.
    pub fn reverse(&self) -> CsrGraph {
        let mut b = crate::builder::GraphBuilder::new(self.num_nodes());
        for u in 0..self.num_nodes() {
            let node = NodeId(u);
            match self.edge_weights(node) {
                Some(ws) => {
                    for (&v, &w) in self.neighbors(node).iter().zip(ws) {
                        b.add_weighted_edge(v, node, w);
                    }
                }
                None => {
                    for &v in self.neighbors(node) {
                        b.add_edge(v, node);
                    }
                }
            }
        }
        b.build()
    }

    /// Whether every edge has its reverse (the graph is symmetric /
    /// undirected).
    pub fn is_undirected(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Iterates over all `(source, target)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(NodeId(u))
                .iter()
                .map(move |&v| (NodeId(u), v))
        })
    }

    /// Validates internal invariants (monotone offsets, in-range targets,
    /// sorted unique neighbor lists). Used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.targets.len() as u64 {
            return Err("offset endpoints invalid".into());
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets not monotone".into());
            }
        }
        let n = self.num_nodes();
        for v in 0..n {
            let ns = self.neighbors(NodeId(v));
            for pair in ns.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("neighbors of n{v} not sorted/unique"));
                }
            }
            if ns.iter().any(|t| t.0 >= n) {
                return Err(format!("neighbor of n{v} out of range"));
            }
        }
        if let Some(w) = &self.weights {
            if w.len() != self.targets.len() {
                return Err("weights length mismatch".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(1), NodeId(3));
        b.add_edge(NodeId(2), NodeId(3));
        b.build()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(3)), 0);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(3)]);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(3), NodeId(0)));
    }

    #[test]
    fn offsets_hint_is_a_no_op_at_and_past_the_end() {
        let g = diamond();
        for v in 0..4 {
            g.prefetch_offsets(NodeId(v));
        }
        // offsets has num_nodes + 1 entries: the last id's bounds are the
        // last pair, one id further has none.
        g.prefetch_offsets(NodeId(4));
        g.prefetch_offsets(NodeId(5));
        g.prefetch_offsets(NodeId(u64::MAX));
    }

    #[test]
    fn edge_iterator_covers_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(NodeId(2), NodeId(3))));
    }

    #[test]
    fn degree_stats() {
        let g = diamond();
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.avg_degree(), 1.0);
    }

    #[test]
    fn top_degree_nodes_orders_by_degree_then_id() {
        let g = diamond(); // degrees: 0->2, 1->1, 2->1, 3->0
        assert_eq!(g.top_degree_nodes(0), vec![]);
        assert_eq!(g.top_degree_nodes(1), vec![NodeId(0)]);
        assert_eq!(g.top_degree_nodes(3), vec![NodeId(0), NodeId(1), NodeId(2)]);
        // k past the node count clamps.
        assert_eq!(
            g.top_degree_nodes(100),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn invariants_hold_for_built_graph() {
        assert!(diamond().check_invariants().is_ok());
    }

    #[test]
    fn structure_bytes_counts_arrays() {
        let g = diamond();
        // 5 offsets * 8 + 4 targets * 8 = 72.
        assert_eq!(g.structure_bytes(), 72);
    }

    #[test]
    fn reverse_transposes_edges() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(r.has_edge(v, u));
        }
        // Double transpose is identity.
        assert_eq!(r.reverse(), g);
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn undirected_detection() {
        let g = diamond();
        assert!(!g.is_undirected());
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(NodeId(0), NodeId(1));
        b.add_undirected_edge(NodeId(1), NodeId(2));
        assert!(b.build().is_undirected());
    }

    #[test]
    fn unweighted_graph_has_no_weights() {
        let g = diamond();
        assert!(!g.is_weighted());
        assert!(g.edge_weights(NodeId(0)).is_none());
    }
}

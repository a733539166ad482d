//! Dense node attribute (feature) storage.

use crate::types::NodeId;

/// Fixed-length `f32` feature vectors for every node, stored contiguously —
/// the "attribute" side of the paper's graph servers, fetched by the AxE
/// `GetAttribute` stage.
///
/// # Example
///
/// ```
/// use lsdgnn_graph::{AttributeStore, NodeId};
/// let mut a = AttributeStore::zeros(3, 4);
/// a.set(NodeId(1), &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(a.get(NodeId(1))[2], 3.0);
/// assert_eq!(a.bytes_per_node(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeStore {
    data: Vec<f32>,
    attr_len: usize,
    num_nodes: u64,
}

impl AttributeStore {
    /// Allocates zero-filled attributes for `num_nodes` nodes of
    /// `attr_len` floats each.
    ///
    /// # Panics
    ///
    /// Panics if `attr_len` is zero.
    pub fn zeros(num_nodes: u64, attr_len: usize) -> Self {
        assert!(attr_len > 0, "attribute length must be non-zero");
        AttributeStore {
            data: vec![0.0; num_nodes as usize * attr_len],
            attr_len,
            num_nodes,
        }
    }

    /// Fills attributes deterministically from node ids (useful for tests
    /// and synthetic workloads: attribute `j` of node `v` is
    /// `hash(v, j)` mapped into `[-1, 1)`).
    pub fn synthetic(num_nodes: u64, attr_len: usize, seed: u64) -> Self {
        let mut store = Self::zeros(num_nodes, attr_len);
        for v in 0..num_nodes {
            for j in 0..attr_len {
                let mut h = v
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
                    .wrapping_add(seed);
                h ^= h >> 31;
                h = h.wrapping_mul(0x94D049BB133111EB);
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                store.data[v as usize * attr_len + j] = (unit * 2.0 - 1.0) as f32;
            }
        }
        store
    }

    /// Builds *structure-correlated* attributes: a random base signal
    /// smoothed once over the graph (each node's attributes are averaged
    /// with its neighbors'), producing the homophily real features have —
    /// neighbors look alike, so link prediction and GNN aggregation have
    /// signal to learn.
    ///
    /// # Panics
    ///
    /// Panics if `attr_len` is zero or the graph is empty.
    pub fn smoothed(graph: &crate::csr::CsrGraph, attr_len: usize, seed: u64) -> Self {
        assert!(graph.num_nodes() > 0, "graph must be non-empty");
        let base = Self::synthetic(graph.num_nodes(), attr_len, seed);
        let mut store = Self::zeros(graph.num_nodes(), attr_len);
        for v in 0..graph.num_nodes() {
            let node = crate::types::NodeId(v);
            let mut acc: Vec<f32> = base.get(node).to_vec();
            let ns = graph.neighbors(node);
            for &u in ns {
                for (a, b) in acc.iter_mut().zip(base.get(u)) {
                    *a += b;
                }
            }
            let scale = 1.0 / (ns.len() as f32 + 1.0);
            for a in &mut acc {
                *a *= scale;
            }
            store.set(node, &acc);
        }
        store
    }

    /// Attribute vector length in floats.
    pub fn attr_len(&self) -> usize {
        self.attr_len
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Bytes per node (`attr_len * 4`).
    pub fn bytes_per_node(&self) -> u64 {
        self.attr_len as u64 * 4
    }

    /// Total bytes held.
    pub fn total_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Attribute vector of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn get(&self, v: NodeId) -> &[f32] {
        let i = v.index() * self.attr_len;
        &self.data[i..i + self.attr_len]
    }

    /// Hints every 64-byte line of `v`'s attribute row toward L1 — the
    /// lookahead of a gather's random walk over the store. A no-op for
    /// an id at or past the end of the store.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        crate::mem::prefetch_row(&self.data, v.index(), self.attr_len);
    }

    /// Overwrites the attribute vector of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `values` has the wrong length.
    pub fn set(&mut self, v: NodeId, values: &[f32]) {
        assert_eq!(values.len(), self.attr_len, "attribute length mismatch");
        let i = v.index() * self.attr_len;
        self.data[i..i + self.attr_len].copy_from_slice(values);
    }

    /// Gathers the attributes of `nodes` into one contiguous buffer
    /// (the mini-batch "fetch attributes" operation).
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    pub fn gather(&self, nodes: &[NodeId]) -> Vec<f32> {
        let mut out = Vec::with_capacity(nodes.len() * self.attr_len);
        self.gather_into(nodes, &mut out);
        out
    }

    /// [`Self::gather`] appending into a caller-provided buffer, so a
    /// pooled scratch can be recycled across gathers instead of
    /// reallocated.
    ///
    /// # Panics
    ///
    /// Panics if any node is out of range.
    pub fn gather_into(&self, nodes: &[NodeId], out: &mut Vec<f32>) {
        out.reserve(nodes.len() * self.attr_len);
        for (i, &v) in nodes.iter().enumerate() {
            // A mini-batch gather is a random walk over a store far
            // larger than cache; touch a few rows ahead so the copies
            // overlap their miss latency.
            if let Some(&w) = nodes.get(i + 8) {
                self.prefetch(w);
            }
            out.extend_from_slice(self.get(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut a = AttributeStore::zeros(2, 3);
        assert_eq!(a.get(NodeId(0)), &[0.0, 0.0, 0.0]);
        a.set(NodeId(1), &[1.0, 2.0, 3.0]);
        assert_eq!(a.get(NodeId(1)), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn synthetic_is_deterministic_and_bounded() {
        let a = AttributeStore::synthetic(10, 8, 42);
        let b = AttributeStore::synthetic(10, 8, 42);
        assert_eq!(a, b);
        for v in 0..10 {
            for &x in a.get(NodeId(v)) {
                assert!((-1.0..1.0).contains(&x));
            }
        }
        let c = AttributeStore::synthetic(10, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn gather_concatenates_in_order() {
        let mut a = AttributeStore::zeros(3, 2);
        a.set(NodeId(0), &[1.0, 1.0]);
        a.set(NodeId(2), &[3.0, 3.0]);
        let g = a.gather(&[NodeId(2), NodeId(0)]);
        assert_eq!(g, vec![3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn row_hint_is_a_no_op_at_and_past_the_end() {
        let a = AttributeStore::synthetic(3, 7, 1);
        for v in 0..3 {
            a.prefetch(NodeId(v));
        }
        a.prefetch(NodeId(3));
        a.prefetch(NodeId(u64::MAX));
    }

    #[test]
    fn byte_accounting() {
        let a = AttributeStore::zeros(100, 72);
        assert_eq!(a.bytes_per_node(), 288);
        assert_eq!(a.total_bytes(), 28_800);
        assert_eq!(a.num_nodes(), 100);
        assert_eq!(a.attr_len(), 72);
    }

    #[test]
    fn smoothed_attributes_are_homophilous() {
        use crate::generators;
        let g = generators::uniform_random(300, 6, 5);
        let smooth = AttributeStore::smoothed(&g, 8, 5);
        let raw = AttributeStore::synthetic(300, 8, 5);
        // Cosine similarity between endpoints of edges should be higher
        // for the smoothed store than the raw one, on average.
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        let (mut s_sum, mut r_sum, mut n) = (0.0f32, 0.0f32, 0);
        for (u, v) in g.edges().take(500) {
            s_sum += cos(smooth.get(u), smooth.get(v));
            r_sum += cos(raw.get(u), raw.get(v));
            n += 1;
        }
        assert!(n > 0);
        assert!(
            s_sum / n as f32 > r_sum / n as f32 + 0.1,
            "smoothed {} vs raw {}",
            s_sum / n as f32,
            r_sum / n as f32
        );
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_length_set_panics() {
        AttributeStore::zeros(1, 3).set(NodeId(0), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_attr_len_panics() {
        let _ = AttributeStore::zeros(1, 0);
    }
}

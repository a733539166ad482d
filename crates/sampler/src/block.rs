//! The flat-buffer mini-batch representation of the serving data plane.
//!
//! A [`SampleBlock`] stores what [`SampleBatch`](crate::SampleBatch)
//! stores — per-hop sampled frontiers in parent-major order — but packed
//! the way the AxE packs results for MoF: one flat `nodes` array plus a
//! `hop_offsets` boundary table, mirroring CSR. No per-hop `Vec`, no
//! per-request object graph; a whole 2-hop mini-batch is three
//! allocations (all recyclable through a buffer pool), and hop access is
//! a slice borrow.
//!
//! The nested-`Vec` [`SampleBatch`](crate::SampleBatch) is the nested
//! client form — what `MultiHopSampler`, the AxE command path and
//! `SampleBatch` clients of the serving stack speak;
//! [`SampleBlock::to_batch`] / [`SampleBlock::from_batch`] convert
//! between the two formats without touching the samples.

use crate::SampleBatch;
use lsdgnn_graph::NodeId;

/// A flat, CSR-style sampled mini-batch.
///
/// Invariant: `hop_offsets` always starts with `0`, is monotone, ends at
/// `nodes.len()`, and has `num_hops() + 1` entries. Hop `h` is
/// `nodes[hop_offsets[h]..hop_offsets[h + 1]]`, parent-major within the
/// hop (same ordering contract as `SampleBatch`).
#[derive(Debug, Clone)]
pub struct SampleBlock {
    /// The root (seed) nodes of the mini-batch.
    pub roots: Vec<NodeId>,
    /// Hop boundaries into `nodes`: `num_hops() + 1` entries from 0.
    pub hop_offsets: Vec<u32>,
    /// Every sampled node, all hops concatenated, parent-major.
    pub nodes: Vec<NodeId>,
    /// Optional per-parent child boundaries — the second CSR level the
    /// GNN compute stage aggregates over. Parents enumerate as roots
    /// first, then every hop's entries except the last hop's;
    /// `adj_offsets[j]` is the *end* index into `nodes` of parent `j`'s
    /// sampled children (the start is `adj_offsets[j - 1]`, or `0` for
    /// the first parent). Per-parent child counts are data-dependent
    /// (full short lists, `fanout` picks from long ones, nothing from an
    /// unreachable owner), so only the sampling pass itself can record
    /// them: the flat data plane fills this in, while conversions from
    /// the nested client form leave it empty ([`Self::has_adjacency`]
    /// tells the two apart).
    ///
    /// Derived routing metadata, not sample content: `PartialEq` and
    /// [`Self::digest`] cover `roots`/`hop_offsets`/`nodes` only, so a
    /// block converted from a `SampleBatch` (the AxE path, the
    /// single-machine reference) compares equal to the plane's block
    /// with the same samples.
    pub adj_offsets: Vec<u32>,
}

impl Default for SampleBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Sample-content equality: two blocks are equal when they hold the same
/// roots, hop boundaries and sampled nodes. `adj_offsets` is *derived*
/// metadata (fully determined by the request under the per-seed
/// determinism contract) and deliberately excluded, so a flat-plane
/// block compares equal to the same samples converted from the nested
/// client form, which cannot carry adjacency.
impl PartialEq for SampleBlock {
    fn eq(&self, other: &Self) -> bool {
        self.roots == other.roots
            && self.hop_offsets == other.hop_offsets
            && self.nodes == other.nodes
    }
}

impl Eq for SampleBlock {}

impl SampleBlock {
    /// An empty block (no roots, no hops).
    pub fn new() -> Self {
        SampleBlock {
            roots: Vec::new(),
            hop_offsets: vec![0],
            nodes: Vec::new(),
            adj_offsets: Vec::new(),
        }
    }

    /// Empties the block for reuse, keeping all buffers' capacity — the
    /// pool-recycling entry point.
    pub fn clear(&mut self) {
        self.roots.clear();
        self.nodes.clear();
        self.hop_offsets.clear();
        self.hop_offsets.push(0);
        self.adj_offsets.clear();
    }

    /// Number of hop levels.
    pub fn num_hops(&self) -> usize {
        self.hop_offsets.len() - 1
    }

    /// The sampled nodes of hop `h` (0-based), parent-major.
    ///
    /// # Panics
    ///
    /// Panics if `h >= num_hops()`.
    pub fn hop(&self, h: usize) -> &[NodeId] {
        &self.nodes[self.hop_offsets[h] as usize..self.hop_offsets[h + 1] as usize]
    }

    /// Iterates the hops as slices.
    pub fn hops(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.num_hops()).map(|h| self.hop(h))
    }

    /// Appends one hop's sampled frontier (already parent-major).
    pub fn push_hop(&mut self, frontier: &[NodeId]) {
        self.nodes.extend_from_slice(frontier);
        self.hop_offsets.push(self.nodes.len() as u32);
    }

    /// Total sampled nodes across hops (excluding roots).
    pub fn total_sampled(&self) -> usize {
        self.nodes.len()
    }

    /// Number of parent entries the adjacency table would cover: the
    /// roots plus every hop's entries except the last hop's (leaves have
    /// no children in the block). Zero-hop blocks have no parents.
    pub fn num_parents(&self) -> usize {
        match self.num_hops() {
            0 => 0,
            h => self.roots.len() + self.hop_offsets[h - 1] as usize,
        }
    }

    /// Whether this block carries the per-parent adjacency table — true
    /// for blocks produced by the flat sampling data plane, false for
    /// conversions from the nested client form (whose per-parent counts
    /// are unrecoverable).
    pub fn has_adjacency(&self) -> bool {
        self.num_hops() > 0 && self.adj_offsets.len() == self.num_parents()
    }

    /// The sampled children of parent entry `j` (see [`Self::adj_offsets`]
    /// for the parent enumeration order).
    ///
    /// # Panics
    ///
    /// Panics if the block has no adjacency table or `j` is out of range.
    pub fn children(&self, j: usize) -> &[NodeId] {
        assert!(self.has_adjacency(), "block carries no adjacency table");
        let start = if j == 0 {
            0
        } else {
            self.adj_offsets[j - 1] as usize
        };
        &self.nodes[start..self.adj_offsets[j] as usize]
    }

    /// All nodes whose attributes a GNN layer would fetch: roots then
    /// every hop's samples, in order (same list as
    /// `SampleBatch::attr_fetch_list`).
    pub fn attr_fetch_list(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.roots.len() + self.nodes.len());
        self.attr_fetch_into(&mut out);
        out
    }

    /// [`Self::attr_fetch_list`] appending into a recycled buffer.
    pub fn attr_fetch_into(&self, out: &mut Vec<NodeId>) {
        out.extend_from_slice(&self.roots);
        out.extend_from_slice(&self.nodes);
    }

    /// Converts to the nested client form.
    pub fn to_batch(&self) -> SampleBatch {
        SampleBatch {
            roots: self.roots.clone(),
            hops: self.hops().map(<[NodeId]>::to_vec).collect(),
        }
    }

    /// Consuming variant of [`Self::to_batch`] (reuses the roots buffer).
    pub fn into_batch(self) -> SampleBatch {
        SampleBatch {
            hops: self.hops().map(<[NodeId]>::to_vec).collect(),
            roots: self.roots,
        }
    }

    /// Packs a nested-`Vec` batch into flat form.
    pub fn from_batch(batch: &SampleBatch) -> Self {
        let mut block = SampleBlock::new();
        block.roots.extend_from_slice(&batch.roots);
        for hop in &batch.hops {
            block.push_hop(hop);
        }
        block
    }

    /// FNV-1a digest over the sample content (roots, boundaries, nodes).
    /// Two blocks are byte-identical iff their digests and lengths agree;
    /// the differential tests compare digests across backends and
    /// against the single-machine reference. Like `PartialEq`, the digest
    /// excludes the derived `adj_offsets` table so a converted block
    /// fingerprints identically.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        fold(self.roots.len() as u64);
        for r in &self.roots {
            fold(r.0);
        }
        fold(self.hop_offsets.len() as u64);
        for &o in &self.hop_offsets {
            fold(o as u64);
        }
        for n in &self.nodes {
            fold(n.0);
        }
        h
    }
}

impl From<SampleBatch> for SampleBlock {
    fn from(batch: SampleBatch) -> Self {
        SampleBlock::from_batch(&batch)
    }
}

impl From<SampleBlock> for SampleBatch {
    fn from(block: SampleBlock) -> Self {
        block.into_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> SampleBatch {
        SampleBatch {
            roots: vec![NodeId(1), NodeId(2)],
            hops: vec![
                vec![NodeId(3), NodeId(4), NodeId(5)],
                vec![NodeId(6), NodeId(7)],
            ],
        }
    }

    #[test]
    fn round_trips_through_batch() {
        let batch = sample_batch();
        let block = SampleBlock::from_batch(&batch);
        assert_eq!(block.num_hops(), 2);
        assert_eq!(block.hop(0), &[NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(block.hop(1), &[NodeId(6), NodeId(7)]);
        assert_eq!(block.total_sampled(), 5);
        assert_eq!(block.to_batch(), batch);
        assert_eq!(SampleBatch::from(block), batch);
    }

    #[test]
    fn attr_fetch_list_matches_legacy() {
        let batch = sample_batch();
        let block = SampleBlock::from_batch(&batch);
        assert_eq!(block.attr_fetch_list(), batch.attr_fetch_list());
    }

    #[test]
    fn clear_keeps_invariants_and_capacity() {
        let mut block = SampleBlock::from_batch(&sample_batch());
        let cap = block.nodes.capacity();
        block.clear();
        assert_eq!(block, SampleBlock::new());
        assert_eq!(block.num_hops(), 0);
        assert!(block.nodes.capacity() >= cap.min(1));
        block.roots.push(NodeId(9));
        block.push_hop(&[NodeId(10)]);
        assert_eq!(block.hop(0), &[NodeId(10)]);
    }

    #[test]
    fn digest_distinguishes_content_and_structure() {
        let a = SampleBlock::from_batch(&sample_batch());
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.nodes[0] = NodeId(99);
        assert_ne!(a.digest(), b.digest());
        // Same flat nodes, different hop boundary: digests differ.
        let flat = SampleBlock {
            roots: a.roots.clone(),
            hop_offsets: vec![0, 2, 5],
            nodes: a.nodes.clone(),
            adj_offsets: Vec::new(),
        };
        assert_ne!(a.digest(), flat.digest());
        // Empty-vs-empty agrees.
        assert_eq!(SampleBlock::new().digest(), SampleBlock::new().digest());
    }

    #[test]
    fn adjacency_spans_address_children_per_parent() {
        // 2 roots, hop 0 of 3 nodes, hop 1 of 2 nodes. Parents are the
        // roots (children in hop 0) and the hop-0 entries (children in
        // hop 1): root 0 sampled 2 children, root 1 sampled 1; the first
        // hop-0 entry sampled both hop-1 nodes, the other two none.
        let mut block = SampleBlock::from_batch(&sample_batch());
        assert!(!block.has_adjacency(), "conversions carry no adjacency");
        block.adj_offsets = vec![2, 3, 5, 5, 5];
        assert_eq!(block.num_parents(), 5);
        assert!(block.has_adjacency());
        assert_eq!(block.children(0), &[NodeId(3), NodeId(4)]);
        assert_eq!(block.children(1), &[NodeId(5)]);
        assert_eq!(block.children(2), &[NodeId(6), NodeId(7)]);
        assert!(block.children(3).is_empty());
        assert!(block.children(4).is_empty());
    }

    #[test]
    fn equality_and_digest_ignore_derived_adjacency() {
        // The nested form cannot reconstruct adjacency; blocks that
        // agree on samples must still compare (and fingerprint) equal.
        let plain = SampleBlock::from_batch(&sample_batch());
        let mut with_adj = plain.clone();
        with_adj.adj_offsets = vec![2, 3, 5, 5, 5];
        assert_eq!(plain, with_adj);
        assert_eq!(plain.digest(), with_adj.digest());
        // Clearing drops the adjacency with the rest.
        with_adj.clear();
        assert!(with_adj.adj_offsets.is_empty());
        assert!(!with_adj.has_adjacency());
    }

    #[test]
    fn empty_hops_are_representable() {
        let mut block = SampleBlock::new();
        block.roots.push(NodeId(0));
        block.push_hop(&[]);
        block.push_hop(&[]);
        assert_eq!(block.num_hops(), 2);
        assert!(block.hop(0).is_empty() && block.hop(1).is_empty());
        assert_eq!(block.to_batch().hops, vec![Vec::<NodeId>::new(); 2]);
    }
}

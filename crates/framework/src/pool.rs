//! Pooled arenas for the serving data plane.
//!
//! The hot sampling path allocates the same handful of buffer shapes per
//! request — frontier scratch, flat neighbor/offset arrays for server
//! replies, attribute gather output, and the [`SampleBlock`] result
//! itself. A [`BufferPool`] keeps bounded free lists of each shape so a
//! steady-state service recycles capacity instead of round-tripping the
//! allocator per mini-batch (the software analogue of the AxE's fixed
//! on-card buffers). Cluster workers and server threads share one pool
//! through an `Arc`; request buffers travel to the server inside the
//! request and come back inside the reply, so ownership never needs a
//! second channel.
//!
//! The pool is deliberately dumb: `take_*` pops a cleared buffer or makes
//! a fresh one, `put_*` clears and returns it unless the free list is at
//! capacity (then the buffer just drops — the pool bounds memory, it
//! doesn't grow it). Alloc/reuse counters register into telemetry; the
//! benchmark reports the recycle rate as `pool.reuse_rate`.

use crate::cluster::Span;
use lsdgnn_graph::mem::prefetch_read;
use lsdgnn_graph::NodeId;
use lsdgnn_sampler::SampleBlock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Free lists per buffer class are capped at this many entries by
/// default — enough for every worker/server thread to have a couple of
/// buffers in flight without the pool becoming a leak.
const DEFAULT_MAX_PER_CLASS: usize = 64;

/// A thread-safe pool of the serving path's recyclable buffers.
pub struct BufferPool {
    nodes: Mutex<Vec<Vec<NodeId>>>,
    offsets: Mutex<Vec<Vec<u32>>>,
    floats: Mutex<Vec<Vec<f32>>>,
    spans: Mutex<Vec<Vec<Span>>>,
    blocks: Mutex<Vec<SampleBlock>>,
    stamps: Mutex<Vec<StampTable>>,
    groups: Mutex<Vec<Vec<Vec<u32>>>>,
    max_per_class: usize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    recycled: AtomicU64,
}

/// An epoch-stamped slot index over dense node ids — the O(1)-reset
/// dedup table behind request coalescing.
///
/// A hash map over a mini-batch's node ids pays a hash per lookup; a
/// plain array pays a full clear per batch. This table pays neither:
/// each entry records the epoch that wrote it, [`StampTable::begin`]
/// bumps the epoch, and entries stamped by older scopes simply read as
/// absent. A lookup is one array load. The table recycles through the
/// pool *without* clearing — stale stamps are inert by construction.
#[derive(Debug, Default)]
pub struct StampTable {
    /// `stamps[v] = (epoch << 32) | slot`.
    stamps: Vec<u64>,
    epoch: u32,
}

impl StampTable {
    /// Opens a fresh dedup scope covering ids `0..n`. Previous scopes'
    /// entries become absent without touching memory (except on the
    /// ~4-billionth scope, when the epoch wraps and the table clears).
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// The slot assigned to id `v` in the current scope, if any.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the range [`StampTable::begin`] opened.
    #[inline]
    pub fn get(&self, v: usize) -> Option<u32> {
        let s = self.stamps[v];
        ((s >> 32) as u32 == self.epoch).then_some(s as u32)
    }

    /// Hints the entry of id `v` toward L1 — the lookahead of a
    /// coalescing walk, whose lookups are random loads into a table
    /// sized to the whole graph. A no-op for an id past the table.
    #[inline]
    pub fn prefetch(&self, v: usize) {
        if let Some(s) = self.stamps.get(v) {
            prefetch_read(s);
        }
    }

    /// Assigns `slot` to id `v` in the current scope.
    #[inline]
    pub fn set(&mut self, v: usize, slot: u32) {
        self.stamps[v] = (u64::from(self.epoch) << 32) | u64::from(slot);
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("allocs", &s.allocs)
            .field("reuses", &s.reuses)
            .field("recycled", &s.recycled)
            .finish()
    }
}

/// A snapshot of pool activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers newly allocated because the free list was empty.
    pub allocs: u64,
    /// Buffers served from a free list.
    pub reuses: u64,
    /// Buffers accepted back into a free list.
    pub recycled: u64,
}

impl PoolStats {
    /// Fraction of takes served without allocating.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.allocs + self.reuses;
        if total == 0 {
            0.0
        } else {
            self.reuses as f64 / total as f64
        }
    }
}

macro_rules! pool_class {
    ($take:ident, $put:ident, $field:ident, $ty:ty, $fresh:expr) => {
        /// Pops a cleared buffer of this class, or allocates one.
        pub fn $take(&self) -> $ty {
            match self.$field.lock().expect("pool lock").pop() {
                Some(buf) => {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    buf
                }
                None => {
                    self.allocs.fetch_add(1, Ordering::Relaxed);
                    $fresh
                }
            }
        }

        /// Clears and returns a buffer, dropping it if the class is full.
        pub fn $put(&self, mut buf: $ty) {
            buf.clear();
            let mut list = self.$field.lock().expect("pool lock");
            if list.len() < self.max_per_class {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                list.push(buf);
            }
        }
    };
}

impl BufferPool {
    /// A pool with the default per-class free-list cap.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_PER_CLASS)
    }

    /// A pool keeping at most `max_per_class` free buffers per class.
    pub fn with_capacity(max_per_class: usize) -> Self {
        BufferPool {
            nodes: Mutex::new(Vec::new()),
            offsets: Mutex::new(Vec::new()),
            floats: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            blocks: Mutex::new(Vec::new()),
            stamps: Mutex::new(Vec::new()),
            groups: Mutex::new(Vec::new()),
            max_per_class,
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        }
    }

    pool_class!(take_nodes, put_nodes, nodes, Vec<NodeId>, Vec::new());
    pool_class!(take_offsets, put_offsets, offsets, Vec<u32>, Vec::new());
    pool_class!(take_floats, put_floats, floats, Vec<f32>, Vec::new());
    pool_class!(take_spans, put_spans, spans, Vec<Span>, Vec::new());
    pool_class!(
        take_block,
        put_block,
        blocks,
        SampleBlock,
        SampleBlock::new()
    );

    /// Pops a stamp table, or makes an empty one. Unlike the other
    /// classes the table comes back *uncleared* — its epoch discipline
    /// makes old entries unreadable, so recycling it keeps both the
    /// allocation and the (large) zero-fill amortized across requests.
    pub fn take_stamps(&self) -> StampTable {
        match self.stamps.lock().expect("pool lock").pop() {
            Some(t) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                StampTable::default()
            }
        }
    }

    /// Returns a stamp table to the pool (dropped if the class is full).
    pub fn put_stamps(&self, table: StampTable) {
        let mut list = self.stamps.lock().expect("pool lock");
        if list.len() < self.max_per_class {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            list.push(table);
        }
    }

    /// Pops a group buffer — `parts` empty inner `Vec<u32>`s, as the
    /// per-partition remote-position scratch of the fetch paths — or
    /// allocates one. Inner vectors keep their capacities across
    /// recycling, so steady-state classification loops stop paying
    /// `parts` allocations per call.
    pub fn take_groups(&self, parts: usize) -> Vec<Vec<u32>> {
        let mut groups = match self.groups.lock().expect("pool lock").pop() {
            Some(g) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                g
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        groups.resize_with(parts, Vec::new);
        groups
    }

    /// Returns a group buffer, clearing each inner vector in place
    /// (capacities retained). Dropped if the class is full.
    pub fn put_groups(&self, mut groups: Vec<Vec<u32>>) {
        for g in &mut groups {
            g.clear();
        }
        let mut list = self.groups.lock().expect("pool lock");
        if list.len() < self.max_per_class {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            list.push(groups);
        }
    }

    /// Activity counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
        }
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl lsdgnn_telemetry::MetricSource for PoolStats {
    fn collect(&self, out: &mut lsdgnn_telemetry::Scope<'_>) {
        out.counter("allocs", self.allocs);
        out.counter("reuses", self.reuses);
        out.counter("recycled", self.recycled);
        out.gauge("reuse_rate", self.reuse_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_come_back_cleared_with_capacity() {
        let pool = BufferPool::new();
        let mut v = pool.take_nodes();
        v.extend((0..100).map(NodeId));
        let cap = v.capacity();
        pool.put_nodes(v);
        let v = pool.take_nodes();
        assert!(v.is_empty());
        assert!(v.capacity() >= cap, "recycled buffer keeps its capacity");
        let s = pool.stats();
        assert_eq!((s.allocs, s.reuses, s.recycled), (1, 1, 1));
        assert_eq!(s.reuse_rate(), 0.5);
    }

    #[test]
    fn blocks_recycle_with_invariants_intact() {
        let pool = BufferPool::new();
        let mut b = pool.take_block();
        b.roots.push(NodeId(1));
        b.push_hop(&[NodeId(2), NodeId(3)]);
        pool.put_block(b);
        let b = pool.take_block();
        assert_eq!(b, SampleBlock::new());
        assert_eq!(b.num_hops(), 0);
    }

    #[test]
    fn full_free_list_drops_instead_of_growing() {
        let pool = BufferPool::with_capacity(2);
        for _ in 0..5 {
            pool.put_offsets(vec![1, 2, 3]);
        }
        assert_eq!(pool.stats().recycled, 2, "cap bounds the free list");
        // Only the two retained buffers are reusable.
        for _ in 0..2 {
            pool.take_offsets();
        }
        assert_eq!(pool.stats().reuses, 2);
        pool.take_offsets();
        assert_eq!(pool.stats().allocs, 1);
    }

    #[test]
    fn stamp_table_scopes_are_independent_without_clearing() {
        let pool = BufferPool::new();
        let mut t = pool.take_stamps();
        t.begin(10);
        assert_eq!(t.get(3), None);
        t.set(3, 7);
        t.set(9, 0);
        assert_eq!(t.get(3), Some(7));
        assert_eq!(t.get(9), Some(0));
        // A new scope forgets everything in O(1).
        t.begin(10);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(9), None);
        // Recycling keeps the table usable and the old entries unreadable.
        pool.put_stamps(t);
        let mut t = pool.take_stamps();
        t.begin(20);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(19), None, "begin() grows the id range");
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn stamp_hint_is_a_no_op_at_and_past_the_end() {
        let mut t = StampTable::default();
        t.prefetch(0); // before any scope: an empty table
        t.begin(10);
        for v in 0..10 {
            t.prefetch(v);
        }
        t.prefetch(10);
        t.prefetch(usize::MAX);
        assert_eq!(t.get(9), None, "a hint reads nothing into the scope");
    }

    #[test]
    fn group_buffers_keep_inner_capacities_across_recycling() {
        let pool = BufferPool::new();
        let mut g = pool.take_groups(4);
        assert_eq!(g.len(), 4);
        g[0].extend(0..100);
        g[3].extend(0..50);
        let caps: Vec<usize> = g.iter().map(Vec::capacity).collect();
        pool.put_groups(g);
        // A smaller partition count truncates; inner capacities survive.
        let g = pool.take_groups(2);
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(Vec::is_empty), "inner vecs come back cleared");
        assert!(g[0].capacity() >= caps[0], "inner capacity retained");
        let s = pool.stats();
        assert_eq!((s.allocs, s.reuses, s.recycled), (1, 1, 1));
    }

    #[test]
    fn stats_register_as_metric_source() {
        let pool = BufferPool::new();
        pool.put_floats(pool.take_floats());
        let mut reg = lsdgnn_telemetry::Registry::new();
        reg.register("pool", &[], Box::new(pool.stats()));
        let snap = reg.snapshot();
        assert_eq!(snap.get("pool/allocs").unwrap().as_f64(), 1.0);
        assert!(snap.get("pool/reuse_rate").is_some());
    }
}

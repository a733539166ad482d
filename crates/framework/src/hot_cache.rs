//! The sharded hot-set cache of the remote data plane.
//!
//! The paper's Tech-4 argument rests on the framework already doing its
//! job: "framework (i.e., AliGraph) already provides system-level caching
//! for the most frequently used nodes. Therefore ... caching temporal
//! reuse is not efficient in the hardware." This module is that
//! framework-level cache, grown from a single-`Mutex` attribute LRU into
//! the two-tier hot-set cache the cluster data plane consults inline:
//!
//! * **Tier N** ([`NeighborTier`]) caches remote **neighbor-list CSR
//!   spans**. A hit returns byte-identical span data to what the owning
//!   server would have replied, so the sampler's RNG stream — which draws
//!   only from span *lengths* — and every downstream digest are
//!   untouched. Caching structure is safe precisely because the cache
//!   stores the truth, not an approximation of it.
//! * **Tier A** ([`AttrTier`]) caches remote **attribute rows** — only
//!   remote ones: a local row is already a memory read. It is the
//!   framework's one attribute cache.
//!
//! Both tiers are a [`ShardedTier`]: segments selected by node hash, each
//! behind its own small `Mutex`, so concurrent service workers contend
//! only when they touch the same segment ("lock-light", not lock-free —
//! the segment critical sections are a map probe and a row memcpy).
//!
//! **Admission** is frequency-based in the TinyLFU mold: every segment
//! keeps a 4-bit count-min sketch; a candidate only displaces the
//! segment's LRU victim when its estimated frequency exceeds the
//! victim's. One-hit wonders bounce off a warm cache instead of flushing
//! it. [`HotSetCache::warm_degree_prior`] seeds the sketch (and the
//! tiers) from vertex degree — the paper's degree-aware hot-node
//! identification — so hubs are admitted from the first request.
//!
//! **Eviction** is exact LRU per segment in O(1): the slots of a segment
//! are threaded on an intrusive recency list in last-use order, so the
//! victim is the list's head and a miss, a rejected offer and an admitted
//! one all cost the same whatever the capacity.
//!
//! **Cached data is immutable.** A cluster serves one graph that does not
//! change while it is served, so an entry never goes stale and nothing
//! invalidates, clears or relabels a tier: a reordered graph gets a new
//! cluster, and with it a new, cold cache.

use lsdgnn_graph::{FnvHashMap, NodeId, PartitionId, PartitionedGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// SplitMix64 — the shard selector and sketch hash. One multiply-xor
/// chain, good dispersion on dense node ids.
#[inline]
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 4-bit count-min sketch (4 rows folded into one array) — the
/// TinyLFU frequency estimator behind segment admission.
///
/// Counters saturate at 15 and halve once the op count reaches a sample
/// window proportional to the segment capacity, so the estimate tracks
/// *recent* popularity rather than all of history.
#[derive(Debug)]
struct FreqSketch {
    /// 16 packed 4-bit counters per word.
    words: Vec<u64>,
    mask: u64,
    ops: u32,
    window: u32,
}

impl FreqSketch {
    fn new(capacity: usize) -> Self {
        let counters = (capacity * 8).next_power_of_two().max(64);
        FreqSketch {
            words: vec![0; counters / 16],
            mask: (counters - 1) as u64,
            ops: 0,
            // Floor the sample window so tiny segments don't age their
            // history away mid-scan: aging keeps estimates *recent*, but
            // a window smaller than one adversarial burst erases the
            // hot set's defense exactly when it is needed.
            window: ((capacity as u32) * 16).max(4096),
        }
    }

    #[inline]
    fn get(&self, pos: u64) -> u64 {
        let word = (pos >> 4) as usize;
        let shift = (pos & 15) * 4;
        (self.words[word] >> shift) & 0xf
    }

    #[inline]
    fn put(&mut self, pos: u64, val: u64) {
        let word = (pos >> 4) as usize;
        let shift = (pos & 15) * 4;
        self.words[word] = (self.words[word] & !(0xf << shift)) | (val << shift);
    }

    /// The i-th probe position for hash `h` (double hashing keeps the
    /// four probes independent without four hash functions).
    #[inline]
    fn pos(&self, h: u64, i: u64) -> u64 {
        h.wrapping_add(i.wrapping_mul(h >> 32 | 1)) & self.mask
    }

    /// Counts one access, aging the sketch when the window fills.
    fn increment(&mut self, h: u64) {
        for i in 0..4 {
            let p = self.pos(h, i);
            let c = self.get(p);
            if c < 15 {
                self.put(p, c + 1);
            }
        }
        self.ops += 1;
        if self.ops >= self.window {
            self.age();
        }
    }

    /// Estimated access count (min over the four probes).
    fn estimate(&self, h: u64) -> u64 {
        (0..4).map(|i| self.get(self.pos(h, i))).min().unwrap_or(0)
    }

    /// Raises the estimate to at least `val` — the degree-prior hook:
    /// hub nodes start warm instead of earning admission one miss at a
    /// time.
    fn raise(&mut self, h: u64, val: u64) {
        let val = val.min(15);
        for i in 0..4 {
            let p = self.pos(h, i);
            if self.get(p) < val {
                self.put(p, val);
            }
        }
    }

    /// Halves every counter — the TinyLFU reset that forgets old epochs
    /// of popularity.
    fn age(&mut self) {
        for w in &mut self.words {
            // Halve all 16 packed counters at once: shift, then mask the
            // bit that would leak in from the neighbor's low bit.
            *w = (*w >> 1) & 0x7777_7777_7777_7777;
        }
        self.ops = 0;
    }
}

/// Recency-list terminator (no slot index reaches it: a segment holds at
/// most `cap` ≤ `u32::MAX` slots, indexed from zero).
const NIL: u32 = u32::MAX;

/// One cached entry: the owning node, its neighbors in the segment's
/// recency list, and the payload (reused in place forever).
#[derive(Debug)]
struct Slot<T> {
    node: NodeId,
    /// Last-use stamp, read only by the min-tick scan reference.
    #[cfg(test)]
    tick: u64,
    /// Recency-list links (slot indices, [`NIL`] at either end);
    /// meaningful only while the slot is in the segment's `map`.
    prev: u32,
    next: u32,
    data: Vec<T>,
}

/// One lock's worth of the tier.
#[derive(Debug)]
struct Segment<T> {
    map: FnvHashMap<NodeId, u32>,
    /// Every slot is in `map`: an entry leaves only when an admit
    /// evicts it, and the admitted entry takes over its slot and buffer.
    slots: Vec<Slot<T>>,
    sketch: FreqSketch,
    cap: usize,
    /// Intrusive recency list over exactly the slots in `map`, in
    /// last-use order: `head` is the least recently used entry — the
    /// eviction victim — and `tail` the most recent.
    head: u32,
    tail: u32,
    /// Payload bytes of the entries in `map`.
    bytes: u64,
    /// The last stamp handed to a slot (see [`Slot::tick`]).
    #[cfg(test)]
    ticks: u64,
}

impl<T: Copy> Segment<T> {
    fn new(cap: usize) -> Self {
        Segment {
            map: FnvHashMap::default(),
            slots: Vec::new(),
            sketch: FreqSketch::new(cap),
            cap,
            head: NIL,
            tail: NIL,
            bytes: 0,
            #[cfg(test)]
            ticks: 0,
        }
    }

    /// Appends slot `i` to the recency list: it becomes the most recent
    /// entry.
    fn push_back(&mut self, i: u32) {
        #[cfg(test)]
        {
            self.ticks += 1;
            self.slots[i as usize].tick = self.ticks;
        }
        self.slots[i as usize].prev = self.tail;
        self.slots[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Marks slot `i` used: it becomes the most recent entry.
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
    }

    /// Takes slot `i` out of the map, the recency list and the byte
    /// count. Its payload buffer stays in place for the next writer.
    fn detach(&mut self, i: u32) {
        let slot = &self.slots[i as usize];
        self.bytes -= std::mem::size_of_val(slot.data.as_slice()) as u64;
        let node = slot.node;
        self.map.remove(&node);
        self.unlink(i);
    }

    /// Writes `(v, data)` into slot `i` — a new one, or a victim's just
    /// detached, whose buffer it reuses — and binds it in the map, the
    /// recency list and the byte count.
    fn write(&mut self, i: u32, v: NodeId, data: &[T]) {
        let slot = &mut self.slots[i as usize];
        slot.node = v;
        slot.data.clear();
        slot.data.extend_from_slice(data);
        self.map.insert(v, i);
        self.push_back(i);
        self.bytes += std::mem::size_of_val(data) as u64;
    }

    /// A new empty slot for a fresh entry while the segment is under
    /// capacity. `None` means the segment is full and someone has to be
    /// evicted.
    fn vacant_slot(&mut self) -> Option<u32> {
        if self.slots.len() == self.cap {
            return None;
        }
        self.slots.push(Slot {
            node: NodeId(0),
            #[cfg(test)]
            tick: 0,
            prev: NIL,
            next: NIL,
            data: Vec::new(),
        });
        Some(self.slots.len() as u32 - 1)
    }

    /// The bound slot with the oldest tick, found the way eviction used
    /// to find it — by reading every slot. Tests hold the recency list's
    /// head against it.
    #[cfg(test)]
    fn victim_by_scan(&self) -> Option<u32> {
        VICTIM_VISITS.set(VICTIM_VISITS.get() + self.map.len() as u64);
        self.map
            .values()
            .copied()
            .min_by_key(|&i| self.slots[i as usize].tick)
    }
}

#[cfg(test)]
thread_local! {
    /// Slots examined while choosing eviction victims on this thread —
    /// the complexity pin reads it instead of a clock.
    static VICTIM_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counter block shared by a tier's segments (all relaxed atomics — the
/// counters are telemetry, not synchronization).
#[derive(Debug, Default)]
struct TierCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    admits: AtomicU64,
    evicts: AtomicU64,
    rejects: AtomicU64,
    partition_saves: AtomicU64,
}

/// A point-in-time copy of one tier's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Lookups served from the tier.
    pub hits: u64,
    /// Lookups that fell through to the remote leg.
    pub misses: u64,
    /// Entries written.
    pub admits: u64,
    /// Entries displaced by LRU eviction.
    pub evicts: u64,
    /// Candidates the admission sketch turned away.
    pub rejects: u64,
    /// Hits that served a node whose owning partition was unreachable —
    /// each one legally avoided a degraded reply.
    pub partition_saves: u64,
    /// Payload bytes resident.
    pub bytes: u64,
    /// Entries resident.
    pub entries: u64,
}

impl TierSnapshot {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl lsdgnn_telemetry::MetricSource for TierSnapshot {
    fn collect(&self, out: &mut lsdgnn_telemetry::Scope<'_>) {
        out.counter("cache_hit", self.hits);
        out.counter("cache_miss", self.misses);
        out.counter("cache_admit", self.admits);
        out.counter("cache_evict", self.evicts);
        out.counter("cache_reject", self.rejects);
        out.counter("cache_partition_save", self.partition_saves);
        out.counter("cache_bytes", self.bytes);
        out.counter("cache_entries", self.entries);
        out.gauge("cache_hit_rate", self.hit_rate());
    }
}

/// A sharded, frequency-admitted cache of immutable per-node payload
/// vectors — the building block behind both hot-set tiers.
#[derive(Debug)]
pub struct ShardedTier<T> {
    segments: Vec<Mutex<Segment<T>>>,
    shard_mask: usize,
    capacity: usize,
    admission: bool,
    counters: TierCounters,
    /// Makes this tier choose victims by [`Segment::victim_by_scan`] —
    /// the reference the exactness proptest runs beside a list tier.
    #[cfg(test)]
    evict_by_scan: bool,
}

impl<T: Copy> ShardedTier<T> {
    /// A tier holding at most `capacity` entries across `shards`
    /// segments (rounded to a power of two and clamped so every segment
    /// holds at least one entry). `admission` gates inserts through the
    /// frequency sketch; without it the tier degrades to plain
    /// segment-LRU.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, shards: usize, admission: bool) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        let shards = shards.clamp(1, capacity).next_power_of_two();
        let shards = if shards > capacity {
            shards / 2
        } else {
            shards
        };
        let shards = shards.max(1);
        let seg_cap = capacity.div_ceil(shards);
        let segments = (0..shards)
            .map(|_| Mutex::new(Segment::new(seg_cap)))
            .collect();
        ShardedTier {
            segments,
            shard_mask: shards - 1,
            capacity,
            admission,
            counters: TierCounters::default(),
            #[cfg(test)]
            evict_by_scan: false,
        }
    }

    /// Locks `v`'s segment; returns the guard and `v`'s hash.
    #[inline]
    fn enter(&self, v: NodeId) -> (MutexGuard<'_, Segment<T>>, u64) {
        let h = mix(v.0);
        let seg = self.segments[(h as usize) & self.shard_mask]
            .lock()
            .expect("segment lock");
        (seg, h)
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entries and their payload bytes.
    fn live(&self) -> (usize, u64) {
        self.segments
            .iter()
            .map(|s| s.lock().expect("segment lock"))
            .fold((0, 0), |(n, b), s| (n + s.map.len(), b + s.bytes))
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.live().0
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> TierSnapshot {
        let c = &self.counters;
        let (entries, bytes) = self.live();
        TierSnapshot {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            admits: c.admits.load(Ordering::Relaxed),
            evicts: c.evicts.load(Ordering::Relaxed),
            rejects: c.rejects.load(Ordering::Relaxed),
            partition_saves: c.partition_saves.load(Ordering::Relaxed),
            bytes,
            entries: entries as u64,
        }
    }

    /// Counts one hit that served a node behind an unreachable
    /// partition — the "cache hit legally avoids a degraded reply"
    /// event the chaos plane wants quantified.
    pub fn note_partition_save(&self) {
        self.counters
            .partition_saves
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Whether a lookup of `v` would hit right now — a read-only probe:
    /// no counter, sketch count or recency refresh moves, so asking does
    /// not change what the tier later admits or evicts. For a caller
    /// that must know a row is servable without fetching it.
    pub fn contains(&self, v: NodeId) -> bool {
        self.enter(v).0.map.contains_key(&v)
    }

    /// Looks `v` up; on a hit the payload is *appended* to `out` and its
    /// length returned. The spans-into-arena shape tier N needs: the
    /// caller owns where cached bytes land.
    pub fn append_to(&self, v: NodeId, out: &mut Vec<T>) -> Option<usize> {
        let (mut seg, h) = self.enter(v);
        let i = self.lookup(&mut seg, v, h)?;
        let data = &seg.slots[i as usize].data;
        out.extend_from_slice(data);
        Some(data.len())
    }

    /// Looks `v` up; on a hit the payload is copied into `dst` (which
    /// must be exactly the payload length) and `true` returned. The
    /// fixed-width row shape tier A needs.
    pub fn copy_to(&self, v: NodeId, dst: &mut [T]) -> bool {
        let (mut seg, h) = self.enter(v);
        match self.lookup(&mut seg, v, h) {
            Some(i) => {
                let data = &seg.slots[i as usize].data;
                debug_assert_eq!(data.len(), dst.len(), "row width mismatch");
                dst.copy_from_slice(data);
                true
            }
            None => false,
        }
    }

    /// The locked lookup core: sketch count, then refresh + hit count on
    /// a resident entry, miss count otherwise.
    fn lookup(&self, seg: &mut Segment<T>, v: NodeId, h: u64) -> Option<u32> {
        seg.sketch.increment(h);
        match seg.map.get(&v).copied() {
            Some(i) => {
                seg.touch(i);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(i)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The LRU eviction victim of a full segment: the head of its
    /// recency list.
    #[inline]
    fn lru(&self, seg: &Segment<T>) -> Option<u32> {
        #[cfg(test)]
        {
            if self.evict_by_scan {
                return seg.victim_by_scan();
            }
            VICTIM_VISITS.set(VICTIM_VISITS.get() + 1);
        }
        (seg.head != NIL).then_some(seg.head)
    }

    /// Offers `(v, data)` for caching after a remote fetch. Present
    /// entries are refreshed; fresh entries fill free capacity; a full
    /// segment evicts its LRU victim only if the sketch rates the
    /// candidate strictly more popular (without admission, always).
    pub fn admit(&self, v: NodeId, data: &[T]) {
        let (mut seg, h) = self.enter(v);
        seg.sketch.increment(h);
        if let Some(&i) = seg.map.get(&v) {
            seg.touch(i);
            return; // cached graph data is immutable: touch, don't copy
        }
        if let Some(i) = seg.vacant_slot() {
            seg.write(i, v, data);
            self.counters.admits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Some(vi) = self.lru(&seg) else { return };
        // The victim defends its slot with its own frequency estimate.
        // Strictly greater wins: ties keep the incumbent, which is what
        // makes a warm cache scan-resistant (a one-hit wonder's estimate
        // can tie a decayed resident's, but never beat it).
        if self.admission
            && seg.sketch.estimate(h) <= seg.sketch.estimate(mix(seg.slots[vi as usize].node.0))
        {
            self.counters.rejects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        seg.detach(vi);
        self.counters.evicts.fetch_add(1, Ordering::Relaxed);
        seg.write(vi, v, data);
        self.counters.admits.fetch_add(1, Ordering::Relaxed);
    }

    /// Warmup insert: caches `(v, data)` only while the segment has free
    /// capacity — no eviction, so earlier (higher-priority) warm entries
    /// are never displaced by later ones. Returns whether it stuck.
    pub fn insert_warm(&self, v: NodeId, data: &[T]) -> bool {
        let (mut seg, _) = self.enter(v);
        if seg.map.contains_key(&v) {
            return true;
        }
        let Some(i) = seg.vacant_slot() else {
            return false;
        };
        seg.write(i, v, data);
        self.counters.admits.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Raises `v`'s sketch estimate to at least `level` without caching
    /// anything — the degree-prior half of warmup.
    pub fn raise_prior(&self, v: NodeId, level: u64) {
        let (mut seg, h) = self.enter(v);
        seg.sketch.raise(h, level);
    }
}

/// Tier N: remote neighbor-list spans, keyed by node.
pub type NeighborTier = ShardedTier<NodeId>;
/// Tier A: remote attribute rows, keyed by node.
pub type AttrTier = ShardedTier<f32>;

/// Segments per [`HotSetCache`] tier (clamped to the tier capacity).
const SEGMENTS: usize = 16;

/// Sizing of a [`HotSetCache`]. Both tiers run 16 segments with the
/// admission sketch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Tier-N capacity in neighbor lists; `0` disables the tier.
    pub neigh_capacity: usize,
    /// Tier-A capacity in attribute rows; `0` disables the tier.
    pub attr_capacity: usize,
    /// Degree-prior warmup: boost (and preload) the top-K-degree nodes
    /// at spawn. `0` starts cold.
    pub warm_top_degree: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            neigh_capacity: 4096,
            attr_capacity: 4096,
            warm_top_degree: 0,
        }
    }
}

impl CacheConfig {
    /// A config with both tiers sized to `capacity` each.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            neigh_capacity: capacity,
            attr_capacity: capacity,
            ..Default::default()
        }
    }

    /// Disables tier N, keeping only attribute rows (the attr-only
    /// bench arm).
    pub fn attr_only(mut self) -> Self {
        self.neigh_capacity = 0;
        self
    }
}

/// The two-tier hot-set cache the cluster data plane consults inline.
#[derive(Debug)]
pub struct HotSetCache {
    neigh: Option<NeighborTier>,
    attr: Option<AttrTier>,
}

/// Per-tier counter snapshots, `None` for a disabled tier. Registers
/// into telemetry as `neigh/cache_*` and `attr/cache_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheSnapshot {
    /// Tier-N (neighbor span) counters.
    pub neigh: Option<TierSnapshot>,
    /// Tier-A (attribute row) counters.
    pub attr: Option<TierSnapshot>,
}

impl lsdgnn_telemetry::MetricSource for CacheSnapshot {
    fn collect(&self, out: &mut lsdgnn_telemetry::Scope<'_>) {
        if let Some(n) = &self.neigh {
            n.collect(&mut out.nested("neigh"));
        }
        if let Some(a) = &self.attr {
            a.collect(&mut out.nested("attr"));
        }
    }
}

impl HotSetCache {
    /// Builds the cache; a tier with zero capacity is disabled.
    pub fn new(config: CacheConfig) -> Self {
        let neigh = (config.neigh_capacity > 0)
            .then(|| ShardedTier::new(config.neigh_capacity, SEGMENTS, true));
        let attr = (config.attr_capacity > 0)
            .then(|| ShardedTier::new(config.attr_capacity, SEGMENTS, true));
        HotSetCache { neigh, attr }
    }

    /// The neighbor-span tier, if enabled.
    pub fn neigh(&self) -> Option<&NeighborTier> {
        self.neigh.as_ref()
    }

    /// The attribute-row tier, if enabled.
    pub fn attr(&self) -> Option<&AttrTier> {
        self.attr.as_ref()
    }

    /// Per-tier counter snapshots.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            neigh: self.neigh.as_ref().map(|t| t.snapshot()),
            attr: self.attr.as_ref().map(|t| t.snapshot()),
        }
    }

    /// Degree-prior warmup (the paper's degree-aware hot-node
    /// identification): raises the admission-sketch estimate of the
    /// top-`k`-degree nodes proportionally to `log2(degree)`, and
    /// preloads the *remote-owned* ones (owner ≠ `local`) into both
    /// tiers — highest degree first, stopping at tier capacity. Preload
    /// reads the shared graph directly: warmup costs zero channel
    /// round trips and the preloaded bytes are the same truth a server
    /// reply would carry.
    pub fn warm_degree_prior(&self, pg: &PartitionedGraph, local: PartitionId, k: usize) {
        let g = pg.graph();
        let store = pg.attributes();
        let mut neigh_full = false;
        let mut attr_full = false;
        for v in g.top_degree_nodes(k) {
            let level = u64::from(64 - g.degree(v).leading_zeros());
            if let Some(t) = &self.neigh {
                t.raise_prior(v, level);
            }
            if let Some(t) = &self.attr {
                t.raise_prior(v, level);
            }
            if pg.owner(v) == local {
                continue; // local reads never touch the cache
            }
            if let (Some(t), false) = (&self.neigh, neigh_full) {
                neigh_full = !t.insert_warm(v, g.neighbors(v));
            }
            if let (Some(t), Some(s), false) = (&self.attr, store, attr_full) {
                attr_full = !t.insert_warm(v, s.get(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdgnn_graph::{generators, AttributeStore};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn attrs(v: NodeId) -> Vec<f32> {
        vec![v.0 as f32; 4]
    }

    /// A single-segment LRU tier without admission: the old
    /// `HotNodeCache` behavior, as a baseline for the semantics tests.
    fn lru(capacity: usize) -> AttrTier {
        ShardedTier::new(capacity, 1, false)
    }

    fn get(c: &AttrTier, v: NodeId) -> Option<Vec<f32>> {
        let mut out = Vec::new();
        c.append_to(v, &mut out).map(|_| out)
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = lru(2);
        c.admit(NodeId(1), &attrs(NodeId(1)));
        c.admit(NodeId(2), &attrs(NodeId(2)));
        assert!(get(&c, NodeId(1)).is_some()); // refresh 1
        c.admit(NodeId(3), &attrs(NodeId(3))); // evicts 2
        assert!(get(&c, NodeId(2)).is_none());
        assert!(get(&c, NodeId(1)).is_some());
        assert!(get(&c, NodeId(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn uniform_batch_sampling_sees_no_reuse() {
        // The paper's Tech-4 premise: 512-node batches against a huge id
        // space — a realistic cache can't help.
        let id_space = 10_000_000u64;
        let c: AttrTier = ShardedTier::new(10_000, 16, true);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            for _ in 0..512 {
                let v = NodeId(rng.gen_range(0..id_space));
                if get(&c, v).is_none() {
                    c.admit(v, &attrs(v));
                }
            }
        }
        assert!(
            c.snapshot().hit_rate() < 0.01,
            "uniform sampling hit rate {} should be ~0",
            c.snapshot().hit_rate()
        );
    }

    #[test]
    fn skewed_hub_access_caches_well() {
        // The flip side: AliGraph's "most frequently used nodes" cache —
        // an 80/20 hub access pattern hits hard.
        let c: AttrTier = ShardedTier::new(1_000, 16, true);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..20_000 {
            let v = if rng.gen_bool(0.8) {
                NodeId(rng.gen_range(0..500)) // hot set fits the cache
            } else {
                NodeId(rng.gen_range(0..10_000_000))
            };
            if get(&c, v).is_none() {
                c.admit(v, &attrs(v));
            }
        }
        assert!(
            c.snapshot().hit_rate() > 0.6,
            "hub-skewed hit rate {} should be high",
            c.snapshot().hit_rate()
        );
    }

    #[test]
    fn admission_sketch_protects_hot_entries_from_scan_churn() {
        // Fill a tiny tier with hot entries, touch them repeatedly, then
        // stream one-hit wonders through. With TinyLFU admission the hot
        // set survives; plain LRU would have been flushed.
        let hot: Vec<NodeId> = (0..8).map(NodeId).collect();
        let c: AttrTier = ShardedTier::new(8, 1, true);
        for &v in &hot {
            c.admit(v, &attrs(v));
        }
        for _ in 0..20 {
            for &v in &hot {
                assert!(get(&c, v).is_some());
            }
        }
        for i in 1000..1200 {
            let v = NodeId(i);
            assert!(get(&c, v).is_none());
            c.admit(v, &attrs(v));
        }
        let survivors = hot.iter().filter(|&&v| get(&c, v).is_some()).count();
        assert!(
            survivors >= 7,
            "scan resistance: {survivors}/8 hot entries survived"
        );
        assert!(c.snapshot().rejects > 0, "the sketch must have rejected");
    }

    #[test]
    fn cached_values_are_the_inserted_ones() {
        let c = lru(4);
        c.admit(NodeId(7), &[1.0, 2.0]);
        assert_eq!(get(&c, NodeId(7)).unwrap(), vec![1.0, 2.0]);
        // The fixed-width copy path answers the same bytes.
        let mut row = [0.0f32; 2];
        assert!(c.copy_to(NodeId(7), &mut row));
        assert_eq!(row, [1.0, 2.0]);
    }

    #[test]
    fn reinsert_overwrites_and_supports_shorter_vectors() {
        // Slot reuse must not leak stale tail values when an entry is
        // rewritten with a shorter payload.
        let c = lru(1);
        c.admit(NodeId(1), &[1.0, 2.0, 3.0, 4.0]);
        c.admit(NodeId(2), &[9.0]); // evicts 1, reuses its slot
        assert_eq!(get(&c, NodeId(2)).unwrap(), vec![9.0]);
        assert!(get(&c, NodeId(1)).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.snapshot().bytes, 4, "one f32 resident");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: AttrTier = ShardedTier::new(0, 4, true);
    }

    #[test]
    fn resident_counts_follow_admits_and_evictions() {
        // A dashboard must show what the tier holds: `entries`/`bytes`
        // are the mapped entries and their payload, through fills,
        // evictions and rewrites with a different payload length.
        let c: AttrTier = ShardedTier::new(8, 2, false);
        for i in 0..8 {
            c.admit(NodeId(i), &attrs(NodeId(i)));
        }
        let full = c.snapshot();
        assert_eq!(full.entries, c.len() as u64);
        assert_eq!(full.bytes, full.entries * 4 * 4);
        assert!(full.entries >= 4);
        assert_eq!(full.entries + full.evicts, full.admits);
        // Two more, one row and two floats wide, each landing in a full
        // or a free slot: the counts move by what was written and dropped.
        c.admit(NodeId(100), &[6.0, 7.0]);
        c.admit(NodeId(101), &[8.0]);
        let after = c.snapshot();
        assert_eq!(after.entries + after.evicts, after.admits);
        assert_eq!(
            after.bytes,
            full.bytes + 12 - (after.evicts - full.evicts) * 16,
            "evicted victims were 16-byte rows"
        );
        assert!(!c.is_empty());
    }

    #[test]
    fn contains_answers_what_a_lookup_would_and_moves_nothing() {
        // Capacity 2 in one segment: if the probe refreshed recency, the
        // admit below would evict node 2 instead of node 1.
        let c: AttrTier = ShardedTier::new(2, 1, false);
        c.admit(NodeId(1), &attrs(NodeId(1)));
        c.admit(NodeId(2), &attrs(NodeId(2)));
        let before = c.snapshot();
        assert!(c.contains(NodeId(1)));
        assert!(!c.contains(NodeId(3)));
        assert_eq!(c.snapshot(), before, "a probe is not a lookup");
        c.admit(NodeId(3), &attrs(NodeId(3)));
        assert!(!c.contains(NodeId(1)), "node 1 stayed the LRU victim");
        assert!(c.contains(NodeId(2)) && c.contains(NodeId(3)));
    }

    #[test]
    fn snapshot_registers_as_metric_source() {
        let cache = HotSetCache::new(CacheConfig::with_capacity(16));
        cache
            .neigh()
            .unwrap()
            .admit(NodeId(1), &[NodeId(2), NodeId(3)]);
        let mut out = Vec::new();
        assert!(cache
            .neigh()
            .unwrap()
            .append_to(NodeId(1), &mut out)
            .is_some());
        cache.attr().unwrap().admit(NodeId(1), &[0.5]);
        let mut reg = lsdgnn_telemetry::Registry::new();
        reg.register("cache", &[], Box::new(cache.snapshot()));
        let snap = reg.snapshot();
        assert_eq!(snap.get("cache/neigh/cache_hit").unwrap().as_f64(), 1.0);
        assert_eq!(snap.get("cache/neigh/cache_admit").unwrap().as_f64(), 1.0);
        assert_eq!(snap.get("cache/attr/cache_admit").unwrap().as_f64(), 1.0);
        assert_eq!(
            snap.get("cache/neigh/cache_bytes").unwrap().as_f64(),
            2.0 * std::mem::size_of::<NodeId>() as f64
        );
        assert!(snap.get("cache/attr/cache_hit_rate").is_some());
    }

    #[test]
    fn disabled_tiers_stay_none() {
        let cache = HotSetCache::new(CacheConfig {
            neigh_capacity: 0,
            attr_capacity: 8,
            ..Default::default()
        });
        assert!(cache.neigh().is_none());
        assert!(cache.attr().is_some());
        let snap = cache.snapshot();
        assert!(snap.neigh.is_none());
        assert!(snap.attr.is_some());
    }

    #[test]
    fn degree_prior_warmup_preloads_remote_hubs_only() {
        let g = generators::power_law(500, 8, 7);
        let store = AttributeStore::synthetic(500, 4, 7);
        let pg = lsdgnn_graph::PartitionedGraph::new(g, 2).with_attributes(store.clone());
        let cache = HotSetCache::new(CacheConfig::with_capacity(64));
        cache.warm_degree_prior(&pg, PartitionId(0), 32);
        let top = pg.graph().top_degree_nodes(32);
        let mut remote_seen = 0;
        for v in top {
            let mut out = Vec::new();
            let hit = cache.neigh().unwrap().append_to(v, &mut out).is_some();
            if pg.owner(v) == PartitionId(0) {
                assert!(!hit, "local node {v:?} must not be preloaded");
            } else if hit {
                remote_seen += 1;
                assert_eq!(out, pg.graph().neighbors(v), "span bytes are the truth");
                let mut row = vec![0.0; 4];
                assert!(cache.attr().unwrap().copy_to(v, &mut row));
                assert_eq!(row, store.get(v), "row bytes are the truth");
            }
        }
        assert!(remote_seen > 0, "some top-degree nodes are remote");
    }

    #[test]
    fn partition_saves_are_counted() {
        let c = lru(4);
        c.admit(NodeId(1), &[1.0]);
        assert!(get(&c, NodeId(1)).is_some());
        c.note_partition_save();
        assert_eq!(c.snapshot().partition_saves, 1);
    }

    #[test]
    fn sketch_ages_without_corrupting_neighbors() {
        let mut s = FreqSketch::new(4);
        let h = mix(42);
        for _ in 0..9 {
            s.increment(h);
        }
        assert!(s.estimate(h) >= 4, "pre-age estimate");
        s.age();
        let e = s.estimate(h);
        assert!((2..=7).contains(&e), "aging halves, got {e}");
        s.raise(h, 15);
        assert_eq!(s.estimate(h), 15);
    }

    /// Checks every segment's recency list against its map: every slot
    /// is mapped, the list holds exactly the mapped slots, in strictly
    /// ascending tick order, doubly linked, and its head is the entry a
    /// full scan would evict.
    fn check_recency_lists(t: &AttrTier) -> Result<(), String> {
        for (s, seg) in t.segments.iter().enumerate() {
            let seg = seg.lock().unwrap();
            if seg.slots.len() != seg.map.len() {
                return Err(format!(
                    "segment {s}: {} slots, {} mapped",
                    seg.slots.len(),
                    seg.map.len()
                ));
            }
            let scan = seg.victim_by_scan().unwrap_or(NIL);
            if seg.head != scan {
                return Err(format!(
                    "segment {s}: head {} != min-tick scan {scan}",
                    seg.head
                ));
            }
            let (mut walked, mut prev, mut i) = (0, NIL, seg.head);
            while i != NIL {
                let slot = &seg.slots[i as usize];
                if seg.map.get(&slot.node) != Some(&i) {
                    return Err(format!("segment {s}: listed slot {i} is not mapped"));
                }
                if slot.prev != prev {
                    return Err(format!("segment {s}: slot {i} has a wrong back link"));
                }
                if prev != NIL && seg.slots[prev as usize].tick >= slot.tick {
                    return Err(format!("segment {s}: ticks not ascending at slot {i}"));
                }
                walked += 1;
                if walked > seg.map.len() {
                    return Err(format!("segment {s}: list longer than the map"));
                }
                (prev, i) = (i, slot.next);
            }
            if walked != seg.map.len() || seg.tail != prev {
                return Err(format!(
                    "segment {s}: walked {walked} of {} mapped, tail {} vs {prev}",
                    seg.map.len(),
                    seg.tail
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// The recency list evicts exactly what the min-tick scan evicted:
        /// a list tier and a reference tier that still scans run the same
        /// random program and agree on every answer and every counter.
        #[test]
        fn recency_list_evicts_what_the_scan_would(
            shards in 1usize..=4,
            capacity in 1usize..=32,
            admission in 0u8..2,
            program in proptest::collection::vec((0u8..32, 0u64..48), 1..300),
        ) {
            let list: AttrTier = ShardedTier::new(capacity, shards, admission == 1);
            let mut scan: AttrTier = ShardedTier::new(capacity, shards, admission == 1);
            scan.evict_by_scan = true;
            for (step, &(op, k)) in program.iter().enumerate() {
                let v = NodeId(k);
                let answers = [&list, &scan].map(|t| match op {
                    0..=7 => {
                        let mut row = [0.0f32; 2];
                        t.copy_to(v, &mut row).then_some(row.to_vec())
                    }
                    8..=11 => get(t, v),
                    12..=27 | 31 => {
                        t.admit(v, &[k as f32, step as f32]);
                        None
                    }
                    28 => t.insert_warm(v, &[k as f32, -1.0]).then(Vec::new),
                    29 => t.contains(v).then(Vec::new),
                    _ => {
                        t.raise_prior(v, k % 16);
                        None
                    }
                });
                proptest::prop_assert_eq!(&answers[0], &answers[1], "step {} op {}", step, op);
                proptest::prop_assert_eq!(list.snapshot(), scan.snapshot(), "step {} op {}", step, op);
                for t in [&list, &scan] {
                    if let Err(why) = check_recency_lists(t) {
                        proptest::prop_assert!(false, "step {} op {}: {}", step, op, why);
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_probes_and_admits_keep_every_segment_consistent() {
        // Four threads interleave both probe shapes and admits over one
        // overlapping key range on a small tier (8 segments of 4, the
        // sketch on), so evictions, rejections and refreshes race across
        // segments. Afterwards every list is intact, every probe was
        // counted once, and the resident count is what the maps hold.
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        let tier: AttrTier = ShardedTier::new(32, 8, true);
        let row = |k: u64| [k as f32, -(k as f32)];
        // Released together, so the four programs overlap from the first op.
        let start = std::sync::Barrier::new(THREADS as usize);
        let probes: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (tier, start) = (&tier, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut rng = SmallRng::seed_from_u64(t);
                        let mut probes = 0;
                        let mut out = Vec::new();
                        for _ in 0..OPS {
                            // Skewed keys: half land on a 24-node head.
                            let k = if rng.gen_bool(0.5) {
                                rng.gen_range(0..24)
                            } else {
                                rng.gen_range(0..256)
                            };
                            let v = NodeId(k);
                            match rng.gen_range(0..3) {
                                0 => {
                                    let mut dst = [0.0f32; 2];
                                    probes += 1;
                                    if tier.copy_to(v, &mut dst) {
                                        assert_eq!(dst, row(k), "torn or foreign row");
                                    }
                                }
                                1 => {
                                    out.clear();
                                    probes += 1;
                                    if tier.append_to(v, &mut out).is_some() {
                                        assert_eq!(out, row(k), "torn or foreign row");
                                    }
                                }
                                _ => tier.admit(v, &row(k)),
                            }
                        }
                        probes
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        check_recency_lists(&tier).unwrap();
        let snap = tier.snapshot();
        assert_eq!(snap.hits + snap.misses, probes);
        assert!(snap.hits > 0 && snap.rejects > 0 && snap.evicts > 0);
        let mapped: usize = tier
            .segments
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum();
        assert_eq!(snap.entries, mapped as u64);
        assert_eq!(snap.bytes, snap.entries * 8);
    }

    #[test]
    fn choosing_a_victim_examines_one_entry_at_any_capacity() {
        // Complexity, not wall clock: offers to a full segment read the
        // list head and nothing else, rejected or admitted, at 16 entries
        // per segment and at 4096.
        fn visits(cap: usize, admission: bool, by_scan: bool, offers: u64) -> u64 {
            let mut c: AttrTier = ShardedTier::new(cap, 1, admission);
            c.evict_by_scan = by_scan;
            for i in 0..cap as u64 {
                c.admit(NodeId(i), &[0.0]);
            }
            let before = VICTIM_VISITS.get();
            for i in 0..offers {
                c.admit(NodeId(1_000_000 + i), &[0.0]);
            }
            VICTIM_VISITS.get() - before
        }
        for admission in [false, true] {
            assert_eq!(visits(16, admission, false, 10_000), 10_000);
            assert_eq!(visits(4096, admission, false, 10_000), 10_000);
        }
        // The counter does tell a scan apart: it pays the segment each time.
        assert_eq!(visits(16, true, true, 100), 100 * 16);
        assert_eq!(visits(4096, true, true, 100), 100 * 4096);
    }
}

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
//! only when they touch the same segment ("lock-light", not lock-free).
//! The tier is used a **pass at a time**: [`ShardedTier::probe`] and
//! [`ShardedTier::admit`] take a fetch's whole batch of keys, group it
//! by segment, and lock each touched segment once and add to each
//! counter once for the pass — not once per row, where every locked
//! read-modify-write would wait for the store misses of the row copies
//! issued before it.
//!
//! **A miss is nearly free.** Uniform sampling has little temporal reuse
//! (the paper's Tech-4), so most lookups miss and most offers are turned
//! away; the tier makes both cheap. Each segment has a counting
//! **residency filter** — eight counters per slot, bumped and dropped
//! under the segment's lock as keys come and go, read without it. A
//! probe passes its batch through the filter first: a key the filter
//! rules out is a miss with no lock, no map lookup and no sketch count.
//!
//! **Admission** is frequency-based in the TinyLFU mold: every segment
//! keeps a 4-bit count-min sketch with TinyLFU's **doorkeeper** bitset
//! in front of it. Free capacity fills unconditionally. An offer to a
//! full segment that the doorkeeper has not seen in the current window
//! only sets its bit and is rejected, without reading the sketch or the
//! victim; a repeat sighting is counted and displaces the segment's LRU
//! victim only when its estimated frequency exceeds the victim's.
//! One-hit wonders bounce off a warm cache instead of flushing it. The
//! sketch counts hits, repeat offers and the lookups that get past the
//! filter; a filtered miss and a first sighting count in none of it.
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

use lsdgnn_graph::{FnvHashMap, NodeId};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
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

/// A 4-bit count-min sketch (4 rows folded into one array) with a
/// doorkeeper bitset in front of it — the TinyLFU frequency estimator
/// behind segment admission.
///
/// Counters saturate at 15 and halve once the op count reaches a sample
/// window proportional to the segment capacity, so the estimate tracks
/// *recent* popularity rather than all of history. The doorkeeper
/// remembers which keys were offered once in the current window; aging
/// clears it.
#[derive(Debug)]
struct FreqSketch {
    /// 16 packed 4-bit counters per word.
    words: Vec<u64>,
    mask: u64,
    /// One bit per hash slot, 64 per word: set by a first sighting.
    door: Vec<u64>,
    door_mask: u64,
    ops: u32,
    window: u32,
}

impl FreqSketch {
    fn new(capacity: usize) -> Self {
        let counters = (capacity * 8).next_power_of_two().max(64);
        // Floor the sample window so tiny segments don't age their
        // history away mid-scan: aging keeps estimates *recent*, but a
        // window smaller than one adversarial burst erases the hot set's
        // defense exactly when it is needed.
        let window = ((capacity as u32) * 16).max(4096);
        // Four bits per op of the window: a window of first sightings
        // leaves at most a quarter of the bits set, so few newcomers
        // pass for repeats.
        let door_bits = (window as usize * 4).next_power_of_two();
        FreqSketch {
            words: vec![0; counters / 16],
            mask: (counters - 1) as u64,
            door: vec![0; door_bits / 64],
            door_mask: (door_bits - 1) as u64,
            ops: 0,
            window,
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
    /// four probes independent without four hash functions). Its bits
    /// start above the ones that picked the segment and its residency
    /// filter slot, which every key of this sketch shares, and its step
    /// is drawn above the doorkeeper's.
    #[inline]
    fn pos(&self, h: u64, i: u64) -> u64 {
        (h >> 16).wrapping_add(i.wrapping_mul(h >> 48 | 1)) & self.mask
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
        self.tick();
    }

    /// Passes an offer through the doorkeeper: `true` if `h` was seen
    /// before in this window. A first sighting only sets its bit — no
    /// counter moves — but still counts toward the aging window.
    fn seen_before(&mut self, h: u64) -> bool {
        let (word, mask) = self.door_bit(h);
        if self.door[word] & mask != 0 {
            return true;
        }
        self.door[word] |= mask;
        self.tick();
        false
    }

    /// The doorkeeper word and bit of hash `h`. High hash bits: the low
    /// ones pick the segment and its residency-filter slot.
    #[inline]
    fn door_bit(&self, h: u64) -> (usize, u64) {
        let bit = (h >> 32) & self.door_mask;
        ((bit >> 6) as usize, 1 << (bit & 63))
    }

    /// Advances the sample window by one op, aging at its end.
    fn tick(&mut self) {
        self.ops += 1;
        if self.ops >= self.window {
            self.age();
        }
    }

    /// Estimated access count (min over the four probes).
    fn estimate(&self, h: u64) -> u64 {
        (0..4).map(|i| self.get(self.pos(h, i))).min().unwrap_or(0)
    }

    /// Halves every counter and clears the doorkeeper — the TinyLFU
    /// reset that forgets old epochs of popularity.
    fn age(&mut self) {
        for w in &mut self.words {
            // Halve all 16 packed counters at once: shift, then mask the
            // bit that would leak in from the neighbor's low bit.
            *w = (*w >> 1) & 0x7777_7777_7777_7777;
        }
        self.door.fill(0);
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
    /// Segment locks taken on this thread — the batching pin reads it.
    static SEGMENT_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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

/// Adds a pass's count to a tier counter once (and not at all for zero).
#[inline]
fn add(counter: &AtomicU64, n: u64) {
    if n > 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
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
    /// Candidates admission turned away: first sightings the doorkeeper
    /// held back, and repeat sightings the sketch rated no more popular
    /// than the victim.
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
    /// The residency filter: per segment, `filter_mask + 1` counters,
    /// each the number of the segment's resident keys whose hash lands
    /// on it (sticky at `u8::MAX`, so a counter never reads below the
    /// truth). Written only under the segment's lock, read without it: a
    /// zero means "not resident", which settles most misses before any
    /// lock is taken.
    filter: Vec<AtomicU8>,
    filter_mask: usize,
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
    /// doorkeeper and the frequency sketch; without it the tier degrades
    /// to plain segment-LRU.
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
        // The first `capacity % shards` segments take one slot more, so
        // the segments hold exactly `capacity` between them.
        let (seg_cap, extra) = (capacity / shards, capacity % shards);
        let segments = (0..shards)
            .map(|s| Mutex::new(Segment::new(seg_cap + usize::from(s < extra))))
            .collect();
        // Eight counters per slot of the largest segment.
        let counters = (8 * capacity.div_ceil(shards)).next_power_of_two();
        ShardedTier {
            segments,
            shard_mask: shards - 1,
            filter: (0..shards * counters).map(|_| AtomicU8::new(0)).collect(),
            filter_mask: counters - 1,
            capacity,
            admission,
            counters: TierCounters::default(),
            #[cfg(test)]
            evict_by_scan: false,
        }
    }

    /// Locks segment `s`.
    #[inline]
    fn lock(&self, s: usize) -> MutexGuard<'_, Segment<T>> {
        #[cfg(test)]
        SEGMENT_LOCKS.set(SEGMENT_LOCKS.get() + 1);
        self.segments[s].lock().expect("segment lock")
    }

    /// Groups by segment, in stable order, the keys of a batch that
    /// `keep(hash)` selects. On return `scratch` is `[ends | kept |
    /// order]`: `ends[s]` is the end of segment `s`'s run (and the start
    /// of segment `s + 1`'s) within `order`, which lists the batch
    /// indices `j` (into `batch`) of segment 0's kept keys, then segment
    /// 1's, each run in batch order; `kept` lists the same indices in
    /// batch order. A counting sort over `kept`, so `keep` is asked once
    /// per key; no allocation once `scratch` has grown.
    fn group(
        &self,
        keys: &[NodeId],
        batch: &[u32],
        scratch: &mut Vec<u32>,
        keep: impl Fn(u64) -> bool,
    ) {
        let segs = self.segments.len();
        let seg_of = |j: u32| mix(keys[batch[j as usize] as usize].0) as usize & self.shard_mask;
        scratch.clear();
        scratch.resize(segs, 0);
        for (j, &i) in batch.iter().enumerate() {
            let h = mix(keys[i as usize].0);
            if keep(h) {
                scratch[h as usize & self.shard_mask] += 1;
                scratch.push(j as u32);
            }
        }
        let kept = scratch.len() - segs;
        scratch.resize(segs + 2 * kept, 0);
        let (cursor, rest) = scratch.split_at_mut(segs);
        let (picked, order) = rest.split_at_mut(kept);
        // Exclusive prefix sums: each segment's start…
        let mut start = 0;
        for c in cursor.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        // …which placement advances to its end.
        for &j in picked.iter() {
            let c = &mut cursor[seg_of(j)];
            order[*c as usize] = j;
            *c += 1;
        }
    }

    /// Runs `each(segment, j)` over a batch grouped by [`Self::group`],
    /// holding each touched segment's lock once, for all of its keys.
    fn for_each_grouped(&self, scratch: &[u32], mut each: impl FnMut(&mut Segment<T>, usize)) {
        let segs = self.segments.len();
        let (ends, rest) = scratch.split_at(segs);
        let order = &rest[(scratch.len() - segs) / 2..];
        let mut lo = 0;
        for (s, &hi) in ends.iter().enumerate() {
            let run = &order[lo as usize..hi as usize];
            lo = hi;
            if run.is_empty() {
                continue;
            }
            let mut seg = self.lock(s);
            for &j in run {
                each(&mut seg, j as usize);
            }
        }
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

    /// Counts `n` hits that served a node behind an unreachable
    /// partition — the "cache hit legally avoids a degraded reply"
    /// event the chaos plane wants quantified.
    pub fn note_partition_saves(&self, n: u64) {
        add(&self.counters.partition_saves, n);
    }

    /// The residency-filter counter of hash `h` (in `h`'s segment).
    #[inline]
    fn filter_slot(&self, h: u64) -> &AtomicU8 {
        let s = h as usize & self.shard_mask;
        let slot = (h >> self.shard_mask.count_ones()) as usize & self.filter_mask;
        &self.filter[s * (self.filter_mask + 1) + slot]
    }

    /// Whether a key of hash `h` may be resident. `false` is exact under
    /// the segment's lock; read without it, it is the answer of a moment
    /// ago, which a lookup that ran a moment earlier would have given.
    #[inline]
    fn may_hold(&self, h: u64) -> bool {
        self.filter_slot(h).load(Ordering::Relaxed) != 0
    }

    /// Moves `h`'s residency-filter counter by one, up for a key that
    /// becomes resident and down for one that leaves. Called under the
    /// segment's lock, so a plain load and store suffice; a saturated
    /// counter stays put.
    fn flag(&self, h: u64, resident: bool) {
        let c = self.filter_slot(h);
        let n = c.load(Ordering::Relaxed);
        if n != u8::MAX {
            c.store(if resident { n + 1 } else { n - 1 }, Ordering::Relaxed);
        }
    }

    /// Whether a lookup of `v` would hit right now — a read-only probe:
    /// no counter, sketch count or recency refresh moves, so asking does
    /// not change what the tier later admits or evicts. For a caller
    /// that must know a row is servable without fetching it. A key the
    /// residency filter rules out is answered without a lock.
    pub fn contains(&self, v: NodeId) -> bool {
        let h = mix(v.0);
        self.may_hold(h) && self.lock(h as usize & self.shard_mask).map.contains_key(&v)
    }

    /// Looks up, as one pass, the keys `batch` lists (positions into
    /// `keys`). A resident key's payload goes to `on_hit(position,
    /// payload)` under its segment's lock and its position leaves
    /// `batch`, which ends up holding the misses in their original
    /// order. Every lookup counts in the hit/miss counters; a hit
    /// refreshes the entry's recency.
    ///
    /// The batch first passes the residency filter, without a lock: a
    /// key it rules out is a miss that takes no lock, reads no map and
    /// leaves the admission sketch alone. Only the keys that may be
    /// resident are grouped by segment in stable order (`scratch` is the
    /// grouping's working space), looked up and counted in the sketch,
    /// so a call takes each segment that one of them lands in once and
    /// adds to each counter once. A probe changes no residency, so the
    /// filter reads the same throughout a pass; segments share no other
    /// state, so each one sees the same operations in the same order as
    /// a key-at-a-time loop would give it.
    pub fn probe(
        &self,
        keys: &[NodeId],
        batch: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
        mut on_hit: impl FnMut(u32, &[T]),
    ) {
        debug_assert!(keys.len() < NIL as usize, "positions must stay below NIL");
        self.group(keys, batch, scratch, |h| self.may_hold(h));
        let mut hits = 0;
        self.for_each_grouped(scratch, |seg, j| {
            let i = batch[j];
            let v = keys[i as usize];
            seg.sketch.increment(mix(v.0));
            if let Some(&k) = seg.map.get(&v) {
                seg.touch(k);
                on_hit(i, &seg.slots[k as usize].data);
                batch[j] = NIL;
                hits += 1;
            }
        });
        add(&self.counters.hits, hits);
        add(&self.counters.misses, batch.len() as u64 - hits);
        batch.retain(|&i| i != NIL);
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

    /// Offers, as one pass grouped like [`ShardedTier::probe`] (every
    /// key, each segment locked once), the keys `batch` lists (positions
    /// into `keys`) for caching after a remote fetch; `payload(j)` is the
    /// data of the `j`-th. A present entry is refreshed; a fresh entry
    /// fills free capacity. An offer to a full segment first meets the
    /// doorkeeper: a first sighting in the sketch's window is rejected
    /// having only set its bit, and a repeat sighting is counted in the
    /// sketch and evicts the segment's LRU victim only if the sketch
    /// rates it strictly more popular. Without admission a full segment
    /// always evicts.
    pub fn admit<'a>(
        &self,
        keys: &[NodeId],
        batch: &[u32],
        scratch: &mut Vec<u32>,
        payload: impl Fn(usize) -> &'a [T],
    ) where
        T: 'a,
    {
        self.group(keys, batch, scratch, |_| true);
        let (mut admits, mut evicts, mut rejects) = (0, 0, 0);
        self.for_each_grouped(scratch, |seg, j| {
            let v = keys[batch[j] as usize];
            let h = mix(v.0);
            // Under the lock the filter is exact: most offers skip the map.
            let resident = self.may_hold(h).then(|| seg.map.get(&v)).flatten();
            if let Some(&i) = resident {
                seg.sketch.increment(h);
                seg.touch(i);
                return; // cached graph data is immutable: touch, don't copy
            }
            if let Some(i) = seg.vacant_slot() {
                seg.sketch.increment(h);
                seg.write(i, v, payload(j));
                self.flag(h, true);
                admits += 1;
                return;
            }
            // A newcomer must be seen twice in a window before it may
            // challenge a resident: most offers are one-hit wonders, and
            // this turns them away without reading the victim.
            if self.admission && !seg.sketch.seen_before(h) {
                rejects += 1;
                return;
            }
            seg.sketch.increment(h);
            let Some(vi) = self.lru(seg) else { return };
            let victim = mix(seg.slots[vi as usize].node.0);
            // The victim defends its slot with its own frequency estimate.
            // Strictly greater wins: ties keep the incumbent, which is what
            // makes a warm cache scan-resistant (a one-hit wonder's estimate
            // can tie a decayed resident's, but never beat it).
            if self.admission && seg.sketch.estimate(h) <= seg.sketch.estimate(victim) {
                rejects += 1;
                return;
            }
            seg.detach(vi);
            self.flag(victim, false);
            evicts += 1;
            seg.write(vi, v, payload(j));
            self.flag(h, true);
            admits += 1;
        });
        add(&self.counters.admits, admits);
        add(&self.counters.evicts, evicts);
        add(&self.counters.rejects, rejects);
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
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            neigh_capacity: 4096,
            attr_capacity: 4096,
        }
    }
}

impl CacheConfig {
    /// A config with both tiers sized to `capacity` each.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            neigh_capacity: capacity,
            attr_capacity: capacity,
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
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A one-key probe: the payload on a hit.
    fn get<T: Copy>(c: &ShardedTier<T>, v: NodeId) -> Option<Vec<T>> {
        let mut out = None;
        c.probe(&[v], &mut vec![0], &mut Vec::new(), |_, d| {
            out = Some(d.to_vec())
        });
        out
    }

    /// A one-key admit.
    fn put<T: Copy>(c: &ShardedTier<T>, v: NodeId, data: &[T]) {
        c.admit(&[v], &[0], &mut Vec::new(), |_| data);
    }

    /// Over one segment's keys, whose low hash bits all agree, each of
    /// the sketch's four rows still reaches at least half the counters.
    #[test]
    fn every_sketch_row_spreads_over_one_segments_keys() {
        let tier: AttrTier = ShardedTier::new(1024, 16, true);
        let sketch = FreqSketch::new(64);
        let counters = sketch.mask as usize + 1;
        let hashes: Vec<u64> = (0..u64::MAX)
            .map(mix)
            .filter(|&h| h as usize & tier.shard_mask == 0)
            .take(8 * counters)
            .collect();
        for i in 0..4 {
            let reached: std::collections::HashSet<u64> =
                hashes.iter().map(|&h| sketch.pos(h, i)).collect();
            assert!(
                2 * reached.len() >= counters,
                "row {i} reaches {} of {counters} counters",
                reached.len()
            );
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = lru(2);
        put(&c, NodeId(1), &attrs(NodeId(1)));
        put(&c, NodeId(2), &attrs(NodeId(2)));
        assert!(get(&c, NodeId(1)).is_some()); // refresh 1
        put(&c, NodeId(3), &attrs(NodeId(3))); // evicts 2
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
                    put(&c, v, &attrs(v));
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
                put(&c, v, &attrs(v));
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
            put(&c, v, &attrs(v));
        }
        for _ in 0..20 {
            for &v in &hot {
                assert!(get(&c, v).is_some());
            }
        }
        for i in 1000..1200 {
            let v = NodeId(i);
            assert!(get(&c, v).is_none());
            put(&c, v, &attrs(v));
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
        put(&c, NodeId(7), &[1.0, 2.0]);
        assert_eq!(get(&c, NodeId(7)).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn reinsert_overwrites_and_supports_shorter_vectors() {
        // Slot reuse must not leak stale tail values when an entry is
        // rewritten with a shorter payload.
        let c = lru(1);
        put(&c, NodeId(1), &[1.0, 2.0, 3.0, 4.0]);
        put(&c, NodeId(2), &[9.0]); // evicts 1, reuses its slot
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
            put(&c, NodeId(i), &attrs(NodeId(i)));
        }
        let full = c.snapshot();
        assert_eq!(full.entries, c.len() as u64);
        assert_eq!(full.bytes, full.entries * 4 * 4);
        assert!(full.entries >= 4);
        assert_eq!(full.entries + full.evicts, full.admits);
        // Two more, one row and two floats wide, each landing in a full
        // or a free slot: the counts move by what was written and dropped.
        put(&c, NodeId(100), &[6.0, 7.0]);
        put(&c, NodeId(101), &[8.0]);
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
        put(&c, NodeId(1), &attrs(NodeId(1)));
        put(&c, NodeId(2), &attrs(NodeId(2)));
        let before = c.snapshot();
        assert!(c.contains(NodeId(1)));
        assert!(!c.contains(NodeId(3)));
        assert_eq!(c.snapshot(), before, "a probe is not a lookup");
        put(&c, NodeId(3), &attrs(NodeId(3)));
        assert!(!c.contains(NodeId(1)), "node 1 stayed the LRU victim");
        assert!(c.contains(NodeId(2)) && c.contains(NodeId(3)));
    }

    #[test]
    fn snapshot_registers_as_metric_source() {
        let cache = HotSetCache::new(CacheConfig::with_capacity(16));
        put(cache.neigh().unwrap(), NodeId(1), &[NodeId(2), NodeId(3)]);
        assert!(get(cache.neigh().unwrap(), NodeId(1)).is_some());
        put(cache.attr().unwrap(), NodeId(1), &[0.5]);
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
        });
        assert!(cache.neigh().is_none());
        assert!(cache.attr().is_some());
        let snap = cache.snapshot();
        assert!(snap.neigh.is_none());
        assert!(snap.attr.is_some());
    }

    #[test]
    fn partition_saves_are_counted() {
        let c = lru(4);
        put(&c, NodeId(1), &[1.0]);
        assert!(get(&c, NodeId(1)).is_some());
        c.note_partition_saves(0);
        c.note_partition_saves(2);
        assert_eq!(c.snapshot().partition_saves, 2);
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
    }

    /// Checks every segment's recency list against its map: every slot
    /// is mapped, the list holds exactly the mapped slots, in strictly
    /// ascending tick order, doubly linked, and its head is the entry a
    /// full scan would evict. Checks its residency filter too: every
    /// mapped key is flagged, and the counters add up to the mapped
    /// count (no counter saturates at these sizes).
    fn check_recency_lists(t: &AttrTier) -> Result<(), String> {
        let width = t.filter_mask + 1;
        for (s, seg) in t.segments.iter().enumerate() {
            let seg = seg.lock().unwrap();
            if seg.slots.len() != seg.map.len() {
                return Err(format!(
                    "segment {s}: {} slots, {} mapped",
                    seg.slots.len(),
                    seg.map.len()
                ));
            }
            if let Some(v) = seg.map.keys().find(|v| !t.may_hold(mix(v.0))) {
                return Err(format!("segment {s}: resident {v:?} not in the filter"));
            }
            let flagged: usize = t.filter[s * width..(s + 1) * width]
                .iter()
                .map(|c| c.load(Ordering::Relaxed) as usize)
                .sum();
            if flagged != seg.map.len() {
                return Err(format!(
                    "segment {s}: filter counts {flagged}, {} mapped",
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

    /// Every segment's entries in recency order (least recent first),
    /// with their payloads.
    fn resident(t: &AttrTier) -> Vec<Vec<(NodeId, Vec<f32>)>> {
        t.segments
            .iter()
            .map(|seg| {
                let seg = seg.lock().unwrap();
                let mut out = Vec::new();
                let mut i = seg.head;
                while i != NIL {
                    let slot = &seg.slots[i as usize];
                    out.push((slot.node, slot.data.clone()));
                    i = slot.next;
                }
                out
            })
            .collect()
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
            program in proptest::collection::vec((0u8..30, 0u64..48), 1..300),
        ) {
            let list: AttrTier = ShardedTier::new(capacity, shards, admission == 1);
            let mut scan: AttrTier = ShardedTier::new(capacity, shards, admission == 1);
            scan.evict_by_scan = true;
            for (step, &(op, k)) in program.iter().enumerate() {
                let v = NodeId(k);
                let answers = [&list, &scan].map(|t| match op {
                    0..=11 => get(t, v),
                    12..=28 => {
                        put(t, v, &[k as f32, step as f32]);
                        None
                    }
                    _ => t.contains(v).then(Vec::new),
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

        /// A batch is exactly its keys applied one at a time, in order: a
        /// batched tier and a key-at-a-time twin (several segments, the
        /// sketch on) run the same random probe and admit batches and
        /// agree on which keys hit and with what payload, on the misses
        /// left behind, on every counter, and on every segment's entries
        /// in recency order.
        #[test]
        fn batches_match_one_key_at_a_time(
            shards in 2usize..=8,
            capacity in 8usize..=48,
            program in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0u64..96, 0..24)),
                1..40,
            ),
        ) {
            let batched: AttrTier = ShardedTier::new(capacity, shards, true);
            let single: AttrTier = ShardedTier::new(capacity, shards, true);
            proptest::prop_assert!(batched.segments.len() > 1);
            let mut scratch = Vec::new();
            for (step, (op, ks)) in program.iter().enumerate() {
                let keys: Vec<NodeId> = ks.iter().map(|&k| NodeId(k)).collect();
                let rows: Vec<[f32; 2]> = ks.iter().map(|&k| [k as f32, step as f32]).collect();
                let mut batch: Vec<u32> = (0..keys.len() as u32).collect();
                if *op == 0 {
                    batched.admit(&keys, &batch, &mut scratch, |j| &rows[j]);
                    for (j, key) in keys.iter().enumerate() {
                        single.admit(std::slice::from_ref(key), &[0], &mut scratch, |_| &rows[j]);
                    }
                } else {
                    let mut hits = Vec::new();
                    batched.probe(&keys, &mut batch, &mut scratch, |i, d| hits.push((i, d.to_vec())));
                    hits.sort_by_key(|&(i, _)| i);
                    let (mut one_hits, mut one_misses) = (Vec::new(), Vec::new());
                    for (j, key) in keys.iter().enumerate() {
                        let mut one = vec![0];
                        single.probe(std::slice::from_ref(key), &mut one, &mut scratch, |_, d| {
                            one_hits.push((j as u32, d.to_vec()))
                        });
                        one_misses.extend(one.iter().map(|_| j as u32));
                    }
                    proptest::prop_assert_eq!(&hits, &one_hits, "step {}: hit set", step);
                    proptest::prop_assert_eq!(&batch, &one_misses, "step {}: misses", step);
                }
                proptest::prop_assert_eq!(batched.snapshot(), single.snapshot(), "step {}", step);
                proptest::prop_assert_eq!(resident(&batched), resident(&single), "step {}", step);
                for t in [&batched, &single] {
                    if let Err(why) = check_recency_lists(t) {
                        proptest::prop_assert!(false, "step {}: {}", step, why);
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_probes_and_admits_keep_every_segment_consistent() {
        // Four threads interleave one-key and batched probes and batched
        // admits over one overlapping key range on a small tier (8
        // segments of 4, the sketch on), so evictions, rejections and
        // refreshes race across segments. Afterwards every list is intact,
        // every probed key was counted once, and the resident count is
        // what the maps hold.
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
                        let (mut keys, mut batch, mut scratch) = (vec![], vec![], vec![]);
                        for _ in 0..OPS {
                            // One key or a batch of up to four; skewed
                            // keys: half land on a 24-node head.
                            let op = rng.gen_range(0..3);
                            let width = if op == 0 { 1 } else { rng.gen_range(1..=4) };
                            keys.clear();
                            for _ in 0..width {
                                keys.push(NodeId(if rng.gen_bool(0.5) {
                                    rng.gen_range(0..24)
                                } else {
                                    rng.gen_range(0..256)
                                }));
                            }
                            batch.clear();
                            batch.extend(0..width as u32);
                            let rows: Vec<[f32; 2]> = keys.iter().map(|v| row(v.0)).collect();
                            if op == 2 {
                                tier.admit(&keys, &batch, &mut scratch, |j| &rows[j]);
                                continue;
                            }
                            probes += width;
                            tier.probe(&keys, &mut batch, &mut scratch, |i, got| {
                                assert_eq!(got, rows[i as usize], "torn or foreign row");
                            });
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
        // Complexity, not wall clock: an offer to a full segment reads at
        // most the list head, rejected or admitted, at 16 entries per
        // segment and at 4096. Without admission every offer reads it;
        // with admission a first sighting reads none.
        fn visits(cap: usize, admission: bool, by_scan: bool, offers: u64) -> u64 {
            let mut c: AttrTier = ShardedTier::new(cap, 1, admission);
            c.evict_by_scan = by_scan;
            for i in 0..cap as u64 {
                put(&c, NodeId(i), &[0.0]);
            }
            let before = VICTIM_VISITS.get();
            for i in 0..offers {
                put(&c, NodeId(1_000_000 + i), &[0.0]);
            }
            VICTIM_VISITS.get() - before
        }
        for cap in [16, 4096] {
            assert_eq!(visits(cap, false, false, 10_000), 10_000);
            assert!(visits(cap, true, false, 10_000) <= 10_000);
        }
        // The counter does tell a scan apart: it pays the segment each time.
        assert_eq!(visits(16, false, true, 100), 100 * 16);
        assert_eq!(visits(4096, false, true, 100), 100 * 4096);
    }

    /// The sketch's counters and window position, segment by segment.
    fn sketches(t: &AttrTier) -> Vec<(Vec<u64>, u32)> {
        t.segments
            .iter()
            .map(|s| {
                let s = s.lock().unwrap();
                (s.sketch.words.clone(), s.sketch.ops)
            })
            .collect()
    }

    #[test]
    fn a_probe_the_filter_rules_out_takes_no_lock_and_counts_nothing() {
        // A warm tier, then 200 keys its residency filter rules out: all
        // misses, no segment lock, no sketch counter or window moved.
        let tier: AttrTier = ShardedTier::new(64, 8, true);
        for i in 0..64 {
            put(&tier, NodeId(i), &[0.0]);
        }
        assert!(tier.len() > 32);
        let keys: Vec<NodeId> = (1_000..)
            .map(NodeId)
            .filter(|v| !tier.may_hold(mix(v.0)))
            .take(200)
            .collect();
        let (before, sketch) = (tier.snapshot(), sketches(&tier));
        let locks = SEGMENT_LOCKS.get();
        let mut batch: Vec<u32> = (0..200).collect();
        tier.probe(&keys, &mut batch, &mut Vec::new(), |_, _| {
            panic!("a ruled-out key hit")
        });
        assert_eq!(SEGMENT_LOCKS.get() - locks, 0);
        assert_eq!(batch, (0..200).collect::<Vec<u32>>(), "every key a miss");
        assert_eq!(tier.snapshot().misses - before.misses, 200);
        assert_eq!(sketches(&tier), sketch);
        assert!(keys.iter().all(|&v| !tier.contains(v)));
        assert_eq!(SEGMENT_LOCKS.get() - locks, 0, "contains: no lock either");
    }

    #[test]
    fn a_full_segment_admits_only_a_repeat_sighting_that_outcounts_its_victim() {
        // One segment of two, filled: node 1 is the LRU victim, counted
        // once (by its fill).
        let c: AttrTier = ShardedTier::new(2, 1, true);
        put(&c, NodeId(1), &[1.0]);
        put(&c, NodeId(2), &[2.0]);
        let offer = |c: &AttrTier| {
            let (before, visits) = (c.snapshot(), VICTIM_VISITS.get());
            let words = sketches(c)[0].0.clone();
            put(c, NodeId(3), &[3.0]);
            let after = c.snapshot();
            let counted = sketches(c)[0].0 != words;
            (
                after.rejects - before.rejects,
                VICTIM_VISITS.get() - visits,
                counted,
            )
        };
        // First sighting: a reject that reads no victim and counts nothing.
        assert_eq!(offer(&c), (1, 0, false));
        // Second: counted, it meets the victim and ties it (1 vs 1).
        assert_eq!(offer(&c), (1, 1, true));
        // Third: 2 beats 1, and node 3 takes node 1's slot.
        assert_eq!(offer(&c), (0, 1, true));
        assert!(c.contains(NodeId(3)) && !c.contains(NodeId(1)));
        assert_eq!(c.snapshot().evicts, 1);
    }

    #[test]
    fn aging_clears_the_doorkeeper() {
        let mut s = FreqSketch::new(4);
        let h = mix(42);
        assert!(!s.seen_before(h), "first sighting");
        assert!(s.seen_before(h), "second sighting");
        assert_eq!(s.ops, 1, "a first sighting counts toward the window");
        s.age();
        assert!(!s.seen_before(h), "a new window forgets the sighting");
        // Through a tier: once a window of other offers has gone by, a
        // key sighted before it is a first sighting again.
        let c: AttrTier = ShardedTier::new(1, 1, true);
        put(&c, NodeId(0), &[0.0]);
        put(&c, NodeId(7), &[7.0]);
        let door = |c: &AttrTier| {
            let seg = c.segments[0].lock().unwrap();
            let (word, mask) = seg.sketch.door_bit(mix(7));
            seg.sketch.door[word] & mask != 0
        };
        assert!(door(&c), "node 7's first sighting set its bit");
        let mut filler = 1_000;
        while c.segments[0].lock().unwrap().sketch.ops != 0 {
            put(&c, NodeId(filler), &[0.0]);
            filler += 1;
        }
        assert!(!door(&c), "the window's end cleared it");
        let (visits, rejects) = (VICTIM_VISITS.get(), c.snapshot().rejects);
        put(&c, NodeId(7), &[7.0]);
        assert_eq!(VICTIM_VISITS.get() - visits, 0, "no victim read");
        assert_eq!(c.snapshot().rejects - rejects, 1);
    }

    #[test]
    fn a_tier_never_holds_more_than_its_capacity() {
        // Capacities that do not divide by the 16 segments: the first
        // `capacity % 16` segments take one slot more, none rounds up.
        for capacity in [3, 17, 1000, 4096] {
            let c: AttrTier = ShardedTier::new(capacity, 16, false);
            for i in 0..20_000 {
                put(&c, NodeId(i), &[0.0]);
            }
            assert_eq!(c.len(), capacity, "capacity {capacity}");
            assert!(c.len() <= c.capacity());
        }
    }

    #[test]
    fn a_batch_takes_each_touched_segment_lock_once() {
        // Locks, not wall clock: a probe or an admit of a batch locks
        // each segment its keys touch once, however many keys land there.
        let tier: AttrTier = ShardedTier::new(64, 8, true);
        let seg = |v: NodeId| mix(v.0) as usize & tier.shard_mask;
        let keys: Vec<NodeId> = (0..200).map(NodeId).collect();
        let all: Vec<u32> = (0..200).collect();
        let rows: Vec<[f32; 2]> = keys.iter().map(|v| [v.0 as f32, 0.0]).collect();
        let mut scratch = Vec::new();
        let locks = |f: &mut dyn FnMut()| {
            let before = SEGMENT_LOCKS.get();
            f();
            SEGMENT_LOCKS.get() - before
        };
        assert_eq!(
            locks(&mut || tier.admit(&keys, &all, &mut scratch, |j| &rows[j])),
            8
        );
        assert_eq!(
            locks(&mut || tier.probe(&keys, &mut all.clone(), &mut scratch, |_, _| {})),
            8
        );
        // Keys of three segments only, several each: three locks.
        let three: Vec<u32> = all
            .iter()
            .copied()
            .filter(|&i| seg(keys[i as usize]) < 3)
            .collect();
        assert!(three.len() > 3 * 4);
        assert_eq!(
            locks(&mut || tier.probe(&keys, &mut three.clone(), &mut scratch, |_, _| {})),
            3
        );
        assert_eq!(
            locks(&mut || tier.admit(&keys, &three, &mut scratch, |j| &rows[j])),
            3
        );
        assert_eq!(
            locks(&mut || tier.probe(&keys, &mut Vec::new(), &mut scratch, |_, _| {})),
            0
        );
        let snap = tier.snapshot();
        assert_eq!(snap.hits + snap.misses, 200 + three.len() as u64);
    }
}

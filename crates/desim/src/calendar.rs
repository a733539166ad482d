//! The hierarchical calendar queue: a multi-level bucketed time wheel
//! over raw `Time` ticks with an overflow heap for far-future events.
//!
//! # Geometry
//!
//! Level 0 buckets are [`SLOT_TICKS`] ticks wide and each level holds
//! [`SLOTS`] buckets; every level up multiplies the bucket width by
//! `SLOTS`. With 6 levels of 64 buckets over 256-tick base slots the
//! wheel spans `256 * 64^6 ≈ 1.76e13` ticks (~17.6 simulated seconds at
//! 1 tick = 1 ps) — events beyond that land in a conventional binary
//! heap (`overflow`) and migrate onto the wheel when it drains up to
//! their aligned block.
//!
//! # Ordering discipline
//!
//! Buckets are unsorted `Vec`s of compact `EventKey`s; total order is
//! only ever imposed on the *current* window, kept as a Vec sorted
//! descending by `(at, seq)` — timestamp order with FIFO tie-breaking
//! on the global sequence number, popped from the tail. Cascades only
//! run while that window is empty, so refilling it is one append pass
//! plus one `sort_unstable` per drained bucket (not a per-key heap
//! sift); a due-now `push` into a non-empty window falls back to a
//! binary-search insert. Bucket membership is computed from the XOR of
//! the event timestamp with the wheel's `elapsed` cursor (the classic
//! hashed-wheel rule), which keeps three invariants that make draining
//! `current` first always correct:
//!
//! 1. every key on level `L` differs from `elapsed` only in (and above)
//!    level `L`'s digit, so its bucket index is strictly ahead of the
//!    cursor's digit at that level;
//! 2. every wheel key is within the cursor's top-level block while every
//!    overflow key is beyond it, so the wheel fully drains before the
//!    overflow migrates;
//! 3. every key in `current` is at or before the current level-0 bucket
//!    window, and every other key is after it.
//!
//! Cancellation is lazy: the arena invalidates the slot and the stale
//! key is skipped (a tombstone) when the wheel reaches it.

use crate::arena::EventHandle;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 bucket width in ticks (256 ticks = 0.256 ns).
const SLOT_SHIFT: u32 = 8;
/// Level-0 bucket width in ticks.
pub const SLOT_TICKS: u64 = 1 << SLOT_SHIFT;
/// log2 of the bucket count per level.
const LEVEL_BITS: u32 = 6;
/// Buckets per level.
pub const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; beyond `SLOT_TICKS * SLOTS^LEVELS` ticks ahead events
/// overflow to the heap.
pub const LEVELS: usize = 6;

/// A compact scheduled-event key: the closure itself lives in the event
/// arena under `handle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventKey {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) handle: EventHandle,
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

fn shift_for(level: usize) -> u32 {
    SLOT_SHIFT + LEVEL_BITS * level as u32
}

fn digit(ticks: u64, level: usize) -> usize {
    ((ticks >> shift_for(level)) as usize) & (SLOTS - 1)
}

/// The multi-level wheel plus overflow heap.
pub(crate) struct CalendarQueue {
    /// Wheel cursor in ticks; only ever advances, and never past the
    /// earliest pending key.
    elapsed: u64,
    /// `buckets[L * SLOTS + slot]` holds keys whose timestamp first
    /// differs from `elapsed` in level `L`'s digit (flattened to one
    /// `Vec` to save a pointer chase on the hot path).
    buckets: Vec<Vec<EventKey>>,
    /// One bit per slot per level — lets the advance loop find the next
    /// occupied bucket with a single `trailing_zeros`.
    occupied: [u64; LEVELS],
    /// Keys due in (or before) the current level-0 bucket window, sorted
    /// descending by `(at, seq)` — the earliest key is at the tail.
    current: Vec<EventKey>,
    /// Keys beyond the wheel span.
    overflow: BinaryHeap<Reverse<EventKey>>,
    /// Recycled bucket capacity: cascades swap the drained bucket's
    /// allocation in here instead of freeing it, so steady-state
    /// advancing does not touch the allocator.
    scratch: Vec<EventKey>,
    /// Total keys held (including lazy-cancelled tombstones).
    keys: usize,
}

impl CalendarQueue {
    pub(crate) fn new() -> CalendarQueue {
        CalendarQueue {
            elapsed: 0,
            buckets: vec![Vec::new(); LEVELS * SLOTS],
            occupied: [0; LEVELS],
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            keys: 0,
        }
    }

    /// Keys held, tombstones included (diagnostics only — live-event
    /// counts come from the arena).
    pub(crate) fn keys(&self) -> usize {
        self.keys
    }

    pub(crate) fn push(&mut self, key: EventKey) {
        self.keys += 1;
        let sorted_len = self.current.len();
        self.place(key);
        // `place` appends to `current` unsorted; restore the descending
        // order with a binary-search insert when it landed amid existing
        // keys (a single appended key is trivially in order).
        if self.current.len() > sorted_len && sorted_len > 0 {
            let key = self.current.pop().expect("appended above");
            let pos = self.current.partition_point(|k| *k > key);
            self.current.insert(pos, key);
        }
    }

    fn place(&mut self, key: EventKey) {
        let at = key.at.as_ticks();
        let xor = at ^ self.elapsed;
        if at <= self.elapsed || xor < SLOT_TICKS {
            // Due now, in the past relative to the cursor (possible after
            // `run_until` parked simulated time behind an advanced
            // cursor), or inside the current level-0 bucket window.
            self.current.push(key);
            return;
        }
        let level = ((63 - xor.leading_zeros() - SLOT_SHIFT) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(Reverse(key));
            return;
        }
        let slot = digit(at, level);
        self.buckets[level * SLOTS + slot].push(key);
        self.occupied[level] |= 1 << slot;
    }

    /// Advances the wheel until `current` holds the earliest pending key.
    /// Returns `false` when the queue is empty.
    ///
    /// Only ever cascades while `current` is empty, so keys appended to
    /// it by `place` can be batch-sorted once per drained bucket.
    fn advance_to_next(&mut self) -> bool {
        loop {
            if !self.current.is_empty() {
                return true;
            }
            // Lowest level with a bucket strictly ahead of the cursor's
            // digit; invariant 1 guarantees none exist at or behind it.
            let mut cascaded = false;
            for level in 0..LEVELS {
                let cursor = digit(self.elapsed, level);
                // Buckets strictly ahead of the cursor's digit (invariant
                // 1: occupied buckets are never at or behind it).
                let ahead = self.occupied[level] & (!0u64 << cursor << 1);
                if ahead == 0 {
                    continue;
                }
                let slot = ahead.trailing_zeros() as usize;
                // Swap the drained bucket's allocation with the scratch
                // vec; its capacity comes back as the new scratch below.
                let mut bucket = std::mem::replace(
                    &mut self.buckets[level * SLOTS + slot],
                    std::mem::take(&mut self.scratch),
                );
                self.occupied[level] &= !(1u64 << slot);
                // Jump the cursor to the bucket's window base: keep the
                // digits above `level`, set `level`'s digit to `slot`,
                // zero everything below.
                let above = shift_for(level + 1);
                self.elapsed =
                    (self.elapsed >> above << above) | ((slot as u64) << shift_for(level));
                // Re-placing never targets the just-drained bucket (the
                // cursor digit at `level` is now `slot`, so these keys
                // land strictly below `level` or in `current`).
                for key in bucket.drain(..) {
                    self.place(key);
                }
                self.scratch = bucket;
                self.current.sort_unstable_by(|a, b| b.cmp(a));
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: migrate the overflow block containing the next
            // pending key (invariant 2: nothing on the wheel precedes it).
            match self.overflow.peek() {
                Some(Reverse(head)) => {
                    self.elapsed = head.at.as_ticks();
                    while let Some(Reverse(head)) = self.overflow.peek() {
                        let xor = head.at.as_ticks() ^ self.elapsed;
                        if xor >> shift_for(LEVELS) != 0 {
                            break;
                        }
                        let Reverse(key) = self.overflow.pop().expect("peeked");
                        self.place(key);
                    }
                    self.current.sort_unstable_by(|a, b| b.cmp(a));
                }
                None => return false,
            }
        }
    }

    /// Timestamp of the earliest pending key (tombstones included),
    /// advancing the wheel as needed.
    pub(crate) fn peek_at(&mut self) -> Option<Time> {
        if self.advance_to_next() {
            self.current.last().map(|k| k.at)
        } else {
            None
        }
    }

    /// Removes and returns the earliest key in `(at, seq)` order.
    pub(crate) fn pop(&mut self) -> Option<EventKey> {
        if !self.advance_to_next() {
            return None;
        }
        let key = self.current.pop().expect("advance found a key");
        self.keys -= 1;
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> EventKey {
        EventKey {
            at: Time::from_ticks(at),
            seq,
            handle: EventHandle {
                slot: seq as u32,
                generation: 0,
            },
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = CalendarQueue::new();
        for (at, seq) in [(500u64, 0u64), (100, 1), (500, 2), (100, 3)] {
            q.push(key(at, seq));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|k| (k.at.as_ticks(), k.seq))
            .collect();
        assert_eq!(order, vec![(100, 1), (100, 3), (500, 0), (500, 2)]);
    }

    #[test]
    fn spans_every_level_and_the_overflow() {
        let mut q = CalendarQueue::new();
        // One event per level plus two beyond the wheel span.
        let mut ats = vec![1u64, 300, 20_000, 1 << 21, 1 << 27, 1 << 33, 1 << 39];
        ats.push((1u64 << 45) + 17);
        ats.push(1 << 45);
        for (seq, &at) in ats.iter().enumerate() {
            q.push(key(at, seq as u64));
        }
        let mut sorted = ats.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|k| k.at.as_ticks())
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        let mut rng = crate::rng::DetRng::seed_from(7);
        let mut seq = 0u64;
        let mut last = 0u64;
        let mut pending = 0i64;
        for _ in 0..10_000 {
            if pending == 0 || rng.next_below(3) > 0 {
                let spread = rng.next_below(30);
                let at = last + rng.next_below(1 << spread);
                q.push(key(at, seq));
                seq += 1;
                pending += 1;
            } else {
                let k = q.pop().expect("pending events");
                assert!(k.at.as_ticks() >= last, "{} < {}", k.at.as_ticks(), last);
                last = k.at.as_ticks();
                pending -= 1;
            }
        }
        let mut remaining: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|k| k.at.as_ticks())
            .collect();
        assert_eq!(remaining.len(), pending as usize);
        let mut sorted = remaining.clone();
        sorted.sort_unstable();
        assert_eq!(remaining, sorted);
        remaining.clear();
        assert_eq!(q.keys(), 0);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        for (seq, at) in [9u64, 4, 1 << 40, 77].into_iter().enumerate() {
            q.push(key(at, seq as u64));
        }
        while let Some(at) = q.peek_at() {
            assert_eq!(q.pop().unwrap().at, at);
        }
        assert!(q.pop().is_none());
    }
}

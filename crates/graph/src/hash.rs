//! Fast non-cryptographic hashing for node-id keyed maps.
//!
//! `std`'s default `SipHash` pays for HashDoS resistance the serving
//! data plane never needs: node ids are internal `u64` newtypes, not
//! attacker-controlled strings. [`FnvHasher`] is FNV-1a with a
//! multiply-fold fast path for the integer writes the derived
//! `Hash` impls of [`NodeId`] (and tuples of it) emit —
//! effectively an identity hasher with one mixing multiply, which is
//! what a `u64` key space wants.
//!
//! # Example
//!
//! ```
//! use lsdgnn_graph::hash::NodeMap;
//! use lsdgnn_graph::NodeId;
//!
//! let mut m: NodeMap<u32> = NodeMap::default();
//! m.insert(NodeId(17), 1);
//! assert_eq!(m[&NodeId(17)], 1);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::types::NodeId;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Fibonacci multiplier (2^64 / golden ratio) for the integer fast path.
const FIB_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over byte streams, with a multiply-fold fast path for the
/// fixed-width integer writes that `u64`-newtype keys produce.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    // Integer keys (NodeId's derived Hash emits one write_u64) skip the
    // per-byte loop: xor-fold then one mixing multiply keeps distinct
    // ids in distinct buckets at a fraction of SipHash's cost.
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FIB_MIX);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// The `BuildHasher` for [`FnvHasher`]-keyed collections.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` hashed with [`FnvHasher`].
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed with [`FnvHasher`].
pub type FnvHashSet<K> = HashSet<K, FnvBuildHasher>;

/// The node-id keyed map the sampling data plane uses everywhere.
pub type NodeMap<V> = FnvHashMap<NodeId, V>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_node_keys() {
        let mut m: NodeMap<u64> = NodeMap::default();
        for v in 0..1_000u64 {
            m.insert(NodeId(v), v * 2);
        }
        assert_eq!(m.len(), 1_000);
        for v in 0..1_000u64 {
            assert_eq!(m[&NodeId(v)], v * 2);
        }
    }

    #[test]
    fn distinct_ids_hash_distinctly() {
        // Sequential and stride-heavy id patterns (the common frontier
        // shapes) must not collapse onto one bucket chain.
        let mut seen = FnvHashSet::default();
        for v in 0..10_000u64 {
            let mut h = FnvHasher::default();
            h.write_u64(v);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_path_matches_fnv1a_vectors() {
        // Classic FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn string_and_tuple_keys_work() {
        let mut m: FnvHashMap<String, u32> = FnvHashMap::default();
        m.insert("clicks".into(), 3);
        assert_eq!(m["clicks"], 3);
        let mut t: FnvHashMap<(NodeId, NodeId), u32> = FnvHashMap::default();
        t.insert((NodeId(1), NodeId(2)), 9);
        assert_eq!(t[&(NodeId(1), NodeId(2))], 9);
    }
}

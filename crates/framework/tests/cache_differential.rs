//! Differential pinning of the two-tier hot-set cache: for arbitrary
//! zipf-skewed workloads, capacities, and tier combinations, a cached
//! cluster must answer byte-identically to an uncached one — cold,
//! warming, and warm; the cache serves the *same truth faster*, never a
//! different truth. Three arms cover the ways a cache classically goes
//! wrong:
//!
//! * **Skewed sweep** — every request digests equal across cache-off /
//!   attr-only / attr+neigh arms, at capacities from starved (constant
//!   eviction + admission churn) to ample, over repeated hot sets
//!   (cold→warm transitions happen mid-sequence).
//! * **Chaos** — a cold cache under a partition kill degrades exactly
//!   like an uncached cluster; a *warm* cache serves the healthy answer
//!   with `degraded == false`, counting partition saves.
//! * **Reorder** — a tier warmed under old node labels serves wrong rows
//!   under the new ones (the stale-key wrong-answer pin, at the tier
//!   level). Cached data is immutable, so a reordered graph gets a new
//!   cluster and a new, cold cache; no tier is carried across.

use lsdgnn_framework::{CacheConfig, CpuBackend, HotSetCache, SampleRequest, SamplingBackend};
use lsdgnn_graph::reorder::ReorderPolicy;
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};
use proptest::prelude::*;

const NODES: u64 = 400;
const ATTR_LEN: usize = 6;

fn pg(gseed: u64, partitions: u32) -> PartitionedGraph {
    let g = generators::power_law(NODES, 8, gseed);
    let a = AttributeStore::synthetic(NODES, ATTR_LEN, gseed);
    PartitionedGraph::new(g, partitions).with_attributes(a)
}

fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A zipf-flavored root: 80% land in a small hot head, the rest on a
/// cubed tail — the access skew the hot-set cache exists for.
fn skewed_root(seed: u64, i: u64, hot: u64) -> NodeId {
    let h = mix(seed.wrapping_mul(0x9e37).wrapping_add(i));
    if h % 10 < 8 {
        NodeId(mix(h) % hot)
    } else {
        let f = (mix(h ^ 0xabcd) % 1000) as f64 / 1000.0;
        NodeId(((f * f * f) * (NODES - 1) as f64) as u64)
    }
}

fn request(seed: u64, round: u64, roots: u64, hot: u64) -> SampleRequest {
    SampleRequest {
        // Rounds repeat the same skewed population (fresh picks per
        // round), so later rounds run mostly warm.
        roots: (0..roots)
            .map(|i| skewed_root(seed, i + (round % 3) * roots, hot))
            .collect(),
        hops: 2,
        fanout: 5,
        seed: seed.wrapping_add(round * 31),
    }
}

proptest! {
    #[test]
    fn cached_cluster_is_byte_identical_to_uncached(
        gseed in 0u64..500,
        partitions in 2u32..5,
        roots in 4u64..16,
        hot in 8u64..80,
        neigh_cap in 1usize..300,
        attr_cap in 1usize..300,
        warm_top in 0usize..60,
    ) {
        let uncached = CpuBackend::from_partitioned(pg(gseed, partitions));
        let arms = [
            CacheConfig::with_capacity(attr_cap).attr_only(),
            CacheConfig {
                neigh_capacity: neigh_cap,
                attr_capacity: attr_cap,
                warm_top_degree: warm_top,
            },
        ];
        for (a, cfg) in arms.into_iter().enumerate() {
            let cached = CpuBackend::from_partitioned_cached(pg(gseed, partitions), cfg);
            // Rounds revisit the same hot set: round 0 runs cold, later
            // rounds hit — digests must never notice.
            for round in 0..4u64 {
                let req = request(gseed, round, roots, hot);
                let want = uncached.sample_block(&req);
                let got = cached.sample_block(&req);
                prop_assert_eq!(want.digest(), got.digest(),
                    "arm {} round {}: digests diverge", a, round);
                prop_assert_eq!(&want, &got, "arm {} round {}: blocks diverge", a, round);
                prop_assert_eq!(
                    uncached.gather_attributes(&want.nodes),
                    cached.gather_attributes(&got.nodes),
                    "arm {} round {}: attrs diverge", a, round
                );
            }
            // The skewed revisits must actually exercise the tiers.
            let snap = cached.cache_snapshot().expect("cached arm has a snapshot");
            let attr = snap.attr.expect("attr tier on");
            prop_assert!(attr.hits + attr.misses > 0, "arm {}: attr tier never consulted", a);
        }
    }

    #[test]
    fn chaos_cold_cache_degrades_identically_and_warm_cache_saves(
        gseed in 0u64..200,
        kill in 1u32..4,
    ) {
        let partitions = 4u32;
        let kill = kill % partitions; // never the worker-local partition 0
        prop_assume!(kill != 0);
        let roots: Vec<NodeId> = (0..12).map(|i| skewed_root(gseed, i, 40)).collect();
        let req = SampleRequest { roots, hops: 2, fanout: 5, seed: gseed ^ 0x5eed };

        // Cold arm: with nothing cached, a partition kill degrades the
        // cached cluster exactly like the uncached one.
        let uncached = CpuBackend::from_partitioned(pg(gseed, partitions));
        let cold = CpuBackend::from_partitioned_cached(
            pg(gseed, partitions),
            CacheConfig::with_capacity(4096),
        );
        let a = uncached.sample_excluding(&req, &[kill]);
        let b = cold.sample_excluding(&req, &[kill]);
        prop_assert_eq!(&a.block, &b.block, "cold chaos blocks diverge");
        prop_assert_eq!(a.degraded, b.degraded);
        prop_assert_eq!(a.unreachable, b.unreachable);
    }
}

#[test]
fn warm_cache_survives_partition_kill_without_degrading() {
    let partitions = 4u32;
    let gseed = 77u64;
    let roots: Vec<NodeId> = (0..12).map(|i| skewed_root(gseed, i, 40)).collect();
    let req = SampleRequest {
        roots,
        hops: 2,
        fanout: 5,
        seed: gseed ^ 0x5eed,
    };

    let uncached = CpuBackend::from_partitioned(pg(gseed, partitions));
    let healthy = uncached.sample_block(&req);
    let healthy_attrs = uncached.gather_attributes(&healthy.nodes);

    let warm = CpuBackend::from_partitioned_cached(
        pg(gseed, partitions),
        CacheConfig::with_capacity(4096),
    );
    assert_eq!(warm.sample_block(&req), healthy, "warm run must be exact");
    let _ = warm.gather_attributes(&healthy.nodes);

    // Kill a non-local partition; the warm tiers now stand in for it.
    let kill = 2u32;
    let out = warm.sample_excluding(&req, &[kill]);
    assert_eq!(
        out.block, healthy,
        "warm cache must serve the healthy answer"
    );
    assert!(
        !out.degraded,
        "a full-coverage warm cache legally avoids degrading"
    );
    assert_eq!(out.unreachable, 0);
    assert_eq!(
        warm.gather_attributes(&healthy.nodes),
        healthy_attrs,
        "warm rows stand in for the dead partition"
    );
    let snap = warm.cache_snapshot().expect("cached arm");
    let saves =
        snap.neigh.map_or(0, |t| t.partition_saves) + snap.attr.map_or(0, |t| t.partition_saves);
    assert!(saves > 0, "partition saves must be counted, got {snap:?}");

    // An uncached cluster under the same kill is worse off — the cache
    // is the only reason the reply stayed healthy.
    let out_uncached = uncached.sample_excluding(&req, &[kill]);
    assert!(
        out_uncached.unreachable >= out.unreachable,
        "cache can only reduce unreachable nodes"
    );
}

#[test]
fn stale_tier_keys_serve_wrong_rows_after_a_reorder() {
    // The relabeling hazard, pinned on the tier: warm the attribute
    // tier under the old labeling, scramble the graph, and read under
    // new labels. This is why a reordered graph needs a cold cache.
    let pg0 = pg(11, 2);
    let (pg1, perm) = pg0.reorder(ReorderPolicy::Random { seed: 3 });
    let store1 = pg1.attributes().expect("attrs");

    let warm_nodes: Vec<NodeId> = (0..120).map(NodeId).collect();
    let cache = HotSetCache::new(CacheConfig::with_capacity(512));
    let tier = cache.attr().expect("attr tier");
    let store0 = pg0.attributes().expect("attrs");
    for &v in &warm_nodes {
        tier.admit(v, store0.get(v));
    }

    // A key colliding with a different node's new id serves that
    // node's stale row. At least one of the 120 must differ
    // under a random scramble.
    let mut stale_wrong = 0;
    let mut row = vec![0.0f32; ATTR_LEN];
    for &v in &warm_nodes {
        let new_v = perm.to_new(v);
        if tier.copy_to(new_v, &mut row) && row != store1.get(new_v) {
            stale_wrong += 1;
        }
    }
    assert!(
        stale_wrong > 0,
        "a stale-keyed tier must be observably wrong under a scramble"
    );
}

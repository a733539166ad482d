//! Differential pinning of the sampling op's two verbs. The stand-alone
//! op is *expand* (hops, picks, adjacency) followed by an attribute
//! fetch of roots + nodes; a front door that runs its own gather stage
//! asks for the expansion alone. Expand-only must answer exactly what
//! the full op answers — same block, same `degraded`, same
//! `unreachable` (the rows the fetch would have found unreachable are
//! counted by an availability pass) — while moving no attribute row:
//!
//! * **Equivalence** — random graphs × partitions × exclusion masks ×
//!   cache on/off × a killed partition, solo and batched, on one
//!   cluster so both verbs see the same tiers.
//! * **Counters** — expand-only requests leave the attribute legs of
//!   the wire plane and the attribute tier's lookups where they were,
//!   and a pipelined inference run looks each row up once, not twice.

use lsdgnn_framework::{
    CacheConfig, Cluster, CpuBackend, InferenceConfig, InferenceService, SampleRequest,
    SamplingBackend, SamplingService, ServiceConfig, WireConfig,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionId, PartitionedGraph};
use lsdgnn_nn::SageModel;
use proptest::prelude::*;

const NODES: u64 = 300;
const ATTR_LEN: usize = 6;

fn pg(gseed: u64, partitions: u32) -> PartitionedGraph {
    let g = generators::power_law(NODES, 8, gseed);
    let a = AttributeStore::synthetic(NODES, ATTR_LEN, gseed);
    PartitionedGraph::new(g, partitions).with_attributes(a)
}

/// Requests over a shared head of roots (so batches coalesce and the
/// tiers see repeats), with mixed hop counts.
fn requests(seed: u64, count: u64, roots: u64, fanout: usize) -> Vec<SampleRequest> {
    (0..count)
        .map(|s| SampleRequest {
            roots: (0..roots)
                .map(|r| NodeId((seed.wrapping_mul(31) + s * 13 + r * 7) % NODES))
                .collect(),
            hops: 1 + (s % 2) as u32,
            fanout,
            seed: seed ^ s,
        })
        .collect()
}

proptest! {
    /// On one cluster — so both verbs read the same tiers — expand-only
    /// then the full op, batched and solo: identical blocks and
    /// identical degradation accounting.
    #[test]
    fn expand_only_answers_what_the_full_op_answers(
        gseed in 1u64..500,
        partitions in 2u32..6,
        roots in 1u64..10,
        fanout in 1usize..6,
        attr_cap in 0usize..200,
        mask in (any::<bool>(), 0u32..6, 0u32..6),
        kill in 0u32..12,
    ) {
        // `attr_cap == 0` is the cache-off arm. The neighbor tier is
        // sized to never evict: the expansion that runs first may admit
        // lists, and must not push out one a dead owner's lookup in the
        // full op depends on.
        let cache = (attr_cap > 0).then_some(CacheConfig {
            neigh_capacity: 4096,
            attr_capacity: attr_cap,
            ..CacheConfig::default()
        });
        let cluster = Cluster::spawn(pg(gseed, partitions), None, cache);
        // Warm while healthy, so a later dead owner's rows and lists are
        // partly cached (the partition-save case) and partly not.
        let warm = requests(gseed ^ 0xa5a5, 4, roots, fanout);
        let warm_refs: Vec<&SampleRequest> = warm.iter().collect();
        let _ = cluster.sample_blocks_excluding(&warm_refs, &[]);
        // Kill one partition in about half the cases (the worker-local
        // one included), mask up to two more per operation.
        if kill < partitions {
            cluster.fail_partition(PartitionId(kill));
        }
        let excluded: Vec<u32> = match mask {
            (false, _, _) => vec![],
            (true, a, b) if a == b => vec![a % partitions],
            (true, a, b) => vec![a % partitions, b % partitions],
        };

        let reqs = requests(gseed, 5, roots, fanout);
        let refs: Vec<&SampleRequest> = reqs.iter().collect();
        let (expanded, es) = cluster.expand_blocks_excluding(&refs, &excluded);
        let (sampled, fs) = cluster.sample_blocks_excluding(&refs, &excluded);
        prop_assert_eq!(&expanded, &sampled, "batched blocks diverge");
        prop_assert_eq!(es.unreachable_nodes, fs.unreachable_nodes, "batched unreachable");
        prop_assert_eq!(es.any_unreachable(), fs.any_unreachable(), "batched degraded");
        prop_assert_eq!(es.attrs_fetched, 0, "expand-only fetched rows");
        prop_assert_eq!(es.nodes_expanded, fs.nodes_expanded);

        for (i, r) in refs.iter().enumerate() {
            let (solo_e, ses) = cluster.expand_blocks_excluding(&[r], &excluded);
            let (solo_f, sfs) = cluster.sample_blocks_excluding(&[r], &excluded);
            prop_assert_eq!(&solo_e, &solo_f, "solo blocks diverge, request {}", i);
            prop_assert_eq!(&solo_e[0], &expanded[i], "solo != batched, request {}", i);
            prop_assert_eq!(ses.unreachable_nodes, sfs.unreachable_nodes, "solo unreachable {}", i);
        }
        cluster.shutdown();
    }
}

/// Twin backends, one told its caller gathers: every sampling verb of
/// the backend interface answers the same outcome, healthy, masked and
/// with a partition down.
#[test]
fn deferred_backend_returns_the_same_outcomes() {
    let full = CpuBackend::from_partitioned(pg(9, 4));
    let deferred = CpuBackend::from_partitioned(pg(9, 4));
    deferred.defer_attr_fetch();
    let reqs = requests(9, 6, 6, 4);
    let refs: Vec<&SampleRequest> = reqs.iter().collect();
    for round in 0..2 {
        for mask in [&[][..], &[1], &[0, 3]] {
            for r in &reqs {
                assert_eq!(
                    deferred.sample_excluding(r, mask),
                    full.sample_excluding(r, mask),
                    "round {round} mask {mask:?}"
                );
            }
        }
        for r in &reqs {
            assert_eq!(deferred.try_sample(r, 0), full.try_sample(r, 0));
            assert_eq!(deferred.sample_block(r), full.sample_block(r));
        }
        assert_eq!(deferred.sample_many(&refs), full.sample_many(&refs));
        // Second round: the same again with partition 2 crashed.
        full.fail_shard(2);
        deferred.fail_shard(2);
    }
    assert!(full.stats().unreachable_nodes > 0, "the crash must degrade");
    assert_eq!(
        deferred.stats().unreachable_nodes,
        full.stats().unreachable_nodes
    );
    assert_eq!(deferred.stats().attrs_fetched, 0);
}

/// Expand-only requests on a wired + cached backend move no attribute
/// row: the wire plane's attribute legs and the attribute tier's
/// lookups stay where the warm-up left them, while the neighbor legs
/// keep being accounted.
#[test]
fn expand_only_requests_leave_the_attribute_plane_untouched() {
    let backend = CpuBackend::from_partitioned_wired_cached(
        pg(5, 4),
        WireConfig::default(),
        CacheConfig::with_capacity(64),
    );
    let reqs = requests(5, 24, 6, 4);
    let refs: Vec<&SampleRequest> = reqs.iter().collect();
    let _ = backend.sample_many(&refs[..8]);
    let attr_lookups = |b: &CpuBackend| {
        let attr = b.cache_snapshot().and_then(|s| s.attr).expect("attr tier");
        attr.hits + attr.misses
    };
    let wire0 = backend.wire_snapshot().expect("wired");
    let lookups0 = attr_lookups(&backend);
    let stats0 = backend.stats();
    assert!(wire0.attr_raw_response_bytes > 0 && lookups0 > 0);

    backend.defer_attr_fetch();
    for chunk in refs[8..].chunks(4) {
        for block in backend.sample_many(chunk) {
            backend.recycle(block);
        }
    }
    backend.recycle(backend.sample_block(&reqs[0]));

    let wire1 = backend.wire_snapshot().expect("wired");
    assert_eq!(wire1.attr_raw_response_bytes, wire0.attr_raw_response_bytes);
    assert_eq!(
        wire1.attr_wire_response_bytes,
        wire0.attr_wire_response_bytes
    );
    assert_eq!(attr_lookups(&backend), lookups0);
    let stats1 = backend.stats();
    assert_eq!(stats1.attrs_fetched, stats0.attrs_fetched);
    assert_eq!(stats1.attr_coalesce_lookups, stats0.attr_coalesce_lookups);
    assert!(
        stats1.nodes_expanded > stats0.nodes_expanded
            && wire1.sampling_raw_response_bytes > wire0.sampling_raw_response_bytes,
        "the expansion itself still runs, remote legs included"
    );
}

/// Through the inference pipeline every entry of roots + nodes is
/// looked up by exactly one attribute fetch — the gather stage's.
#[test]
fn pipelined_inference_fetches_each_row_once() {
    let reqs: Vec<SampleRequest> = requests(3, 16, 4, 3)
        .into_iter()
        .map(|r| SampleRequest { hops: 2, ..r })
        .collect();
    // What the requests sample, from a twin backend: Σ(roots + nodes).
    let twin = CpuBackend::from_partitioned(pg(3, 3));
    let entries: u64 = reqs
        .iter()
        .map(|r| (r.roots.len() + twin.sample_block(r).nodes.len()) as u64)
        .sum();

    let svc = SamplingService::start(
        Box::new(CpuBackend::from_partitioned(pg(3, 3))),
        ServiceConfig::default(),
    );
    let pipe = InferenceService::start(
        svc,
        SageModel::new(&[ATTR_LEN, 5, 3], 3),
        InferenceConfig::default(),
    );
    let tickets: Vec<_> = reqs.iter().map(|r| pipe.submit(r.clone())).collect();
    for t in tickets {
        assert!(!t.wait().degraded);
    }
    let stats = pipe.sampling().stats().backend;
    assert_eq!(stats.attr_coalesce_lookups, entries);
    assert_eq!(stats.attrs_fetched, entries);
}

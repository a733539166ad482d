//! The serving benches' shared workload: every graph, placement,
//! request stream and reply digest the five serving benches measure on
//! lives here, so a bench names its scenario instead of rebuilding it.
//!
//! * **Skewed dataplane** (`wire`, `inference`) — a power-law graph with
//!   its hot head placed on the worker-local shard and popularity-skewed
//!   roots: the workload coalescing exists for.
//! * **Small cluster** (`chaos`, `traffic`) — a 600-node power-law graph
//!   hash-spread over four cards, small enough that every cell of a
//!   fault or overload sweep serves its whole request stream.
//!
//! `cache` keeps its uniform-degree graph in its own module (the reason
//! is written there) and shares the mixer and the digest fold.

use lsdgnn_core::chaos::plan::fnv1a;
use lsdgnn_core::framework::{CpuBackend, SampleReply, SampleRequest, SamplingBackend};
use lsdgnn_core::graph::{generators, AttributeStore, CsrGraph, NodeId, PartitionedGraph};

/// Server partitions; partition 0 is the worker-local (zero-copy) shard.
pub(crate) const PARTITIONS: u32 = 2;
pub(crate) const HOPS: u32 = 2;
pub(crate) const FANOUT: usize = 10;
/// Roots per `wire` request: hop-2 frontiers of ~640 entries, with the
/// hub repetition coalescing exists for.
pub(crate) const ROOTS_PER_REQ: u64 = 64;
/// Size of the hot head that popular traffic concentrates on.
pub(crate) const HOT_SET: u64 = 256;
/// Feature width in floats — sized like a real GNN embedding table row
/// (256 B/node), so attribute movement is a first-class cost the way the
/// paper's GetAttribute stage is.
pub(crate) const ATTR_LEN: usize = 64;

pub(crate) fn graph(quick: bool) -> (CsrGraph, AttributeStore) {
    let n = if quick { 20_000 } else { 100_000 };
    (
        generators::power_law(n, 48, 91),
        AttributeStore::synthetic(n, ATTR_LEN, 91),
    )
}

/// Partition placement the benches serve from: the hot head lives on the
/// worker-local shard (the paper co-locates hot vertices with the
/// accelerator), the tail is hash-spread across every shard exactly as
/// the default map does.
pub(crate) fn placement(g: &CsrGraph, a: &AttributeStore) -> PartitionedGraph {
    let assignment: Vec<u32> = (0..g.num_nodes())
        .map(|v| {
            if v < HOT_SET {
                0
            } else {
                let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 32) as u32 % PARTITIONS
            }
        })
        .collect();
    PartitionedGraph::with_assignment(g.clone(), assignment).with_attributes(a.clone())
}

/// The splitmix64 finalizer every seeded draw of the benches goes through.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draws a popularity-skewed root: serving traffic follows a zipf-like
/// distribution, and the generator's preferential attachment makes the
/// low node ids the hubs, so cubing a uniform draw concentrates roots
/// on hot, high-degree vertices — the workload coalescing exists for.
pub(crate) fn skewed_root(seed: u64, i: u64, nodes: u64) -> NodeId {
    let x = splitmix(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB),
    );
    // 80% of traffic lands on the hot head (top ids = the hubs under
    // preferential attachment); the tail is uniform.
    if x % 10 < 8 {
        NodeId((x >> 32) % HOT_SET.min(nodes))
    } else {
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        NodeId((nodes as f64 * u * u * u) as u64 % nodes)
    }
}

pub(crate) fn request(seed: u64, nodes: u64, roots: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..roots).map(|i| skewed_root(seed, i, nodes)).collect(),
        hops: HOPS,
        fanout: FANOUT,
        seed,
    }
}

/// Order-stable fold of per-request block digests: equal streams of
/// samples produce equal fingerprints.
pub(crate) fn fold(digest: u64, block_digest: u64) -> u64 {
    digest.wrapping_mul(0x0000_0100_0000_01b3) ^ block_digest
}

/// Nodes of the small cluster — fixed (not `LSDGNN_SCALE`) so the
/// committed artifacts replay identically in any environment.
pub(crate) const SMALL_NODES: u64 = 600;
/// Partitions (chaos "cards") of the small cluster.
pub(crate) const SMALL_PARTITIONS: u32 = 4;

pub(crate) fn small_backend() -> Box<dyn SamplingBackend> {
    let g = generators::power_law(SMALL_NODES, 8, 31);
    let a = AttributeStore::synthetic(SMALL_NODES, 8, 31);
    Box::new(CpuBackend::new(&g, &a, SMALL_PARTITIONS))
}

/// Request `seed` of the small cluster's stream; the seed doubles as the
/// virtual tick fault plans are written against.
pub(crate) fn small_request(seed: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..8)
            .map(|r| NodeId((seed * 13 + r) % SMALL_NODES))
            .collect(),
        hops: 2,
        fanout: 4,
        seed,
    }
}

/// FNV digest over reply content (roots, hop boundaries, node ids,
/// degraded flag) — timing-free, the replayability fingerprint.
pub(crate) fn digest_replies(replies: &[SampleReply]) -> u64 {
    let mut bytes = Vec::new();
    for r in replies {
        bytes.push(u8::from(r.degraded));
        bytes.extend_from_slice(&(r.block.roots.len() as u64).to_le_bytes());
        for n in &r.block.roots {
            bytes.extend_from_slice(&n.0.to_le_bytes());
        }
        bytes.extend_from_slice(&(r.block.hop_offsets.len() as u64).to_le_bytes());
        for o in &r.block.hop_offsets {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        for n in &r.block.nodes {
            bytes.extend_from_slice(&n.0.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

//! Differential pinning of locality-aware relabeling: sampling is
//! permutation-isomorphic. For every reorder policy, running the same
//! logical request (roots mapped old→new, same seed) against the
//! relabeled graph and mapping the answer back new→old must reproduce
//! the baseline block byte-for-byte — the relabel preserves each
//! neighbor list's relative order, and the sampler draws positions from
//! list lengths only, so the RNG consumption is identical on both arms.
//! Exact-id coalesce telemetry is likewise id-invariant (it depends on
//! topology and roots, not on which integers name the nodes), while the
//! line/page locality counters are exactly the ones allowed to move.
//!
//! The cache-correctness hazard of relabeling — a hot-set tier warmed
//! under the old labeling serves node `k`'s row for whatever node now
//! holds id `k` until it is rekeyed — is pinned on the tier itself by
//! `cache_differential::stale_tier_keys_serve_wrong_rows_and_rekey_fixes_it`.

use lsdgnn_framework::{CpuBackend, SampleRequest, SamplingBackend, WireConfig};
use lsdgnn_graph::reorder::{Permutation, ReorderPolicy};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};

const NODES: u64 = 400;
const ATTR_LEN: usize = 6;

fn policies() -> Vec<ReorderPolicy> {
    vec![
        ReorderPolicy::Identity,
        ReorderPolicy::Random { seed: 7 },
        ReorderPolicy::DegreeSort,
        ReorderPolicy::Bfs,
        ReorderPolicy::Gorder { window: 5 },
    ]
}

fn baseline(gseed: u64, partitions: u32) -> PartitionedGraph {
    let g = generators::power_law(NODES, 8, gseed);
    let a = AttributeStore::synthetic(NODES, ATTR_LEN, gseed);
    PartitionedGraph::new(g, partitions).with_attributes(a)
}

fn request(roots: &[NodeId], seed: u64) -> SampleRequest {
    SampleRequest {
        roots: roots.to_vec(),
        hops: 2,
        fanout: 5,
        seed,
    }
}

fn map_roots(roots: &[NodeId], perm: &Permutation) -> Vec<NodeId> {
    roots.iter().map(|&v| perm.to_new(v)).collect()
}

#[test]
fn every_policy_samples_permutation_isomorphically() {
    let pg0 = baseline(3, 4);
    let roots: Vec<NodeId> = (0..8).map(|r| NodeId(r * 13 % NODES)).collect();

    for policy in policies() {
        // Fresh baseline per policy: the stats comparison below needs
        // both arms to have served exactly the same request sequence.
        let base = CpuBackend::from_partitioned(pg0.clone());
        let (pg1, perm) = pg0.reorder(policy);

        // Ownership rides along: a node keeps its partition under its
        // new name, so the local/remote split is unchanged.
        for old in 0..NODES {
            let v = NodeId(old);
            assert_eq!(
                pg0.owner(v),
                pg1.owner(perm.to_new(v)),
                "{policy}: node {old} changed owner"
            );
        }

        // Edge containment under the new names (binary-search has_edge
        // is invalid on reordered graphs — lists keep their original
        // relative order, which is the isomorphism contract itself).
        let g1 = pg1.graph();
        for old in (0..NODES).step_by(37) {
            let v = NodeId(old);
            let mapped: Vec<NodeId> = pg0
                .graph()
                .neighbors(v)
                .iter()
                .map(|&w| perm.to_new(w))
                .collect();
            assert_eq!(
                g1.neighbors(perm.to_new(v)),
                &mapped[..],
                "{policy}: neighbor list of {old} diverges"
            );
        }

        let arm = CpuBackend::from_partitioned(pg1.clone());
        for seed in [1u64, 9, 41] {
            let req0 = request(&roots, seed);
            let req1 = request(&map_roots(&roots, &perm), seed);
            let want = base.sample_block(&req0);
            let got = arm.sample_block(&req1);

            // Back-map the relabeled answer: hop structure identical,
            // every sampled id the old name of the same node.
            assert_eq!(got.hop_offsets, want.hop_offsets, "{policy} seed {seed}");
            let back: Vec<NodeId> = got.nodes.iter().map(|&v| perm.to_old(v)).collect();
            assert_eq!(back, want.nodes, "{policy} seed {seed}: samples diverge");

            // Attribute rows travel with their nodes.
            assert_eq!(
                arm.gather_attributes(&got.nodes),
                base.gather_attributes(&want.nodes),
                "{policy} seed {seed}: attrs diverge"
            );
        }

        // Exact-id coalesce accounting is invariant under relabeling:
        // the same node repeats in the same positions, whatever its id.
        let (s0, s1) = (base.stats(), arm.stats());
        assert_eq!(s0.coalesce_lookups, s1.coalesce_lookups, "{policy}");
        assert_eq!(s0.coalesce_hits, s1.coalesce_hits, "{policy}");
        assert_eq!(
            s0.attr_coalesce_lookups, s1.attr_coalesce_lookups,
            "{policy}"
        );
        assert_eq!(s0.attr_coalesce_hits, s1.attr_coalesce_hits, "{policy}");
        assert_eq!(s0.nodes_expanded, s1.nodes_expanded, "{policy}");
    }
}

#[test]
fn wire_plane_is_accounting_only() {
    // Same placement, same requests: the wired cluster answers
    // digest-identically to the plain one — packing and compression
    // meter the remote legs, they never touch the replies.
    let pg = baseline(5, 4);
    let plain = CpuBackend::from_partitioned(pg.clone());
    let wired = CpuBackend::from_partitioned_wired(pg, WireConfig::default());
    let roots: Vec<NodeId> = (0..8).map(|r| NodeId(r * 17 % NODES)).collect();
    for seed in [2u64, 23] {
        let req = request(&roots, seed);
        assert_eq!(plain.sample_block(&req), wired.sample_block(&req));
    }
    let nodes: Vec<NodeId> = (0..64).map(|i| NodeId(i * 11 % NODES)).collect();
    assert_eq!(
        plain.gather_attributes(&nodes),
        wired.gather_attributes(&nodes)
    );
    assert!(
        plain.wire_snapshot().is_none(),
        "plain spawns meter nothing"
    );
    let snap = wired.wire_snapshot().expect("wired cluster meters");
    assert!(snap.remote_legs > 0);
    assert!(snap.packed_requests > 0);
    assert!(
        snap.wire_request_bytes < snap.raw_request_bytes,
        "packing must beat the unpacked baseline: {} vs {}",
        snap.wire_request_bytes,
        snap.raw_request_bytes
    );
    assert!(
        snap.compression_ratio() > 1.0,
        "BDI must shrink id-heavy responses, got {}",
        snap.compression_ratio()
    );
}

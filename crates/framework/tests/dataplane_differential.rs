//! Differential pinning of the sampling data plane against a reference
//! that shares no cluster code with it.
//!
//! The reference is the single-machine
//! [`MultiHopSampler`] over the *unpartitioned* graph — no servers, no
//! channels, no routing, no coalescing, no pool — seeded the way a
//! request seeds the plane. A masked shard is modelled by what it means:
//! its nodes keep their ids and lose their adjacency rows. For arbitrary
//! graphs, partition counts, request shapes and shard-fault masks the
//! plane (coalesced frontiers, pooled arenas, zero-copy local reads)
//! must answer with byte-identical samples — solo, batch-coalesced,
//! through the inline hot-set cache (cold and warm), and served under a
//! fault plan's card failures, where the degradation verdict
//! (`degraded`, `unreachable`) must agree as well —
//! and its gather must equal the attribute store's rows with the masked
//! owners' rows zeroed.
//!
//! The oracle and the plane still share `StreamingSampler` and the
//! `rand` shim, so a change to either would move both; [`GOLDEN`] freezes
//! twelve digests so they cannot drift together.

use lsdgnn_chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_framework::{
    CacheConfig, CpuBackend, SampleOutcome, SampleRequest, SamplingBackend, SamplingService,
    ServiceConfig,
};
use lsdgnn_graph::{generators, AttributeStore, CsrGraph, GraphBuilder, NodeId, PartitionedGraph};
use lsdgnn_sampler::{MultiHopSampler, SampleBlock, StreamingSampler};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NODES: u64 = 400;
const ATTR_LEN: usize = 6;

fn world(gseed: u64) -> (CsrGraph, AttributeStore) {
    (
        generators::power_law(NODES, 8, gseed),
        AttributeStore::synthetic(NODES, ATTR_LEN, gseed),
    )
}

fn request(seed: u64, roots: u64, hops: u32, fanout: usize) -> SampleRequest {
    SampleRequest {
        roots: (0..roots)
            .map(|r| NodeId(seed.wrapping_mul(31).wrapping_add(r * 7) % NODES))
            .collect(),
        hops,
        fanout,
        seed,
    }
}

/// The reference answer to `req` with `pg`'s `masked` shards unreachable
/// (`pg` is consulted for ownership only): `MultiHopSampler` on one machine over
/// the graph minus the masked owners' adjacency rows (an empty list
/// yields no samples and draws nothing from the RNG, exactly like a
/// frontier entry nobody answers for). Every masked frontier entry is
/// one missed expansion and every masked entry of the fetch list one
/// missed attribute row.
fn oracle(pg: &PartitionedGraph, req: &SampleRequest, masked: &[u32]) -> SampleOutcome {
    let down = |v: NodeId| masked.contains(&pg.owner(v).0);
    let mut visible = GraphBuilder::new(pg.graph().num_nodes());
    for (u, v) in pg.graph().edges().filter(|&(u, _)| !down(u)) {
        visible.add_edge(u, v);
    }
    let batch = MultiHopSampler::new(req.hops, req.fanout).sample(
        &mut SmallRng::seed_from_u64(req.seed),
        &visible.build(),
        &StreamingSampler,
        &req.roots,
    );
    let expanded = batch.hops.len() - 1;
    let frontier = batch
        .roots
        .iter()
        .chain(batch.hops[..expanded].iter().flatten());
    let unreachable = frontier
        .chain(&batch.attr_fetch_list())
        .filter(|&&v| down(v))
        .count() as u64;
    SampleOutcome {
        block: SampleBlock::from_batch(&batch),
        degraded: unreachable > 0,
        unreachable,
    }
}

proptest! {
    #[test]
    fn flat_path_is_byte_identical_to_the_single_machine_oracle(
        gseed in 0u64..1000,
        partitions in 2u32..5,
        roots in 1u64..12,
        hops in 1u32..4,
        fanout in 1usize..8,
        batch in 2usize..6,
        excluded in proptest::collection::vec(0u32..4, 0..3),
        chaos_card in 0u32..4,
        chaos_at in 0u64..8,
    ) {
        let (g, a) = world(gseed);
        let plane = CpuBackend::new(&g, &a, partitions);
        let pg = PartitionedGraph::new(g.clone(), partitions);
        let mut excluded: Vec<u32> = excluded
            .into_iter()
            .filter(|&e| e < partitions)
            .collect();
        excluded.sort_unstable();
        excluded.dedup();

        // Solo: one request through the plane, fault-free.
        for s in 0..3u64 {
            let req = request(gseed + s, roots, hops, fanout);
            let want = oracle(&pg, &req, &[]);
            prop_assert!(!want.degraded);
            let got = plane.sample_block(&req);
            prop_assert_eq!(got.digest(), want.block.digest());
            prop_assert_eq!(&got, &want.block, "solo blocks diverge (seed {})", req.seed);
        }

        // Batched: the coalesced union-frontier path must still answer
        // every request exactly as its solo run would.
        let reqs: Vec<SampleRequest> = (0..batch as u64)
            .map(|s| request(gseed ^ (s + 101), roots, hops, fanout))
            .collect();
        let refs: Vec<&SampleRequest> = reqs.iter().collect();
        let batched = plane.sample_many(&refs);
        for (req, got) in reqs.iter().zip(&batched) {
            let want = oracle(&pg, req, &[]);
            prop_assert_eq!(got, &want, "batched outcome diverges");
        }

        // Faulted: with shards masked out, samples *and* the
        // degradation verdict must agree.
        let req = request(gseed + 17, roots, hops, fanout);
        let want = oracle(&pg, &req, &excluded);
        prop_assert_eq!(&plane.sample_excluding(&req, &excluded), &want, "faulted outcome");

        // Gather: the store's rows, masked owners' rows zeroed, one
        // `unreachable` per masked occurrence — per occurrence through
        // `fetch_attrs_into`, and in deduplicated row form unmasked.
        let nodes = want.block.attr_fetch_list();
        let mut rows_want = a.gather(&nodes);
        let mut missed = 0u64;
        for (i, &v) in nodes.iter().enumerate() {
            if excluded.contains(&pg.owner(v).0) {
                rows_want[i * ATTR_LEN..(i + 1) * ATTR_LEN].fill(0.0);
                missed += 1;
            }
        }
        let mut rows_got = Vec::new();
        let stats = plane.cluster().fetch_attrs_into(&nodes, &excluded, &mut rows_got);
        prop_assert_eq!(&rows_got, &rows_want, "masked gather diverges");
        prop_assert_eq!(stats.unreachable_nodes, missed);
        let (mut rows, mut slot_of) = (Vec::new(), Vec::new());
        prop_assert_eq!(plane.gather_attr_rows(&nodes, &mut rows, &mut slot_of), ATTR_LEN);
        let expanded: Vec<f32> = slot_of
            .iter()
            .flat_map(|&s| &rows[s as usize * ATTR_LEN..(s as usize + 1) * ATTR_LEN])
            .copied()
            .collect();
        prop_assert_eq!(&expanded, &a.gather(&nodes), "row-form gather diverges");
        prop_assert_eq!(&plane.gather_attributes(&nodes), &expanded);

        // Cached: the inline hot-set cache serves the truth, so a cold
        // and a warm pass (tier-N spans, tier-A rows) answer alike.
        let cached = CpuBackend::from_partitioned_cached(
            PartitionedGraph::new(g.clone(), partitions).with_attributes(a.clone()),
            CacheConfig::with_capacity(64),
        );
        for _ in 0..2 {
            prop_assert_eq!(&cached.sample_block(&req), &oracle(&pg, &req, &[]).block);
            prop_assert_eq!(&cached.gather_attributes(&nodes), &a.gather(&nodes));
        }

        // Served under a fault plan: the service masks the cards the
        // plan has down at the request's tick out of its sample, on top
        // of the shards crashed on the backend itself.
        let spec = ScenarioSpec::none().with_card_failure(chaos_card % partitions, chaos_at);
        let plan = FaultPlan::build(gseed, spec).expect("valid spec");
        let mut downs = excluded.clone();
        downs.extend((0..partitions).filter(|&c| plan.card_down(c, req.seed)));
        let want = oracle(&pg, &req, &downs);
        let crashed = CpuBackend::new(&g, &a, partitions);
        for &shard in &excluded {
            crashed.fail_shard(shard);
        }
        let svc = SamplingService::start_observed(
            Box::new(crashed),
            ServiceConfig { workers: 1, ..ServiceConfig::default() },
            None,
            Some(FaultInjector::new(plan)),
            None,
        );
        let reply = svc.sample_reply(req.clone());
        svc.shutdown();
        let got = SampleOutcome {
            block: reply.block,
            degraded: reply.degraded,
            unreachable: reply.unreachable,
        };
        prop_assert_eq!(&got, &want, "chaos-faulted outcome");
    }
}

/// `(gseed, partitions, roots, hops, fanout, seed, excluded, digest)`.
type GoldenRow = (u64, u32, u64, u32, usize, u64, &'static [u32], u64);

/// Block digests captured at the last commit that still carried the
/// nested-`Vec` arm, where that arm, the flat plane and the oracle all
/// agreed. The oracle shares `StreamingSampler` and the `rand` shim with
/// the plane; these constants are what neither can move.
const GOLDEN: [GoldenRow; 12] = [
    (1, 2, 4, 1, 3, 11, &[], 0x3926144fae64e709),
    (2, 2, 8, 2, 5, 12, &[], 0xa873e8ed1b249727),
    (3, 3, 8, 2, 5, 13, &[], 0xb4c8029d5fdbf9dc),
    (4, 3, 11, 2, 7, 14, &[], 0x358a936a83f4f408),
    (5, 4, 6, 2, 4, 15, &[], 0x2a5e9993bea6ea98),
    (6, 4, 8, 3, 3, 16, &[], 0xb86201ff2aab4da1),
    (7, 4, 8, 2, 5, 17, &[2], 0x109b01a7b1e7390f),
    (8, 3, 10, 2, 6, 18, &[0, 1], 0xbe78c301c7bcbaea),
    (9, 2, 1, 2, 1, 19, &[], 0xfc4926a86edf66d3),
    (10, 4, 11, 1, 7, 20, &[], 0x7b47c4ff761c52f1),
    (11, 3, 5, 2, 2, 21, &[], 0x4245df36a2ad188b),
    (12, 2, 9, 2, 6, 22, &[], 0x83225b64d88bb61c),
];

#[test]
fn frozen_digests_hold() {
    for (gseed, partitions, roots, hops, fanout, seed, excluded, digest) in GOLDEN {
        let (g, a) = world(gseed);
        let req = request(seed, roots, hops, fanout);
        let got = CpuBackend::new(&g, &a, partitions).sample_excluding(&req, excluded);
        assert_eq!(
            got.block.digest(),
            digest,
            "frozen digest moved (gseed {gseed})"
        );
    }
}

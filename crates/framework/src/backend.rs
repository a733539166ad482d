//! The hardware-abstraction layer of §5: one [`SamplingBackend`] trait
//! in front of every sampling substrate.
//!
//! The paper's near-transparent offload story only works if the framework
//! talks to *an interface* rather than a device: the AliGraph CPU cluster
//! ([`CpuBackend`]) and the Access Engine
//! ([`AxeBackend`](crate::offload::AxeBackend)) serve the same verbs — sample (one request, a
//! batch, fallibly, or with shards excluded), gather attributes, report
//! stats and cache counters, flush. The system-level hot-node cache of
//! the paper's Tech-4 has one home: the cluster's inline
//! [`crate::hot_cache::HotSetCache`], mounted with
//! [`CpuBackend::from_partitioned_cached`]. The fault injector
//! (`crate::chaos_backend`) is the one decorator.
//! [`crate::service::SamplingService`] then batches and schedules over
//! any of them, so a CPU-vs-AxE comparison is a one-line backend swap.
//!
//! The primary sampling verb is [`SamplingBackend::sample_block`],
//! returning the flat [`SampleBlock`] the zero-copy data plane produces;
//! [`SamplingBackend::sample_neighbors`] converts it to the nested
//! client form, [`SampleBatch`] — a format (what `AxeBackend`, the
//! offload session and `SampleTicket::wait` hand to clients), not a
//! second sampling path.
//!
//! Determinism contract: a backend must produce the same
//! [`SampleBlock`] for the same [`SampleRequest`] (including its `seed`),
//! regardless of when or on which worker thread the request executes.
//! Both shipped backends honor it by seeding a fresh RNG per request and
//! expanding frontiers in identical parent-major order, which is what the
//! `integration_backend_parity` test pins down.

use crate::cluster::{Cluster, RequestStats, WireConfig, WireSnapshot};
use crate::hot_cache::{CacheConfig, CacheSnapshot};
use lsdgnn_graph::{AttributeStore, CsrGraph, NodeId, PartitionedGraph};
use lsdgnn_sampler::{SampleBatch, SampleBlock};
use lsdgnn_telemetry::ledger::{self, Stage, NO_SHARD};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One sampling request: expand `roots` through `hops` levels at `fanout`
/// samples per node, with all randomness derived from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRequest {
    /// Root (seed) nodes of the mini-batch.
    pub roots: Vec<NodeId>,
    /// Number of hop levels.
    pub hops: u32,
    /// Samples per node per hop.
    pub fanout: usize,
    /// RNG seed; equal seeds must yield equal batches on every backend.
    pub seed: u64,
}

impl SampleRequest {
    /// The front doors' entry check, run on the submitting thread: a
    /// zero fanout divides by zero inside the sampler, and past the
    /// queue that would take a shard worker down with it.
    pub(crate) fn assert_well_formed(&self) {
        assert!(self.fanout > 0, "fanout must be non-zero");
    }
}

/// One sampling answer with its degradation provenance: the flat block
/// plus whether any shard was unreachable while producing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleOutcome {
    /// The sampled mini-batch in flat-buffer form (possibly partial).
    pub block: SampleBlock,
    /// True when the block is missing an unreachable shard's
    /// contribution — still structurally valid, but approximate.
    pub degraded: bool,
    /// Nodes whose owner could not be reached (quantifies the quality
    /// loss behind `degraded`).
    pub unreachable: u64,
}

impl SampleOutcome {
    /// Wraps a fault-free result.
    pub fn exact(block: SampleBlock) -> Self {
        SampleOutcome {
            block,
            degraded: false,
            unreachable: 0,
        }
    }
}

/// Why a [`SamplingBackend::try_sample`] attempt failed. Transient by
/// contract: the serving layer is entitled to retry, hedge, or fall back
/// to [`SamplingBackend::sample_excluding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendError {
    /// A shard/card the request needed is down.
    ShardDown(u32),
    /// The attempt exceeded its time budget.
    Timeout,
    /// A fault-injection layer swallowed the attempt (chaos testing).
    Injected,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::ShardDown(s) => write!(f, "shard {s} down"),
            BackendError::Timeout => write!(f, "attempt timed out"),
            BackendError::Injected => write!(f, "attempt lost to fault injection"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A sampling substrate the serving layer can dispatch to.
///
/// Implementations are shared across the service's worker shards, so all
/// methods take `&self`; stats accumulation uses interior mutability.
pub trait SamplingBackend: Send + Sync {
    /// Expands one request into a flat sampled mini-batch — the primary
    /// sampling verb on the zero-copy data plane.
    fn sample_block(&self, req: &SampleRequest) -> SampleBlock;

    /// Expands one request into the nested client form. The default
    /// converts the flat block; samples are identical either way.
    fn sample_neighbors(&self, req: &SampleRequest) -> SampleBatch {
        self.sample_block(req).into_batch()
    }

    /// Gathers attribute vectors for `nodes`, order preserved.
    fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32>;

    /// Gathers attributes in deduplicated row form — the gather verb of
    /// the inference data plane. `rows` is cleared and filled with one
    /// attribute row per *distinct* node in first-appearance order, and
    /// `slot_of[i]` names the row of `nodes[i]`; returns the attribute
    /// width. Consumers index the compact table instead of paying for a
    /// buffer with every hub row duplicated per occurrence. The default
    /// dedups in front of [`SamplingBackend::gather_attributes`];
    /// cluster-backed backends answer from the coalesced fetch directly.
    fn gather_attr_rows(
        &self,
        nodes: &[NodeId],
        rows: &mut Vec<f32>,
        slot_of: &mut Vec<u32>,
    ) -> usize {
        let mut index: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
        let mut unique: Vec<NodeId> = Vec::new();
        slot_of.clear();
        slot_of.reserve(nodes.len());
        for &v in nodes {
            let slot = *index.entry(v).or_insert_with(|| {
                unique.push(v);
                (unique.len() - 1) as u32
            });
            slot_of.push(slot);
        }
        let fetched = self.gather_attributes(&unique);
        rows.clear();
        rows.extend_from_slice(&fetched);
        if unique.is_empty() {
            0
        } else {
            fetched.len() / unique.len()
        }
    }

    /// Cumulative request accounting since the backend was created.
    fn stats(&self) -> RequestStats;

    /// Releases transient state (caches, in-flight buffers). Called by
    /// the service on shutdown; a no-op for stateless backends.
    fn flush(&self) {}

    /// Dispatches a coalesced batch of requests, borrowed from the
    /// service's queue — no per-batch request clone. The default executes
    /// them in order; hardware backends may overlap them.
    fn sample_many(&self, reqs: &[&SampleRequest]) -> Vec<SampleBlock> {
        reqs.iter().map(|r| self.sample_block(r)).collect()
    }

    /// Hands a finished block back for arena recycling. Callers that are
    /// done with a reply can return it here; the default drops it.
    fn recycle(&self, block: SampleBlock) {
        let _ = block;
    }

    /// The fallible sampling verb behind the service's retry/hedge
    /// machinery. `attempt` numbers retries of the same request from 0 so
    /// fault injectors can make a retry succeed where the first try
    /// failed. The default cannot fail and returns an exact outcome —
    /// fault-free backends pay nothing for the degradation machinery.
    fn try_sample(&self, req: &SampleRequest, attempt: u32) -> Result<SampleOutcome, BackendError> {
        let _ = attempt;
        Ok(SampleOutcome::exact(self.sample_block(req)))
    }

    /// The degraded fallback: sample while treating `excluded` shards as
    /// unreachable, never failing — an incomplete neighbor set from the
    /// reachable shards is still a valid approximate sample. Backends
    /// without shard structure ignore the mask.
    fn sample_excluding(&self, req: &SampleRequest, excluded: &[u32]) -> SampleOutcome {
        let _ = excluded;
        SampleOutcome::exact(self.sample_block(req))
    }

    /// Marks a shard as crashed (chaos hook). Returns `true` if the
    /// backend has such a shard and it was alive; the default has no
    /// shard structure to fail.
    fn fail_shard(&self, shard: u32) -> bool {
        let _ = shard;
        false
    }

    /// Shards/cards behind this backend (1 for monolithic devices).
    fn shards(&self) -> u32 {
        1
    }

    /// Hot-set cache counters, when a cache sits on this backend's data
    /// plane (`None` for uncached backends). The chaos decorator forwards
    /// its inner backend's.
    fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        None
    }

    /// Tells the backend that its caller runs a gather stage of its own
    /// over every block it is handed ([`SamplingBackend::gather_attr_rows`]
    /// on roots + nodes): from here on the sampling verbs may *expand
    /// only* and leave the attribute rows to that gather, instead of
    /// fetching them a first time just to drop them. Answers do not
    /// change — same block, same `degraded`, same `unreachable` — only
    /// which call moves the rows. The default keeps the full op (always
    /// correct, and all there is for a backend whose sampling op moves
    /// no rows); decorators forward to the backend they wrap.
    fn defer_attr_fetch(&self) {}
}

/// The AliGraph CPU path: a [`Cluster`] of server threads behind the
/// backend interface.
///
/// Requests run on the cluster's flat-buffer data plane (coalesced,
/// pooled, zero-copy local reads) — the substrate's one sampling path.
pub struct CpuBackend {
    cluster: Cluster,
    stats: Mutex<RequestStats>,
    /// Set by [`SamplingBackend::defer_attr_fetch`]: the caller gathers
    /// the rows itself, so sampling runs the cluster's expand verb alone.
    expand_only: AtomicBool,
}

impl std::fmt::Debug for CpuBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuBackend")
            .field("cluster", &self.cluster)
            .finish()
    }
}

/// Requests fused per coalesced batch fetch in
/// [`CpuBackend::sample_many`] — sized so a full service batch coalesces
/// in one fused fetch.
const COALESCE_WIDTH: usize = 32;

impl CpuBackend {
    /// Spawns a `partitions`-way cluster over copies of the graph data.
    pub fn new(graph: &CsrGraph, attributes: &AttributeStore, partitions: u32) -> Self {
        let pg =
            PartitionedGraph::new(graph.clone(), partitions).with_attributes(attributes.clone());
        Self::from_cluster(Cluster::spawn(pg, None, None))
    }

    /// Spawns a cluster over an already-partitioned graph — used when
    /// the caller controls placement (e.g. pinning the hot head of a
    /// skewed workload onto the worker-local shard).
    pub fn from_partitioned(pg: PartitionedGraph) -> Self {
        Self::from_cluster(Cluster::spawn(pg, None, None))
    }

    /// Like [`CpuBackend::from_partitioned`], with the MoF wire plane
    /// enabled: every remote sampling and gather leg is accounted through
    /// request packing and BDI compression per `config`. Replies are
    /// byte-identical to the unwired path — the plane measures, it does
    /// not transform.
    pub fn from_partitioned_wired(pg: PartitionedGraph, config: WireConfig) -> Self {
        Self::from_cluster(Cluster::spawn(pg, Some(config), None))
    }

    /// Like [`CpuBackend::from_partitioned`], with the two-tier hot-set
    /// cache mounted inline on the cluster's remote data plane.
    pub fn from_partitioned_cached(pg: PartitionedGraph, cache: CacheConfig) -> Self {
        Self::from_cluster(Cluster::spawn(pg, None, Some(cache)))
    }

    /// Wire plane *and* hot-set cache together — the arm that shows
    /// sampled wire bytes dropping with the neighbor-tier hit rate.
    pub fn from_partitioned_wired_cached(
        pg: PartitionedGraph,
        wire: WireConfig,
        cache: CacheConfig,
    ) -> Self {
        Self::from_cluster(Cluster::spawn(pg, Some(wire), Some(cache)))
    }

    /// Wire-plane telemetry so far, when spawned wired.
    pub fn wire_snapshot(&self) -> Option<WireSnapshot> {
        self.cluster.wire_snapshot()
    }

    /// Wraps an already-running cluster.
    pub fn from_cluster(cluster: Cluster) -> Self {
        CpuBackend {
            cluster,
            stats: Mutex::new(RequestStats::default()),
            expand_only: AtomicBool::new(false),
        }
    }

    /// The underlying cluster (for partition-level introspection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn record(&self, s: RequestStats) {
        self.stats.lock().expect("stats lock").merge(s);
    }

    /// One fused dispatch on the flat data plane: the stand-alone op
    /// (expand + attribute fetch), or the expansion alone once the
    /// caller has taken over the gather.
    fn run_many(
        &self,
        reqs: &[&SampleRequest],
        excluded: &[u32],
    ) -> (Vec<SampleBlock>, RequestStats) {
        if self.expand_only.load(Ordering::Relaxed) {
            self.cluster.expand_blocks_excluding(reqs, excluded)
        } else {
            self.cluster.sample_blocks_excluding(reqs, excluded)
        }
    }

    fn run(&self, req: &SampleRequest, excluded: &[u32]) -> (SampleBlock, RequestStats) {
        let (mut blocks, s) = self.run_many(&[req], excluded);
        (blocks.pop().expect("one block per request"), s)
    }
}

impl SamplingBackend for CpuBackend {
    fn sample_block(&self, req: &SampleRequest) -> SampleBlock {
        let (block, s) = self.run(req, &[]);
        self.record(s);
        block
    }

    fn sample_many(&self, reqs: &[&SampleRequest]) -> Vec<SampleBlock> {
        // Coalesce in chunks: a wider union frontier dedups more (the
        // skewed head repeats across requests), but its lookup table and
        // reply arenas eventually outgrow the cache, so the fused fetch
        // is capped rather than unbounded.
        let obs_on = ledger::scope_active();
        let mut blocks = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(COALESCE_WIDTH) {
            let t0 = obs_on.then(Instant::now);
            let (mut b, s) = self.run_many(chunk, &[]);
            self.record(s);
            if let Some(t0) = t0 {
                ledger::scope_record(
                    Stage::Sampling,
                    NO_SHARD,
                    0.0,
                    t0.elapsed().as_secs_f64() * 1e6,
                    chunk.len() as u64,
                );
            }
            blocks.append(&mut b);
        }
        blocks
    }

    fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
        let mut out = Vec::new();
        let s = self.cluster.fetch_attrs_into(nodes, &[], &mut out);
        self.record(s);
        out
    }

    fn gather_attr_rows(
        &self,
        nodes: &[NodeId],
        rows: &mut Vec<f32>,
        slot_of: &mut Vec<u32>,
    ) -> usize {
        let s = self.cluster.fetch_attr_rows_into(nodes, &[], rows, slot_of);
        self.record(s);
        self.cluster.attr_len()
    }

    fn stats(&self) -> RequestStats {
        *self.stats.lock().expect("stats lock")
    }

    fn recycle(&self, block: SampleBlock) {
        self.cluster.pool().put_block(block);
    }

    fn try_sample(&self, req: &SampleRequest, attempt: u32) -> Result<SampleOutcome, BackendError> {
        let t0 = ledger::scope_active().then(Instant::now);
        let (block, s) = self.run(req, &[]);
        self.record(s);
        if let Some(t0) = t0 {
            ledger::scope_record(
                Stage::Sampling,
                NO_SHARD,
                0.0,
                t0.elapsed().as_secs_f64() * 1e6,
                u64::from(attempt),
            );
        }
        Ok(SampleOutcome {
            block,
            degraded: s.any_unreachable(),
            unreachable: s.unreachable_nodes,
        })
    }

    fn sample_excluding(&self, req: &SampleRequest, excluded: &[u32]) -> SampleOutcome {
        let (block, s) = self.run(req, excluded);
        self.record(s);
        SampleOutcome {
            block,
            degraded: s.any_unreachable(),
            unreachable: s.unreachable_nodes,
        }
    }

    fn fail_shard(&self, shard: u32) -> bool {
        self.cluster
            .fail_partition(lsdgnn_graph::PartitionId(shard))
    }

    fn shards(&self) -> u32 {
        self.cluster.partitions()
    }

    fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        self.cluster.cache_snapshot()
    }

    fn defer_attr_fetch(&self) {
        self.expand_only.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdgnn_graph::generators;

    fn setup() -> (CsrGraph, AttributeStore) {
        (
            generators::power_law(400, 8, 21),
            AttributeStore::synthetic(400, 8, 21),
        )
    }

    fn req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: (0..8).map(NodeId).collect(),
            hops: 2,
            fanout: 5,
            seed,
        }
    }

    /// A 2-way cluster with the inline hot-set cache mounted.
    fn cached(g: &CsrGraph, a: &AttributeStore) -> CpuBackend {
        let pg = PartitionedGraph::new(g.clone(), 2).with_attributes(a.clone());
        CpuBackend::from_partitioned_cached(pg, CacheConfig::with_capacity(64))
    }

    fn attr_tier(b: &CpuBackend) -> crate::hot_cache::TierSnapshot {
        b.cache_snapshot()
            .and_then(|s| s.attr)
            .expect("attr tier on")
    }

    #[test]
    fn cpu_backend_is_deterministic_per_seed() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 4);
        assert_eq!(b.sample_neighbors(&req(3)), b.sample_neighbors(&req(3)));
        assert!(b.stats().nodes_expanded > 0);
    }

    #[test]
    fn cached_backend_preserves_attribute_values() {
        let (g, a) = setup();
        let plain = CpuBackend::new(&g, &a, 2);
        let cached = cached(&g, &a);
        // Repeated nodes: each distinct remote row misses on the first
        // pass and hits on the second, values equal both times.
        let nodes: Vec<NodeId> = (0..40).map(|i| NodeId(i % 7)).collect();
        let want = plain.gather_attributes(&nodes);
        assert_eq!(cached.gather_attributes(&nodes), want);
        assert_eq!(cached.gather_attributes(&nodes), want);
        let attr = attr_tier(&cached);
        assert!(attr.hits > 0, "second pass must hit");
        assert_eq!(attr.hits, attr.misses);
    }

    #[test]
    fn cached_backend_delegates_sampling_unchanged() {
        let (g, a) = setup();
        let plain = CpuBackend::new(&g, &a, 2);
        let cached = cached(&g, &a);
        // Cold, then warm through the neighbor tier: the same batch.
        let want = plain.sample_neighbors(&req(9));
        assert_eq!(cached.sample_neighbors(&req(9)), want);
        assert_eq!(cached.sample_neighbors(&req(9)), want);
        let neigh = cached
            .cache_snapshot()
            .and_then(|s| s.neigh)
            .expect("neigh tier on");
        assert!(neigh.hits > 0, "the warm pass must hit tier N");
    }

    #[test]
    fn try_sample_is_exact_on_a_healthy_backend() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 4);
        let outcome = b.try_sample(&req(5), 0).expect("healthy");
        assert!(!outcome.degraded);
        assert_eq!(outcome.unreachable, 0);
        assert_eq!(outcome.block, b.sample_block(&req(5)));
        assert_eq!(outcome.block.to_batch(), b.sample_neighbors(&req(5)));
    }

    #[test]
    fn failed_shard_turns_try_sample_degraded() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 4);
        let exact = b.sample_neighbors(&req(5));
        assert!(b.fail_shard(1));
        assert!(!b.fail_shard(1), "already down");
        let outcome = b.try_sample(&req(5), 0).expect("degrades, not errors");
        assert!(outcome.degraded);
        assert!(outcome.unreachable > 0);
        assert!(outcome.block.total_sampled() <= exact.total_sampled());
        assert_eq!(b.shards(), 4);
    }

    #[test]
    fn sample_excluding_matches_persistent_failure() {
        // The per-request mask and a real crash of the same shard must
        // produce the same degraded batch — the chaos layer relies on it.
        let (g, a) = setup();
        let masked = CpuBackend::new(&g, &a, 4);
        let crashed = CpuBackend::new(&g, &a, 4);
        crashed.fail_shard(2);
        let via_mask = masked.sample_excluding(&req(11), &[2]);
        let via_crash = crashed.try_sample(&req(11), 0).unwrap();
        assert_eq!(via_mask, via_crash);
        assert!(via_mask.degraded);
    }

    #[test]
    fn sample_many_matches_individual_calls() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 2);
        let reqs = [req(1), req(2), req(3)];
        let refs: Vec<&SampleRequest> = reqs.iter().collect();
        let many = b.sample_many(&refs);
        for (r, block) in reqs.iter().zip(&many) {
            assert_eq!(&b.sample_block(r), block);
        }
    }

    #[test]
    fn gather_attributes_routes_through_the_coalesced_path() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 2);
        let nodes: Vec<NodeId> = (0..40).map(|i| NodeId(i % 7)).collect();
        // The store's own rows, one per occurrence, with each distinct
        // row fetched once.
        assert_eq!(b.gather_attributes(&nodes), a.gather(&nodes));
        let s = b.stats();
        assert_eq!(s.attr_coalesce_lookups, 40);
        assert_eq!(s.attr_coalesce_hits, 33);
    }

    #[test]
    fn gather_attr_rows_agrees_with_expanded_gather() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 2);
        let nodes: Vec<NodeId> = (0..40).map(|i| NodeId(i % 7)).collect();
        let mut rows = Vec::new();
        let mut slot_of = Vec::new();
        let attr_len = b.gather_attr_rows(&nodes, &mut rows, &mut slot_of);
        assert_eq!(attr_len, a.attr_len());
        assert_eq!(slot_of.len(), nodes.len());
        assert_eq!(rows.len(), 7 * attr_len, "one row per distinct node");
        let expanded = b.gather_attributes(&nodes);
        for (i, &s) in slot_of.iter().enumerate() {
            let s = s as usize;
            assert_eq!(
                &expanded[i * attr_len..(i + 1) * attr_len],
                &rows[s * attr_len..(s + 1) * attr_len],
                "occurrence {i}"
            );
        }

        // The inline cache's row-native path answers identically, cold
        // and warm.
        let cached = cached(&g, &a);
        for pass in 0..2 {
            let mut crows = Vec::new();
            let mut cslots = Vec::new();
            assert_eq!(
                cached.gather_attr_rows(&nodes, &mut crows, &mut cslots),
                attr_len
            );
            assert_eq!(crows, rows, "pass {pass}");
            assert_eq!(cslots, slot_of, "pass {pass}");
        }
        assert!(attr_tier(&cached).hits > 0, "second pass must hit");
    }

    #[test]
    fn recycled_blocks_feed_the_cluster_pool() {
        let (g, a) = setup();
        let b = CpuBackend::new(&g, &a, 2);
        for seed in 0..4 {
            let block = b.sample_block(&req(seed));
            b.recycle(block);
        }
        assert!(b.cluster().pool().stats().reuses > 0);
    }
}

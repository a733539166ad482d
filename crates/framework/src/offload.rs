//! The near-transparent user interface of §5: one Graph-Learn-style
//! session whose sampling calls route through the
//! [`SamplingService`] over any [`SamplingBackend`] — the AliGraph CPU
//! cluster (with or without its inline hot-set cache) or the Access
//! Engine. Swapping hardware is a one-line backend change; results are
//! identical because backends share the per-request-seed determinism
//! contract.

use crate::backend::{CpuBackend, SampleRequest, SamplingBackend};
use crate::cluster::RequestStats;
use crate::service::{SamplingService, ServiceConfig, ServiceStats};
use lsdgnn_axe::command::SampleMethod;
use lsdgnn_axe::{AxeCommand, AxeResponse, CommandExecutor};
use lsdgnn_graph::{AttributeStore, CsrGraph, NodeId};
use lsdgnn_sampler::{SampleBatch, SampleBlock};
use std::sync::{Arc, Mutex};

/// Where sampling requests execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerBackend {
    /// The AliGraph CPU path (distributed server/worker cluster).
    Cpu,
    /// Offloaded to the Access Engine.
    Axe,
}

/// The Access Engine behind the backend interface: each request is
/// translated to the Table 4 command set and executed by a
/// [`CommandExecutor`] seeded from the request, so results depend only
/// on the request — the property the offload's transparency rests on.
pub struct AxeBackend {
    graph: Arc<CsrGraph>,
    attributes: Arc<AttributeStore>,
    stats: Mutex<RequestStats>,
}

impl std::fmt::Debug for AxeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AxeBackend")
            .field("method", &Self::METHOD)
            .finish()
    }
}

impl AxeBackend {
    /// The sampling method every request runs: the paper's streaming
    /// method (Tech-2).
    const METHOD: SampleMethod = SampleMethod::Streaming;

    /// Creates a backend over shared graph data.
    pub fn new(graph: Arc<CsrGraph>, attributes: Arc<AttributeStore>) -> Self {
        AxeBackend {
            graph,
            attributes,
            stats: Mutex::new(RequestStats::default()),
        }
    }

    /// Executes an arbitrary Table 4 command against this backend's
    /// graph, with command randomness derived from `seed`.
    pub fn execute(&self, cmd: &AxeCommand, seed: u64) -> AxeResponse {
        CommandExecutor::new(&self.graph, &self.attributes, seed).execute(cmd)
    }
}

impl SamplingBackend for AxeBackend {
    fn sample_block(&self, req: &SampleRequest) -> SampleBlock {
        let resp = self.execute(
            &AxeCommand::SampleNHop {
                roots: req.roots.clone(),
                hops: req.hops,
                fanout: req.fanout,
                method: Self::METHOD,
                with_attributes: false,
            },
            req.seed,
        );
        let batch = match resp {
            AxeResponse::Sampled { batch, .. } => batch,
            _ => unreachable!("SampleNHop returns Sampled"),
        };
        // The engine is a single local device: every request is local.
        self.stats.lock().expect("stats lock").merge(RequestStats {
            local_requests: 1,
            nodes_expanded: (req.roots.len() + batch.total_sampled()
                - batch.hops.last().map_or(0, Vec::len)) as u64,
            ..RequestStats::default()
        });
        SampleBlock::from_batch(&batch)
    }

    fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
        let resp = self.execute(
            &AxeCommand::ReadNodeAttr {
                nodes: nodes.to_vec(),
            },
            0,
        );
        self.stats.lock().expect("stats lock").merge(RequestStats {
            local_requests: 1,
            attrs_fetched: nodes.len() as u64,
            ..RequestStats::default()
        });
        match resp {
            AxeResponse::NodeAttrs(a) => a,
            _ => unreachable!("ReadNodeAttr returns NodeAttrs"),
        }
    }

    fn stats(&self) -> RequestStats {
        *self.stats.lock().expect("stats lock")
    }

    fn num_nodes(&self) -> u64 {
        self.graph.num_nodes()
    }
}

/// Builds the boxed backend a [`SamplerBackend`] selector names — the
/// single point where the CPU-vs-AxE choice is made.
pub fn build_backend(
    kind: SamplerBackend,
    graph: &CsrGraph,
    attributes: &AttributeStore,
    partitions: u32,
) -> Box<dyn SamplingBackend> {
    match kind {
        SamplerBackend::Cpu => Box::new(CpuBackend::new(graph, attributes, partitions)),
        SamplerBackend::Axe => Box::new(AxeBackend::new(
            Arc::new(graph.clone()),
            Arc::new(attributes.clone()),
        )),
    }
}

/// A Graph-Learn-style session: the user calls `sample` and
/// `node_attributes`; requests flow through a [`SamplingService`] whose
/// backend choice is invisible in the results.
pub struct GraphLearnSession {
    graph: Arc<CsrGraph>,
    attributes: Arc<AttributeStore>,
    service: SamplingService,
    seed: u64,
    issued: u64,
}

impl std::fmt::Debug for GraphLearnSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphLearnSession")
            .field("service", &self.service)
            .finish()
    }
}

impl GraphLearnSession {
    /// Opens a session over a graph + attributes with the chosen backend.
    /// The CPU backend spawns a `partitions`-way cluster.
    pub fn open(
        graph: &CsrGraph,
        attributes: &AttributeStore,
        backend: SamplerBackend,
        partitions: u32,
        seed: u64,
    ) -> Self {
        let boxed = build_backend(backend, graph, attributes, partitions);
        Self::with_backend(
            Arc::new(graph.clone()),
            Arc::new(attributes.clone()),
            boxed,
            seed,
        )
    }

    /// Opens a session over an arbitrary backend (e.g. a cluster built
    /// with [`CpuBackend::from_partitioned_cached`]), sharing graph data
    /// by reference count.
    pub fn with_backend(
        graph: Arc<CsrGraph>,
        attributes: Arc<AttributeStore>,
        backend: Box<dyn SamplingBackend>,
        seed: u64,
    ) -> Self {
        GraphLearnSession {
            graph,
            attributes,
            service: SamplingService::start(backend, ServiceConfig::default()),
            seed,
            issued: 0,
        }
    }

    /// Derives the next per-request seed: deterministic in (session seed,
    /// call index), decorrelated across calls.
    fn next_seed(&mut self) -> u64 {
        let s = self
            .seed
            .wrapping_add(self.issued.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.issued += 1;
        s
    }

    /// Samples a mini-batch (`hops` levels, `fanout` per node).
    pub fn sample(&mut self, roots: &[NodeId], hops: u32, fanout: usize) -> SampleBatch {
        let seed = self.next_seed();
        self.service.sample(SampleRequest {
            roots: roots.to_vec(),
            hops,
            fanout,
            seed,
        })
    }

    /// Gathers attribute vectors for `nodes`.
    pub fn node_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
        self.service.gather_attributes(nodes)
    }

    /// Negative sampling (always AxE command semantics, backend-neutral:
    /// negatives never touch the sampled-frontier path).
    pub fn negative_sample(&mut self, pairs: &[(NodeId, NodeId)], rate: usize) -> Vec<Vec<NodeId>> {
        let seed = self.next_seed();
        let resp = CommandExecutor::new(&self.graph, &self.attributes, seed).execute(
            &AxeCommand::NegativeSample {
                pairs: pairs.to_vec(),
                rate,
            },
        );
        match resp {
            AxeResponse::Negatives(n) => n,
            _ => unreachable!("NegativeSample returns Negatives"),
        }
    }

    /// Service-level stats (queue depth, batch size, latency, backend
    /// accounting).
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Closes the session, draining and stopping the service shards.
    pub fn close(self) {
        self.service.shutdown();
    }

    /// Graph accessor (for validation in tests).
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Attribute accessor.
    pub fn attributes(&self) -> &AttributeStore {
        &self.attributes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hot_cache::CacheConfig;
    use lsdgnn_graph::{generators, PartitionedGraph};

    fn setup() -> (CsrGraph, AttributeStore) {
        let g = generators::power_law(600, 8, 70);
        let a = AttributeStore::synthetic(600, 8, 70);
        (g, a)
    }

    #[test]
    fn both_backends_sample_valid_neighbors() {
        let (g, a) = setup();
        let roots: Vec<NodeId> = (0..8).map(NodeId).collect();
        for backend in [SamplerBackend::Cpu, SamplerBackend::Axe] {
            let mut s = GraphLearnSession::open(&g, &a, backend, 4, 1);
            let batch = s.sample(&roots, 2, 5);
            assert_eq!(batch.hops.len(), 2, "{backend:?}");
            for v in &batch.hops[0] {
                assert!(
                    roots.iter().any(|&r| g.has_edge(r, *v)),
                    "{backend:?} produced a non-neighbor"
                );
            }
            s.close();
        }
    }

    #[test]
    fn backends_agree_on_attributes() {
        let (g, a) = setup();
        let nodes = vec![NodeId(5), NodeId(300), NodeId(599)];
        let cpu = GraphLearnSession::open(&g, &a, SamplerBackend::Cpu, 4, 2);
        let axe = GraphLearnSession::open(&g, &a, SamplerBackend::Axe, 4, 2);
        assert_eq!(cpu.node_attributes(&nodes), axe.node_attributes(&nodes));
        cpu.close();
        axe.close();
    }

    #[test]
    fn backends_agree_exactly_on_samples() {
        // Stronger than the old statistical check: the per-request-seed
        // contract makes CPU and AxE sessions produce identical batches.
        let (g, a) = setup();
        let roots: Vec<NodeId> = (0..32).map(NodeId).collect();
        let mut cpu = GraphLearnSession::open(&g, &a, SamplerBackend::Cpu, 4, 3);
        let mut axe = GraphLearnSession::open(&g, &a, SamplerBackend::Axe, 4, 3);
        assert_eq!(cpu.sample(&roots, 1, 5), axe.sample(&roots, 1, 5));
        cpu.close();
        axe.close();
    }

    #[test]
    fn custom_cached_backend_plugs_into_the_session() {
        let (g, a) = setup();
        let pg = PartitionedGraph::new(g.clone(), 4).with_attributes(a.clone());
        let cached = CpuBackend::from_partitioned_cached(pg, CacheConfig::with_capacity(128));
        let mut s =
            GraphLearnSession::with_backend(Arc::new(g), Arc::new(a.clone()), Box::new(cached), 4);
        let batch = s.sample(&(0..8).map(NodeId).collect::<Vec<_>>(), 1, 5);
        let fetch = batch.attr_fetch_list();
        let first = s.node_attributes(&fetch);
        assert_eq!(first, a.gather(&fetch));
        assert_eq!(s.node_attributes(&fetch), first); // cache round trip
        let attr = s.stats().cache.and_then(|c| c.attr).expect("attr tier on");
        assert!(attr.hits > 0, "the second gather must hit the tier");
        s.close();
    }

    #[test]
    fn negative_sampling_avoids_edges() {
        let (g, a) = setup();
        let mut s = GraphLearnSession::open(&g, &a, SamplerBackend::Axe, 1, 4);
        let negs = s.negative_sample(&[(NodeId(1), NodeId(2))], 10);
        assert_eq!(negs[0].len(), 10);
        for n in &negs[0] {
            assert!(!g.has_edge(NodeId(1), *n));
        }
        s.close();
    }

    #[test]
    fn session_stats_expose_the_service_pipeline() {
        let (g, a) = setup();
        let mut s = GraphLearnSession::open(&g, &a, SamplerBackend::Cpu, 2, 5);
        let roots: Vec<NodeId> = (0..8).map(NodeId).collect();
        for _ in 0..4 {
            s.sample(&roots, 1, 5);
        }
        let stats = s.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.latency.count(), 4);
        assert!(stats.backend.nodes_expanded > 0);
        s.close();
    }
}

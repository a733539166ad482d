//! Distributed sampling: serve a scaled-down Table 2 dataset through the
//! `SamplingService` over the mini-AliGraph cluster backend (one server
//! thread per partition), show where the requests go, and compare
//! against the single-machine view — the characterization workflow of §3.
//!
//! ```text
//! cargo run --example distributed_sampling
//! ```

use lsdgnn_core::framework::{
    CacheConfig, CpuBackend, CpuClusterModel, SampleRequest, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{DatasetConfig, NodeId, PartitionedGraph};

fn main() {
    // The paper's `ml` dataset (207M nodes, 5.7B edges) scaled down to an
    // executable size; attribute length and degree structure preserved.
    let dataset = DatasetConfig::by_name("ml").expect("table 2 dataset");
    let (graph, attrs) = dataset.instantiate_scaled(20_000, 1);
    println!(
        "dataset {}: scaled to {} nodes / {} edges (paper scale: {} / {})",
        dataset.name,
        graph.num_nodes(),
        graph.num_edges(),
        dataset.nodes,
        dataset.edges
    );

    for partitions in [1u32, 4, 8] {
        let backend = CpuBackend::new(&graph, &attrs, partitions);
        let cut = backend.cluster().graph().edge_cut_fraction();
        let service = SamplingService::start(Box::new(backend), ServiceConfig::default());
        // A burst of mini-batches: the bounded queue applies
        // backpressure, the shards coalesce, every request keeps its own
        // seed so results are reproducible.
        let tickets: Vec<_> = (0..8u64)
            .map(|b| {
                let roots: Vec<NodeId> = (0..64)
                    .map(|r| NodeId((b * 64 + r) % graph.num_nodes()))
                    .collect();
                service.submit(SampleRequest {
                    roots,
                    hops: dataset.sampling.hops,
                    fanout: dataset.sampling.fanout as usize,
                    seed: 7 + b,
                })
            })
            .collect();
        let samples: usize = tickets.into_iter().map(|t| t.wait().total_sampled()).sum();
        let stats = service.stats();
        println!(
            "{partitions} server(s): {} samples over {} requests in {} dispatches, \
             remote requests {:.0}% (edge cut {:.0}%), mean latency {:.0}us",
            samples,
            stats.requests,
            stats.dispatches,
            stats.backend.remote_fraction() * 100.0,
            cut * 100.0,
            stats.latency.mean(),
        );
        service.shutdown();
    }

    // The framework-level hot-node cache (Tech-4's "the framework already
    // caches") is mounted inline on the cluster's remote data plane: a
    // hit skips the remote leg. Each gather dedups its list first, so
    // every remote hub is one tier lookup per gather.
    let pg = PartitionedGraph::new(graph.clone(), 4).with_attributes(attrs.clone());
    let cached = CpuBackend::from_partitioned_cached(pg, CacheConfig::with_capacity(2_048));
    let hot: Vec<NodeId> = (0..256).map(|i| NodeId(i % 32)).collect();
    let service = SamplingService::start(Box::new(cached), ServiceConfig::default());
    for _ in 0..4 {
        service.gather_attributes(&hot);
    }
    let attr = service
        .stats()
        .cache
        .and_then(|c| c.attr)
        .expect("attribute tier mounted");
    println!(
        "cached cluster: 4 gathers of {} hub nodes, attribute tier {} hits / {} misses \
         (hit rate {:.0}%)",
        hot.len(),
        attr.hits,
        attr.misses,
        attr.hit_rate() * 100.0,
    );
    service.shutdown();

    // The timing model behind Figure 2(b): why scaling is sub-linear.
    let model = CpuClusterModel::default();
    let curve = model.scaling_curve(&[1, 5, 15]);
    println!(
        "modeled cluster speedup at 1/5/15 servers: {:.2}x / {:.2}x / {:.2}x (communication-bound)",
        curve[0], curve[1], curve[2]
    );
}

//! Quickstart: build a graph, start the sampling service over a backend,
//! sample a mini-batch and fetch its attributes — the serving API of §5.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use lsdgnn_core::framework::{AxeBackend, SampleRequest, SamplingService, ServiceConfig};
use lsdgnn_core::graph::{generators, AttributeStore, NodeId};
use std::sync::Arc;

fn main() {
    // A scaled-down e-commerce-like power-law graph with 64-float
    // attributes.
    let graph = Arc::new(generators::power_law(10_000, 9, 42));
    let attrs = Arc::new(AttributeStore::synthetic(graph.num_nodes(), 64, 42));
    println!(
        "graph: {} nodes, {} edges, avg degree {:.1}, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.avg_degree(),
        graph.max_degree()
    );

    // Start the service over the AxE-offloaded backend. The CPU cluster
    // path is the one-line swap:
    //   Box::new(CpuBackend::new(&graph, &attrs, 4))
    let service = SamplingService::start(
        Box::new(AxeBackend::new(graph.clone(), attrs.clone())),
        ServiceConfig::default(),
    );

    // 2-hop, fanout-10 mini-batch over 8 roots — the paper's Table 2
    // sampling setup in miniature. The request carries its own seed, so
    // the same request is reproducible on any backend.
    let batch = service.sample(SampleRequest {
        roots: (0..8).map(NodeId).collect(),
        hops: 2,
        fanout: 10,
        seed: 7,
    });
    println!(
        "sampled {} hop-1 and {} hop-2 neighbors for {} roots",
        batch.hops[0].len(),
        batch.hops[1].len(),
        batch.roots.len()
    );

    // Fetch attributes for everything a GNN layer would consume.
    let fetch = batch.attr_fetch_list();
    let features = service.gather_attributes(&fetch);
    println!(
        "gathered {} attribute floats for {} nodes",
        features.len(),
        fetch.len()
    );

    // The service keeps the operational stats a serving fleet would
    // alarm on.
    let stats = service.stats();
    println!(
        "service: {} requests in {} dispatches, mean latency {:.0}us, backend expanded {} nodes",
        stats.requests,
        stats.dispatches,
        stats.latency.mean(),
        stats.backend.nodes_expanded
    );
    service.shutdown();
}

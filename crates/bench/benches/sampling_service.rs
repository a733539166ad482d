//! Service-vs-direct dispatch overhead: the same `SampleRequest` served
//! by a `SamplingService` (queue, shard, coalesce, reply channel) versus
//! called straight into the backend, across mini-batch sizes 1/64/512 —
//! so the batching layer's overhead is tracked in the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lsdgnn_core::framework::{
    AxeBackend, SampleRequest, SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{generators, AttributeStore, NodeId};
use std::sync::Arc;

const BATCH_SIZES: [usize; 3] = [1, 64, 512];

fn request(roots: usize, seed: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..roots as u64).map(NodeId).collect(),
        hops: 2,
        fanout: 5,
        seed,
    }
}

fn backend() -> AxeBackend {
    let g = Arc::new(generators::power_law(4_000, 8, 77));
    let a = Arc::new(AttributeStore::synthetic(4_000, 8, 77));
    AxeBackend::new(g, a)
}

fn bench_direct(c: &mut Criterion) {
    let b = backend();
    let mut group = c.benchmark_group("sampling_direct");
    for &roots in &BATCH_SIZES {
        group.bench_with_input(BenchmarkId::new("roots", roots), &roots, |bench, &roots| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(b.sample_neighbors(&request(roots, seed)))
            });
        });
    }
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    let service = SamplingService::start(Box::new(backend()), ServiceConfig::default());
    let mut group = c.benchmark_group("sampling_service");
    for &roots in &BATCH_SIZES {
        group.bench_with_input(BenchmarkId::new("roots", roots), &roots, |bench, &roots| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(service.sample(request(roots, seed)))
            });
        });
    }
    group.finish();
    service.shutdown();
}

criterion_group!(benches, bench_direct, bench_service);
criterion_main!(benches);

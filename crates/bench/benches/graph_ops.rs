//! Graph substrate benchmarks: generators, CSR queries and the
//! distributed cluster sampling path (Figures 2(b)/(c) substrate).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lsdgnn_core::framework::cluster::Cluster;
use lsdgnn_core::framework::SampleRequest;
use lsdgnn_core::graph::{generators, AttributeStore, NodeId, PartitionedGraph};

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    for n in [1_000u64, 10_000] {
        group.bench_with_input(BenchmarkId::new("power_law", n), &n, |b, &n| {
            b.iter(|| black_box(generators::power_law(n, 8, 1)));
        });
    }
    group.finish();
}

fn bench_csr_queries(c: &mut Criterion) {
    let g = generators::power_law(50_000, 9, 2);
    c.bench_function("csr_neighbor_scan_50k", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for v in (0..50_000u64).step_by(7) {
                total += g.neighbors(NodeId(v)).len() as u64;
            }
            black_box(total)
        });
    });
}

fn bench_cluster_sampling(c: &mut Criterion) {
    let g = generators::power_law(10_000, 9, 3);
    let attrs = AttributeStore::synthetic(10_000, 72, 3);
    let pg = PartitionedGraph::new(g, 4).with_attributes(attrs);
    let cluster = Cluster::spawn(pg, None, None);
    let mut req = SampleRequest {
        roots: (0..64).map(NodeId).collect(),
        hops: 2,
        fanout: 10,
        seed: 0,
    };
    let mut group = c.benchmark_group("cluster");
    group.sample_size(20);
    group.bench_function("sample_block_2x10_batch64_4servers", |b| {
        b.iter(|| {
            req.seed += 1;
            black_box(cluster.sample_blocks_excluding(&[&req], &[]))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generators,
    bench_csr_queries,
    bench_cluster_sampling
);
criterion_main!(benches);

//! Section 3 characterization experiments: Figure 2(a)–(e) and Figure 3.

use crate::util::{banner, eng, pct, Table, Telemetry};
use lsdgnn_core::framework::{
    CpuBackend, CpuClusterModel, SampleRequest, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{FootprintModel, NodeId, PAPER_DATASETS};
use lsdgnn_core::memfabric::{figure_2e_series, LinkModel};
use lsdgnn_core::nn::E2eModel;
use lsdgnn_core::sampler::{traffic, StandardSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Figure 2(a): memory footprint of the six graphs and the minimal
/// servers to carry them.
pub fn fig2a() {
    banner(
        "Fig 2(a)",
        "memory footprint and minimal servers (paper scale)",
    );
    let fm = FootprintModel::default();
    let t = Table::new(
        &[
            "graph",
            "attr bytes",
            "struct bytes",
            "total GiB",
            "servers",
        ],
        &[6, 14, 14, 12, 10],
    );
    for d in &PAPER_DATASETS {
        t.row(&[
            d.name.to_string(),
            eng(d.attribute_bytes() as f64),
            eng(d.structure_bytes() as f64),
            format!("{:.0}", fm.footprint_gib(d)),
            fm.min_servers(d).to_string(),
        ]);
    }
}

/// Figure 2(b): sub-linear performance scaling with server count.
pub fn fig2b(scale_nodes: u64, tel: &mut Telemetry) {
    banner(
        "Fig 2(b)",
        "sampling speedup vs number of servers (CPU baseline)",
    );
    let m = CpuClusterModel::default();
    let counts = [1u64, 5, 15];
    let curve = m.scaling_curve(&counts);
    let t = Table::new(&["servers", "speedup", "per-vCPU rate"], &[8, 14, 16]);
    for (s, x) in counts.iter().zip(curve) {
        t.row(&[
            s.to_string(),
            format!("{x:.2}x"),
            format!("{}/s", eng(m.vcpu_rate(*s))),
        ]);
    }
    t.note("ideal would be 1x / 5x / 15x — communication makes it sub-linear");

    // The cause, executed: the same mini-batch stream served by the real
    // mini-AliGraph cluster through the SamplingService — the remote
    // request share grows with the server count.
    let d = lsdgnn_core::graph::DatasetConfig::by_name("ml").expect("table 2 dataset");
    let (g, attrs) = d.instantiate_scaled(scale_nodes, 1);
    let t = Table::new(
        &["servers", "requests", "samples", "remote share"],
        &[8, 12, 14, 16],
    );
    for partitions in [1u32, 4, 8] {
        let service = SamplingService::start_observed(
            Box::new(CpuBackend::new(&g, &attrs, partitions)),
            ServiceConfig::default(),
            tel.tracer(),
            None,
            None,
        );
        let tickets: Vec<_> = (0..16u64)
            .map(|b| {
                service.submit(SampleRequest {
                    roots: (0..32)
                        .map(|r| NodeId((b * 32 + r) % g.num_nodes()))
                        .collect(),
                    hops: d.sampling.hops,
                    fanout: d.sampling.fanout as usize,
                    seed: b,
                })
            })
            .collect();
        let samples: usize = tickets.into_iter().map(|t| t.wait().total_sampled()).sum();
        let stats = service.stats();
        t.row(&[
            partitions.to_string(),
            stats.requests.to_string(),
            samples.to_string(),
            pct(stats.backend.remote_fraction()),
        ]);
        tel.registry.register(
            "service/fig2b",
            &[("partitions", &partitions.to_string())],
            Box::new(stats),
        );
        service.shutdown();
    }
}

/// Figure 2(c): share of memory requests that are fine-grained structure
/// accesses.
pub fn fig2c(scale_nodes: u64) {
    banner(
        "Fig 2(c)",
        "fine-grained structure accesses in total memory requests",
    );
    let t = Table::new(
        &["graph", "analytic", "executed", "avg struct bytes"],
        &[6, 12, 16, 18],
    );
    let mut fractions = Vec::new();
    for d in &PAPER_DATASETS {
        let analytic = traffic::analytic_profile(d);
        fractions.push(analytic.structure_request_fraction());
        // Executed instrumentation on the scaled graph.
        let (g, _) = d.instantiate_scaled(scale_nodes, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let roots: Vec<NodeId> = (0..32).map(NodeId).collect();
        let p = traffic::profile_batch(
            &mut rng,
            &g,
            &StandardSampler,
            &roots,
            d.sampling.hops,
            d.sampling.fanout as usize,
            d.attr_len as usize,
        );
        t.row(&[
            d.name.to_string(),
            pct(analytic.structure_request_fraction()),
            pct(p.structure_request_fraction()),
            format!("{:.1}B", p.avg_structure_request_bytes()),
        ]);
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!(
        "average structure-request share: {} (paper: ~48%)",
        pct(avg)
    );
}

/// Figure 2(d): round-trip latency and effective bandwidth versus request
/// size for the three memory paths.
pub fn fig2d() {
    banner(
        "Fig 2(d)",
        "latency / effective bandwidth vs request size (DRAM, PCIe, RDMA)",
    );
    let links = [
        LinkModel::local_dram(1),
        LinkModel::pcie_host_dram(),
        LinkModel::rdma_remote(),
    ];
    let sizes = [8u64, 16, 32, 64, 128, 256, 1024];
    let t = Table::new(&["link", "bytes", "latency", "eff BW"], &[18, 10, 12, 14]);
    for l in &links {
        for &s in &sizes {
            t.row(&[
                l.name.clone(),
                s.to_string(),
                format!("{}", l.round_trip(s)),
                format!("{:.3} GB/s", l.effective_bandwidth_gbps(s)),
            ]);
        }
    }
    let rdma = LinkModel::rdma_remote();
    println!(
        "RDMA bandwidth collapse 1024B vs 8B: {:.0}x (paper: ~100x)",
        rdma.effective_bandwidth_gbps(1024) / rdma.effective_bandwidth_gbps(8)
    );
}

/// Figure 2(e): outstanding requests needed to fill each link bandwidth.
pub fn fig2e() {
    banner(
        "Fig 2(e)",
        "outstanding requests needed vs latency (64B requests)",
    );
    let latencies = [100u64, 250, 500, 1_000, 2_500, 5_000, 10_000];
    let bandwidths = [16.0, 50.0, 100.0, 200.0];
    let t = Table::new(
        &["latency", "16GB/s", "50GB/s", "100GB/s", "200GB/s"],
        &[12, 10, 10, 10, 10],
    );
    let series: Vec<Vec<(u64, f64)>> = bandwidths
        .iter()
        .map(|&b| figure_2e_series(b, 64, &latencies))
        .collect();
    for (i, &l) in latencies.iter().enumerate() {
        t.row(&[
            format!("{l} ns"),
            format!("{:.0}", series[0][i].1),
            format!("{:.0}", series[1][i].1),
            format!("{:.0}", series[2][i].1),
            format!("{:.0}", series[3][i].1),
        ]);
    }
}

/// Figure 3: end-to-end breakdown and the storage-vs-model observation.
pub fn fig3() {
    banner("Fig 3", "end-to-end LSD-GNN characterization (Table 3 app)");
    let m = E2eModel::default();
    let t = Table::new(
        &[
            "mode",
            "sampling",
            "embedding",
            "gnn",
            "end-model",
            "sampling %",
        ],
        &[12, 12, 12, 10, 12, 14],
    );
    for (label, train) in [("training", true), ("inference", false)] {
        let b = m.breakdown(train);
        t.row(&[
            label.to_string(),
            format!("{:.2}ms", b.sampling_s * 1e3),
            format!("{:.2}ms", b.embedding_s * 1e3),
            format!("{:.2}ms", b.gnn_s * 1e3),
            format!("{:.2}ms", b.end_model_s * 1e3),
            pct(b.sampling_fraction()),
        ]);
    }
    t.note("paper: sampling is 64% of training, 88% of inference");
    let fm = FootprintModel::default();
    let ls = lsdgnn_core::graph::DatasetConfig::by_name("ls").unwrap();
    let ratio = m.storage_to_model_ratio(fm.footprint_bytes(&ls));
    println!(
        "graph storage vs NN model: {:.1e}x ({} params vs {} GiB) — paper: ~5 orders",
        ratio,
        m.model_params(),
        fm.footprint_gib(&ls) as u64,
    );
}

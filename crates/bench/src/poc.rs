//! PoC measurement experiments: Figure 14 (FPGA vs per-vCPU sampling
//! rate) and Figure 15 (analytical model validation against the DES).

use crate::util::{banner, eng, metric_cell, Table, Telemetry};
use lsdgnn_core::axe::{AccessEngine, AxeConfig};
use lsdgnn_core::faas::perf::{bottleneck_rates, PerfInputs};
use lsdgnn_core::framework::CpuClusterModel;
use lsdgnn_core::framework::{
    AxeBackend, CpuBackend, SampleRequest, SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{FootprintModel, NodeId, PAPER_DATASETS};
use lsdgnn_core::memfabric::{MemoryTier, TierConfig};
use std::sync::Arc;

/// Figure 14: simulated PoC FPGA sampling rate versus the per-vCPU CPU
/// baseline, per dataset. The acceptance experiment for the telemetry
/// layer: its engine run is traced (desim/axe/mof spans), its serving
/// run is traced (service spans), and every measurement lands in the
/// registry for `--metrics-out`.
pub fn fig14(scale_nodes: u64, batches: u32, tel: &mut Telemetry) {
    banner(
        "Fig 14",
        "PoC sampling rate vs CPU software baseline (per vCPU)",
    );
    let cpu = CpuClusterModel::default();
    let fm = FootprintModel::default();
    let t = Table::new(
        &["graph", "FPGA samples/s", "vCPU samples/s", "vCPU-equiv"],
        &[6, 16, 16, 14],
    );
    let mut log_sum = 0.0;
    for (i, d) in PAPER_DATASETS.iter().enumerate() {
        let (g, _) = d.instantiate_scaled(scale_nodes, 10);
        let cfg = AxeConfig::poc().with_batch_size(64);
        // Trace one representative engine run (the first dataset) so the
        // Chrome trace stays a single readable set of pid/tid tracks.
        let tracer = if i == 0 { tel.tracer() } else { None };
        let m = AccessEngine::new(cfg).run_traced(&g, d.attr_len as usize, batches, tracer);
        tel.registry
            .register("axe", &[("graph", d.name)], Box::new(m));
        let vcpu = cpu.vcpu_rate_for(d, &fm);
        let equiv = m.samples_per_sec / vcpu;
        log_sum += equiv.ln();
        t.row(&[
            d.name.to_string(),
            format!("{}/s", eng(m.samples_per_sec)),
            format!("{}/s", eng(vcpu)),
            format!("{equiv:.0}"),
        ]);
    }
    let geomean = (log_sum / PAPER_DATASETS.len() as f64).exp();
    println!("geomean vCPU equivalence: {geomean:.0} (paper: one FPGA ~ 894 vCPUs)");

    // The same workload served functionally through the serving stack:
    // the backend constructor is the single line that changes between
    // the two rows of the comparison.
    let d = lsdgnn_core::graph::DatasetConfig::by_name("ss").expect("table 2 dataset");
    let (g, attrs) = d.instantiate_scaled(scale_nodes, 10);
    let backends: [(&str, Box<dyn SamplingBackend>); 2] = [
        ("cpu", Box::new(CpuBackend::new(&g, &attrs, 4))),
        (
            "axe",
            Box::new(AxeBackend::new(
                Arc::new(g.clone()),
                Arc::new(attrs.clone()),
            )),
        ),
    ];
    let mut sample_counts = Vec::new();
    for (name, backend) in backends {
        let service = SamplingService::start_observed(
            backend,
            ServiceConfig::default(),
            tel.tracer(),
            None,
            None,
        );
        let tickets: Vec<_> = (0..u64::from(batches) * 4)
            .map(|b| {
                service.submit(SampleRequest {
                    roots: (0..64)
                        .map(|r| NodeId((b * 64 + r) % g.num_nodes()))
                        .collect(),
                    hops: d.sampling.hops,
                    fanout: d.sampling.fanout as usize,
                    seed: b,
                })
            })
            .collect();
        let samples: usize = tickets.into_iter().map(|t| t.wait().total_sampled()).sum();
        sample_counts.push((name, samples));
        tel.registry
            .register("service", &[("backend", name)], Box::new(service.stats()));
        service.shutdown();
    }
    // The serving table reads back from the registry snapshot — the
    // printed numbers are exactly what `--metrics-out` exports.
    let snap = tel.registry.snapshot();
    let t = Table::new(
        &["backend", "requests", "samples", "latency (us)", "p99 (us)"],
        &[8, 12, 12, 22, 12],
    );
    for (name, samples) in sample_counts {
        let labels = [("backend", name)];
        let get = |metric: &str| {
            snap.get_labeled(metric, &labels)
                .map(metric_cell)
                .unwrap_or_else(|| "-".into())
        };
        let p99 = snap
            .get_labeled("service/latency_us", &labels)
            .and_then(|v| v.as_histogram())
            .map(|h| format!("{:.0}", h.p99))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            name.to_string(),
            get("service/requests"),
            samples.to_string(),
            get("service/latency_us"),
            p99,
        ]);
    }
    t.note("identical sample counts: the backend swap is invisible in results");
}

/// One Figure 15 sweep point.
fn poc_tier(fpga_channels: Option<u32>) -> TierConfig {
    TierConfig {
        local: match fpga_channels {
            None => MemoryTier::PcieHostDram,
            Some(c) => MemoryTier::FpgaLocalDram { channels: c },
        },
        remote: MemoryTier::Mof { links: 3 },
        output: MemoryTier::PciePeerToPeer,
    }
}

/// Figure 15: validating the analytical performance model against the
/// AxE discrete-event simulation across the PoC sweep
/// (1/2/4 cores x PCIe/1/2/4-channel x 1-node/4-node), plus the modelled
/// "w/o PCIe output limitation" series.
pub fn fig15(scale_nodes: u64, batches: u32) {
    banner("Fig 15", "analytical model vs DES measurement (PoC sweeps)");
    let d = lsdgnn_core::graph::DatasetConfig::by_name("ss").unwrap();
    let (g, _) = d.instantiate_scaled(scale_nodes, 11);
    let avg_deg = g.avg_degree();
    let attr_bytes = d.attr_len as f64 * 4.0;

    let t = Table::new(
        &[
            "cores",
            "mem",
            "nodes",
            "DES samples/s",
            "model samples/s",
            "err",
            "model w/o PCIe",
        ],
        &[8, 8, 8, 16, 16, 10, 18],
    );
    let mem_configs: [(&str, Option<u32>); 4] = [
        ("PCIe", None),
        ("1-chn", Some(1)),
        ("2-chn", Some(2)),
        ("4-chn", Some(4)),
    ];
    // The 24-point sweep is the costliest DES work in `all` — compute
    // the grid in parallel, then print the ordered results serially.
    let mut grid = Vec::new();
    for nodes in [1u32, 4] {
        for (mem_name, chans) in mem_configs {
            for cores in [1usize, 2, 4] {
                grid.push((nodes, mem_name, chans, cores));
            }
        }
    }
    let results = grid.into_iter().map(|(nodes, mem_name, chans, cores)| {
        let tier = poc_tier(chans);
        let cfg = AxeConfig::poc()
            .with_cores(cores)
            .with_tier(tier)
            .with_partitions(nodes)
            .with_batch_size(48);
        let des = AccessEngine::new(cfg).run(&g, d.attr_len as usize, batches);
        let inputs = PerfInputs {
            local: tier.local.link_model(),
            remote: tier.remote.link_model(),
            output: Some(tier.output.link_model()),
            output_shares_remote: false,
            cores: cores as u32,
            tags_per_core: 64,
            clock_hz: 250e6,
            avg_degree: avg_deg,
            fanout: 10.0,
            attr_bytes,
            remote_fraction: 1.0 - 1.0 / nodes as f64,
        };
        let model = bottleneck_rates(&inputs).samples_per_sec();
        let no_pcie = bottleneck_rates(&PerfInputs {
            output: None,
            ..inputs
        })
        .samples_per_sec();
        (nodes, mem_name, cores, des.samples_per_sec, model, no_pcie)
    });
    let mut errs = Vec::new();
    for (nodes, mem_name, cores, des_rate, model, no_pcie) in results {
        let err = (model - des_rate).abs() / des_rate;
        errs.push(err);
        t.row(&[
            cores.to_string(),
            mem_name.to_string(),
            format!("{nodes}n"),
            format!("{}/s", eng(des_rate)),
            format!("{}/s", eng(model)),
            format!("{:.0}%", err * 100.0),
            format!("{}/s", eng(no_pcie)),
        ]);
    }
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    println!(
        "mean |model - DES| error: {:.1}% over {} configurations (paper reports ~1% against its PoC)",
        mean_err * 100.0,
        errs.len()
    );
}

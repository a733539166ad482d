//! # LSD-GNN: Hyperscale FPGA-as-a-Service for Distributed GNN Sampling
//!
//! A full reproduction of *"Hyperscale FPGA-as-a-Service Architecture for
//! Large-Scale Distributed Graph Neural Network"* (ISCA 2022) as a Rust
//! library. The physical FPGAs, Alibaba-internal graphs and cloud price
//! calculator are replaced with calibrated simulations (see `DESIGN.md`);
//! every table and figure of the paper's evaluation regenerates from this
//! workspace (`cargo run -p lsdgnn-bench -- all`).
//!
//! This crate is the facade: it re-exports each subsystem and offers
//! [`PocSystem`], a one-call assembly of the proof-of-concept pipeline.
//!
//! ## Subsystems
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`graph`] | §3.2 | CSR storage, attributes, partitioning, Table 2 datasets |
//! | [`sampler`] | §4.2 Tech-2 | standard / streaming / negative / weighted sampling |
//! | [`desim`] | — | discrete-event kernel the hardware models run on |
//! | [`memfabric`] | §3.3 | link latency/bandwidth models, Eq. 3 |
//! | [`mof`] | §4.3 | Memory-over-Fabric frames, packing, BDI, reliability |
//! | [`axe`] | §4.2 | the Access Engine simulation |
//! | [`riscv`] | §4.4 | RV32IM + QRCH control subsystem |
//! | [`nn`] | §2.1 | dense NN substrate, Figure 3 end-to-end model |
//! | [`framework`] | §5 | mini-AliGraph service, CPU baseline, offload |
//! | [`faas`] | §6–7 | the eight-architecture FaaS DSE + cost model |
//! | [`fpga`] | §7.1 | VU13P resource model (Table 11) |
//! | [`telemetry`] | §5–6 methodology | metrics registry + Chrome-trace export |
//! | [`chaos`] | robustness | deterministic fault plans + injection counters |
//!
//! ## Quickstart
//!
//! ```
//! use lsdgnn_core::PocSystem;
//!
//! let poc = PocSystem::scaled_down("ss", 2_000, 42);
//! let report = poc.compare_against_cpu(2);
//! assert!(report.fpga_vcpu_equivalent > 1.0);
//! ```

pub mod bridge;

pub use lsdgnn_axe as axe;
pub use lsdgnn_chaos as chaos;
pub use lsdgnn_desim as desim;
pub use lsdgnn_faas as faas;
pub use lsdgnn_fpga as fpga;
pub use lsdgnn_framework as framework;
pub use lsdgnn_graph as graph;
pub use lsdgnn_memfabric as memfabric;
pub use lsdgnn_mof as mof;
pub use lsdgnn_nn as nn;
pub use lsdgnn_riscv as riscv;
pub use lsdgnn_sampler as sampler;
pub use lsdgnn_telemetry as telemetry;

pub use bridge::QrchAxeBridge;

use lsdgnn_axe::{AccessEngine, AxeConfig, Measurement};
use lsdgnn_framework::{
    AxeBackend, CpuClusterModel, SampleRequest, SamplingService, ServiceConfig,
};
use lsdgnn_graph::{AttributeStore, CsrGraph, DatasetConfig, FootprintModel, NodeId};
use std::sync::Arc;

/// The assembled proof-of-concept system: a scaled-down dataset, the
/// Table 10 AxE configuration, and the CPU baseline model — enough to
/// reproduce the Figure 14 comparison in one object.
#[derive(Debug)]
pub struct PocSystem {
    /// The paper dataset being modeled.
    pub dataset: DatasetConfig,
    /// The scaled-down executable graph.
    pub graph: CsrGraph,
    /// Its synthetic attributes.
    pub attributes: AttributeStore,
    /// The AxE configuration (defaults to Table 10).
    pub axe_config: AxeConfig,
    /// The CPU baseline model.
    pub cpu_model: CpuClusterModel,
}

/// One Figure 14 comparison row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PocComparison {
    /// Simulated FPGA sampling throughput (samples/s).
    pub fpga_samples_per_sec: f64,
    /// Modeled per-vCPU software sampling throughput (samples/s).
    pub vcpu_samples_per_sec: f64,
    /// How many vCPUs one FPGA replaces (the paper's headline is ~894 on
    /// average across the six datasets).
    pub fpga_vcpu_equivalent: f64,
    /// Nodes actually sampled by routing the same mini-batches through
    /// the serving stack (`SamplingService` over an `AxeBackend`) — the
    /// functional validation beside the timing numbers.
    pub served_samples: u64,
}

impl PocSystem {
    /// Builds a PoC system for the named Table 2 dataset, scaled down to
    /// at most `max_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a Table 2 dataset.
    pub fn scaled_down(name: &str, max_nodes: u64, seed: u64) -> Self {
        let dataset =
            DatasetConfig::by_name(name).unwrap_or_else(|| panic!("unknown dataset `{name}`"));
        let (graph, attributes) = dataset.instantiate_scaled(max_nodes, seed);
        PocSystem {
            dataset,
            graph,
            attributes,
            axe_config: AxeConfig::poc().with_seed(seed),
            cpu_model: CpuClusterModel::default(),
        }
    }

    /// Runs the AxE simulation for `batches` mini-batches.
    pub fn run_axe(&self, batches: u32) -> Measurement {
        AccessEngine::new(self.axe_config.clone()).run(
            &self.graph,
            self.dataset.attr_len as usize,
            batches,
        )
    }

    /// Opens the serving stack over this system's graph: a
    /// [`SamplingService`] fed by an [`AxeBackend`]. Swapping the boxed
    /// backend for a `CpuBackend` is the one-line CPU-vs-AxE switch.
    pub fn serving_stack(&self) -> SamplingService {
        SamplingService::start(
            Box::new(AxeBackend::new(
                Arc::new(self.graph.clone()),
                Arc::new(self.attributes.clone()),
            )),
            ServiceConfig::default(),
        )
    }

    /// Runs the Figure 14 comparison: AxE throughput versus the per-vCPU
    /// CPU baseline for this dataset, with the same mini-batches also
    /// routed functionally through the sampling service.
    pub fn compare_against_cpu(&self, batches: u32) -> PocComparison {
        let m = self.run_axe(batches);
        let fm = FootprintModel::default();
        let vcpu = self.cpu_model.vcpu_rate_for(&self.dataset, &fm);
        // The timing numbers above come from the DES; serve the same
        // workload through the real backend interface so the comparison
        // is backed by executed sampling, not just a model.
        let service = self.serving_stack();
        let roots_per_batch = 64.min(self.graph.num_nodes() as usize);
        let mut served_samples = 0u64;
        for b in 0..batches {
            let batch = service.sample(SampleRequest {
                roots: (0..roots_per_batch as u64).map(NodeId).collect(),
                hops: self.dataset.sampling.hops,
                fanout: self.dataset.sampling.fanout as usize,
                seed: self.axe_config.seed ^ u64::from(b),
            });
            served_samples += batch.total_sampled() as u64;
        }
        service.shutdown();
        PocComparison {
            fpga_samples_per_sec: m.samples_per_sec,
            vcpu_samples_per_sec: vcpu,
            fpga_vcpu_equivalent: m.samples_per_sec / vcpu,
            served_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poc_system_assembles_and_runs() {
        let poc = PocSystem::scaled_down("ss", 1_500, 7);
        assert_eq!(poc.dataset.name, "ss");
        let m = poc.run_axe(2);
        assert_eq!(m.batches, 2);
        assert!(m.samples_per_sec > 0.0);
    }

    #[test]
    fn fpga_replaces_many_vcpus() {
        let poc = PocSystem::scaled_down("ll", 2_000, 8);
        let cmp = poc.compare_against_cpu(2);
        assert!(
            cmp.fpga_vcpu_equivalent > 10.0,
            "vcpu equivalent {}",
            cmp.fpga_vcpu_equivalent
        );
        assert!(
            cmp.served_samples > 0,
            "the serving stack produced no samples"
        );
    }

    #[test]
    fn serving_stack_is_deterministic_per_request_seed() {
        let poc = PocSystem::scaled_down("ss", 1_500, 9);
        let service = poc.serving_stack();
        let req = SampleRequest {
            roots: (0..16).map(NodeId).collect(),
            hops: 2,
            fanout: 5,
            seed: 3,
        };
        assert_eq!(service.sample(req.clone()), service.sample(req));
        service.shutdown();
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = PocSystem::scaled_down("nope", 100, 0);
    }
}

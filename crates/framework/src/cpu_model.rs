//! The calibrated CPU-baseline timing model.
//!
//! AliGraph's software sampling path costs microseconds per sampled node:
//! RPC serialization, hash lookups, thread scheduling and the remote
//! round trip. This model captures that with three constants and yields
//! both the per-vCPU sampling rate the paper normalizes Figure 14 against
//! and the sub-linear scaling curve of Figure 2(b).

use lsdgnn_graph::{DatasetConfig, FootprintModel};

/// The CPU cluster timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuClusterModel {
    /// Software path cost per sampled node in ns (hashing, framework
    /// layers, serialization).
    pub software_ns: f64,
    /// Extra amortized cost per *remote* sampled node in ns (batched RPC
    /// + NIC round trip share).
    pub remote_penalty_ns: f64,
    /// Cross-server coordination overhead per sampled node per extra
    /// server in ns (barrier/shuffle costs that grow with the cluster).
    pub coordination_ns: f64,
    /// Sampling vCPUs (workers) per server.
    pub workers_per_server: u32,
}

impl Default for CpuClusterModel {
    fn default() -> Self {
        CpuClusterModel {
            software_ns: 15_000.0,
            remote_penalty_ns: 15_000.0,
            coordination_ns: 250.0,
            workers_per_server: 24,
        }
    }
}

impl CpuClusterModel {
    /// Per-sample cost on an `s`-server deployment, in ns.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn per_sample_ns(&self, servers: u64) -> f64 {
        assert!(servers > 0, "need at least one server");
        let s = servers as f64;
        let remote_fraction = (s - 1.0) / s;
        self.software_ns
            + remote_fraction * self.remote_penalty_ns
            + (s - 1.0) * self.coordination_ns
    }

    /// Sampling rate of one vCPU, in samples/second.
    pub fn vcpu_rate(&self, servers: u64) -> f64 {
        1e9 / self.per_sample_ns(servers)
    }

    /// Aggregate cluster sampling rate in samples/second.
    pub fn cluster_rate(&self, servers: u64) -> f64 {
        self.vcpu_rate(servers) * self.workers_per_server as f64 * servers as f64
    }

    /// Speedup over the single-server deployment — the Figure 2(b) curve.
    pub fn scaling_curve(&self, server_counts: &[u64]) -> Vec<f64> {
        let base = self.cluster_rate(1);
        server_counts
            .iter()
            .map(|&s| self.cluster_rate(s) / base)
            .collect()
    }

    /// Per-vCPU rate for a paper dataset: the server count comes from the
    /// footprint model (bigger graphs force more servers and hence more
    /// remote traffic).
    pub fn vcpu_rate_for(&self, d: &DatasetConfig, fm: &FootprintModel) -> f64 {
        self.vcpu_rate(fm.min_servers(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdgnn_graph::PAPER_DATASETS;

    #[test]
    fn figure_2b_scaling_is_sublinear() {
        let m = CpuClusterModel::default();
        let curve = m.scaling_curve(&[1, 5, 15]);
        assert_eq!(curve[0], 1.0);
        // 5 servers: well below 5x; 15 servers: well below 15x.
        assert!(
            (2.0..4.5).contains(&curve[1]),
            "5-server speedup {}",
            curve[1]
        );
        assert!(
            (4.0..9.0).contains(&curve[2]),
            "15-server speedup {}",
            curve[2]
        );
        assert!(curve[1] < curve[2]);
    }

    #[test]
    fn vcpu_rate_declines_with_cluster_size() {
        let m = CpuClusterModel::default();
        assert!(m.vcpu_rate(1) > m.vcpu_rate(5));
        assert!(m.vcpu_rate(5) > m.vcpu_rate(15));
        // Order of magnitude: tens of thousands of samples/s/vCPU.
        let r = m.vcpu_rate(5);
        assert!((3e4..2e5).contains(&r), "vcpu rate {r}");
    }

    #[test]
    fn dataset_server_counts_drive_rates() {
        let m = CpuClusterModel::default();
        let fm = FootprintModel::default();
        let ss = m.vcpu_rate_for(&PAPER_DATASETS[0], &fm); // 1 server
        let syn = m.vcpu_rate_for(&PAPER_DATASETS[5], &fm); // many servers
        assert!(ss > syn, "single-server graph samples faster per vCPU");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        CpuClusterModel::default().per_sample_ns(0);
    }
}

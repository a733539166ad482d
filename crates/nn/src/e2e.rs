//! The Figure 3 end-to-end breakdown model.
//!
//! The paper profiles the Table 3 application (graph `ls`, 128-wide
//! embeddings, 2-layer graphSAGE-max, DSSM 128-128 head on a 5-server /
//! 120-worker instance) and finds the sampling stage takes **64 %** of
//! training time and **88 %** of inference time, while graph storage is
//! **five orders of magnitude** larger than the NN model.
//!
//! This module recomputes that breakdown from first principles: MAC counts
//! come from the real layer shapes in this crate; stage times divide them
//! by an effective compute rate; sampling time divides the per-batch fetch
//! count by the measured/modelled cluster sampling rate.

use crate::dssm::Dssm;
use crate::layers::Linear;
use crate::sage::SageMaxLayer;

/// One stage of the end-to-end pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Distributed graph sampling (the paper's bottleneck).
    Sampling,
    /// Trainable embedding projection of raw attributes.
    Embedding,
    /// The graphSAGE layers.
    GnnNn,
    /// The DSSM end model.
    EndModel,
}

/// Per-phase times of one mini-batch, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eBreakdown {
    /// Sampling time.
    pub sampling_s: f64,
    /// Embedding time.
    pub embedding_s: f64,
    /// GNN layer time.
    pub gnn_s: f64,
    /// End-model time.
    pub end_model_s: f64,
}

impl E2eBreakdown {
    /// Total batch time.
    pub fn total_s(&self) -> f64 {
        self.sampling_s + self.embedding_s + self.gnn_s + self.end_model_s
    }

    /// Fraction of time spent sampling — the Figure 3 headline number.
    pub fn sampling_fraction(&self) -> f64 {
        self.sampling_s / self.total_s()
    }

    /// Fraction of time in the NN phases (embedding + GNN + end model).
    pub fn nn_fraction(&self) -> f64 {
        1.0 - self.sampling_fraction()
    }
}

/// The end-to-end application model (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct E2eModel {
    /// Mini-batch size (roots).
    pub batch_size: usize,
    /// Fanout per hop.
    pub fanout: usize,
    /// Hops.
    pub hops: u32,
    /// Raw attribute length in floats (graph `ls`: 84).
    pub attr_len: usize,
    /// Embedding width (128).
    pub embed_dim: usize,
    /// Cluster sampling throughput in sampled nodes per second (measured
    /// on the CPU baseline or an accelerator).
    pub sampling_rate: f64,
    /// Effective NN compute rate in FLOP/s (small-kernel GPU efficiency,
    /// not peak).
    pub nn_flops: f64,
    /// Backward-pass cost multiplier for training (forward ≈ 1, training
    /// ≈ 3 with activation recompute).
    pub train_multiplier: f64,
}

impl Default for E2eModel {
    fn default() -> Self {
        E2eModel {
            batch_size: 512,
            fanout: 10,
            hops: 2,
            attr_len: 84,
            embed_dim: 128,
            // 5-server/120-worker AliGraph instance: ~50K sampled
            // nodes/s per worker.
            sampling_rate: 6.0e6,
            nn_flops: 1.0e12,
            train_multiplier: 3.0,
        }
    }
}

impl E2eModel {
    /// Nodes fetched per batch (roots + every hop's samples).
    pub fn fetches_per_batch(&self) -> u64 {
        let mut total = self.batch_size as u64;
        let mut frontier = self.batch_size as u64;
        for _ in 0..self.hops {
            frontier *= self.fanout as u64;
            total += frontier;
        }
        total
    }

    /// NN model parameters (embedding projection + SAGE layers + DSSM) —
    /// the denominator of the storage-ratio claim.
    pub fn model_params(&self) -> u64 {
        let embed = Linear::new(self.attr_len, self.embed_dim, true, 0).params();
        let sage = SageMaxLayer::new(self.embed_dim, self.embed_dim, 0).params();
        let dssm = Dssm::new(self.embed_dim, &[self.embed_dim, self.embed_dim], 0).params();
        embed + self.hops as u64 * sage + dssm
    }

    /// Forward MACs per batch across all NN phases.
    fn phase_macs(&self) -> (u64, u64, u64) {
        let fetches = self.fetches_per_batch() as usize;
        let embed = Linear::new(self.attr_len, self.embed_dim, true, 0).forward_macs(fetches);
        // Layer k transforms the nodes at depth < k (targets shrink by
        // fanout each layer).
        let sage_layer = SageMaxLayer::new(self.embed_dim, self.embed_dim, 0);
        let mut sage = 0u64;
        let mut targets = self.batch_size;
        for hop in (0..self.hops).rev() {
            let depth_nodes = targets * (self.fanout.pow(hop)).max(1);
            sage += sage_layer.forward_macs(depth_nodes);
            targets = self.batch_size;
        }
        let dssm = Dssm::new(self.embed_dim, &[self.embed_dim, self.embed_dim], 0)
            .forward_macs(self.batch_size);
        (embed, sage, dssm)
    }

    /// Computes the per-batch breakdown. `train` applies the backward
    /// multiplier to the NN phases (sampling is identical in both modes).
    pub fn breakdown(&self, train: bool) -> E2eBreakdown {
        let (embed_macs, sage_macs, dssm_macs) = self.phase_macs();
        let mult = if train { self.train_multiplier } else { 1.0 };
        let to_secs = |macs: u64| macs as f64 * 2.0 * mult / self.nn_flops;
        E2eBreakdown {
            sampling_s: self.fetches_per_batch() as f64 / self.sampling_rate,
            embedding_s: to_secs(embed_macs),
            gnn_s: to_secs(sage_macs),
            end_model_s: to_secs(dssm_macs),
        }
    }

    /// Graph-storage bytes divided by NN model bytes — the paper's "five
    /// orders of magnitude" observation, given the dataset's storage size.
    pub fn storage_to_model_ratio(&self, storage_bytes: u64) -> f64 {
        storage_bytes as f64 / (self.model_params() * 4) as f64
    }

    /// Re-fits the two rate knobs against a measured serving run (the
    /// `benchmark` package's `infer_uniform` traced replay, whose
    /// `inference.gather_us` / `inference.compute_us` rows split a
    /// request): given one batch's measured data-plane seconds
    /// (sampling plus attribute gather) and NN compute seconds, back out
    /// the effective `sampling_rate` and `nn_flops` the host actually
    /// delivers for this model's shape.
    /// The shape knobs (`batch_size`, `fanout`, `hops`, `attr_len`)
    /// must already describe the measured workload; the fitted rates
    /// absorb any mismatch between this analytical model's layer stack
    /// and the benched one, which is the point of calibration — after
    /// this call, `breakdown(false)` reproduces the measured wall-clock
    /// split exactly.
    pub fn calibrate_from_run(&mut self, data_plane_s: f64, nn_s: f64) {
        assert!(
            data_plane_s > 0.0 && nn_s > 0.0,
            "measured stage times must be positive"
        );
        self.sampling_rate = self.fetches_per_batch() as f64 / data_plane_s;
        let (embed, sage, dssm) = self.phase_macs();
        self.nn_flops = (embed + sage + dssm) as f64 * 2.0 / nn_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_training_fraction() {
        // Paper: sampling is 64% of training time.
        let f = E2eModel::default().breakdown(true).sampling_fraction();
        assert!((0.55..0.75).contains(&f), "training sampling fraction {f}");
    }

    #[test]
    fn figure3_inference_fraction() {
        // Paper: sampling is 88% of inference time.
        let f = E2eModel::default().breakdown(false).sampling_fraction();
        assert!((0.80..0.94).contains(&f), "inference sampling fraction {f}");
    }

    #[test]
    fn consistency_between_modes() {
        // One parameter set must produce both fractions (the paper's two
        // bars come from the same system).
        let m = E2eModel::default();
        let train = m.breakdown(true);
        let infer = m.breakdown(false);
        assert_eq!(train.sampling_s, infer.sampling_s);
        assert!(train.total_s() > infer.total_s());
        assert!(train.sampling_fraction() < infer.sampling_fraction());
    }

    #[test]
    fn accelerated_sampling_flips_the_bottleneck() {
        // §7.3 Limitation-1: with sampling sped up enough, NN dominates
        // (sampling falls to a few percent).
        let mut m = E2eModel::default();
        m.sampling_rate *= 900.0; // one FPGA ≈ 894 vCPU
        let f = m.breakdown(true).sampling_fraction();
        assert!(f < 0.05, "accelerated sampling fraction {f}");
    }

    #[test]
    fn calibration_reproduces_measured_serving_split() {
        // Measured once by the serving bench's since-deleted stage
        // breakdown (sequential arm, 16-root requests on the
        // 2-partition skewed workload):
        // per-request p50 ≈ 811 µs split ≈ 68.8 % sampling + 17.8 %
        // attribute gather + 13.4 % GNN compute. The analytical model
        // folds gather into the sampling stage (the paper's "sampling"
        // bar is the whole data plane), so the measured data-plane
        // fraction is 86.6 % — inside Figure 3's 80–94 % inference
        // window even on a single-core CPU backend with a toy model.
        const REQ_S: f64 = 811.0e-6;
        const DATA_PLANE_FRAC: f64 = 0.688 + 0.178;
        let mut m = E2eModel {
            batch_size: 16,
            attr_len: 64,
            ..E2eModel::default()
        };
        m.calibrate_from_run(REQ_S * DATA_PLANE_FRAC, REQ_S * (1.0 - DATA_PLANE_FRAC));
        let b = m.breakdown(false);
        assert!(
            (b.sampling_fraction() - DATA_PLANE_FRAC).abs() < 1e-9,
            "calibrated fraction {} != measured {DATA_PLANE_FRAC}",
            b.sampling_fraction()
        );
        assert!(
            (b.total_s() - REQ_S).abs() / REQ_S < 1e-9,
            "calibrated total {} != measured {REQ_S}",
            b.total_s()
        );
        assert!(
            (0.80..0.94).contains(&b.sampling_fraction()),
            "measured serving split left the Figure 3 inference window"
        );
        // Fitted host rates stay physical: the in-memory backend fetches
        // faster per node than the paper's 120-worker distributed store
        // only by a small factor, and a scalar single-core NN stack sits
        // well under the 1 TFLOP/s effective-GPU default.
        assert!(m.sampling_rate > 0.0 && m.sampling_rate < E2eModel::default().sampling_rate);
        assert!(m.nn_flops > 0.0 && m.nn_flops < E2eModel::default().nn_flops);
    }

    #[test]
    fn storage_dwarfs_model_by_5_orders() {
        // Graph `ls` is ~700 GB; the model is ~100-400 KB.
        let m = E2eModel::default();
        let ratio = m.storage_to_model_ratio(700 * (1u64 << 30));
        assert!(
            (1e5..1e7).contains(&ratio),
            "storage/model ratio {ratio:e} not ~5 orders"
        );
    }

    #[test]
    fn fetch_count_matches_paper_config() {
        assert_eq!(E2eModel::default().fetches_per_batch(), 512 * 111);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = E2eModel::default().breakdown(true);
        assert!((b.sampling_fraction() + b.nn_fraction() - 1.0).abs() < 1e-12);
        assert!(b.total_s() > 0.0);
    }
}

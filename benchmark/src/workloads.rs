//! The four workloads as data: fixed sizes, rates and limits, and the
//! seeded request streams. Nothing here touches the program under test;
//! it receives only the [`Request`]s generated below.
//!
//! Rates and sizes are constants, never calibrated per host, so a parent
//! and a change see identical offered load. They were sized once on a
//! 2-vCPU host where the closed-loop knees sat near 3000 req/s
//! (sample_hot) and 600 req/s (infer_uniform): `lo` is about a quarter
//! and `hi` about half of capacity.

use crate::spec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One sampling request as the generator makes it; the adapter turns it
/// into the program's own request type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub roots: Vec<u64>,
    pub hops: u32,
    pub fanout: usize,
    pub seed: u64,
    /// Tenant / priority class 0..3 (only the shaped front door reads it).
    pub class: usize,
}

/// Sizes that `--smoke` shrinks; everything else is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Nodes of the serving graph.
    pub nodes: u64,
    /// Nodes of the AxE graph.
    pub axe_nodes: u64,
    /// Requests of the sequential traced replay (serving workloads).
    pub replay: usize,
    /// Mini-batches of the traced replay of train_batch.
    pub replay_train: usize,
    /// Mini-batches of one traced AxE run.
    pub axe_batches: u32,
}

pub const FULL: Scale = Scale {
    nodes: 100_000,
    axe_nodes: 50_000,
    replay: 600,
    replay_train: 40,
    axe_batches: 400,
};

pub const SMOKE: Scale = Scale {
    nodes: 5_000,
    axe_nodes: 2_000,
    replay: 40,
    replay_train: 4,
    axe_batches: 8,
};

pub const EDGES_PER_NODE: u64 = 8;
pub const ATTR_LEN: usize = 64;
pub const PARTITIONS: u32 = 4;
pub const CACHE_CAPACITY: usize = 4096;
/// GraphSAGE widths served by infer_uniform.
pub const MODEL_WIDTHS: [usize; 3] = [64, 32, 16];
pub const MODEL_SEED: u64 = 77;
/// Attribute floats per node the AxE run models.
pub const AXE_ATTR_LEN: usize = 72;
/// Mini-batches per timed AxE operation in the end-to-end run.
pub const AXE_OP_BATCHES: u32 = 10;

/// The tail percentile `lat_p90_ms` reports. On a shared 2-vCPU host a
/// p99 moved fivefold between identical runs and a p95 by a quarter;
/// what lies beyond p90 is judged by `slo_share` instead.
pub const TAIL: f64 = 0.9;

/// Answers per window of the open-loop phases: ten lie beyond a
/// window's p90.
pub const WINDOW: usize = 100;

/// Nodes of sample_hot's hot set, and the share of roots drawn from it.
pub const HOT_SET: usize = 256;
pub const HOT_SHARE: f64 = 0.9;
/// Class mix of sample_hot: interactive / batch / best-effort.
pub const CLASS_SHARES: [f64; 3] = [0.6, 0.3, 0.1];

/// How a workload is driven and judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    pub roots: usize,
    pub fanout: usize,
    /// Open-loop rates in req/s (`None`: closed loop only).
    pub open: Option<OpenRates>,
    /// Requests in flight (ticketed doors) or client threads (calls).
    pub concurrency: usize,
    /// Latency limit a request must meet to count toward `slo_share`.
    pub limit_ms: f64,
    /// Untimed warm-up requests sent through the front door at set-up.
    pub warmup: usize,
    /// Answers per window of the closed loop: about a tenth to a third of
    /// a second of completions.
    pub closed_window: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenRates {
    pub lo: f64,
    pub hi: f64,
}

pub fn profile(workload: &str) -> Profile {
    match workload {
        spec::SAMPLE_HOT => Profile {
            roots: 8,
            fanout: 5,
            open: Some(OpenRates {
                lo: 600.0,
                hi: 1500.0,
            }),
            concurrency: 16,
            limit_ms: 20.0,
            warmup: 500,
            closed_window: 500,
        },
        spec::INFER_UNIFORM => Profile {
            roots: 8,
            fanout: 10,
            open: Some(OpenRates {
                lo: 150.0,
                hi: 350.0,
            }),
            concurrency: 16,
            limit_ms: 50.0,
            warmup: 200,
            closed_window: 100,
        },
        spec::TRAIN_BATCH => Profile {
            roots: 256,
            fanout: 10,
            open: None,
            concurrency: 2,
            limit_ms: 250.0,
            warmup: 8,
            closed_window: 12,
        },
        spec::AXE_POC => Profile {
            roots: 64,
            fanout: 10,
            open: None,
            concurrency: 1,
            limit_ms: 250.0,
            warmup: 2,
            closed_window: 10,
        },
        other => panic!("unknown workload `{other}`"),
    }
}

/// An endless, seeded stream of one workload's requests. The same
/// `(workload, seed, nodes)` always yields the same stream.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SmallRng,
    nodes: u64,
    roots: usize,
    fanout: usize,
    /// sample_hot's hot set; empty for the uniform workloads.
    hot: Vec<u64>,
    next: u64,
}

impl RequestStream {
    pub fn new(workload: &str, seed: u64, nodes: u64) -> Self {
        let p = profile(workload);
        // Decorrelate from the graph generator, which takes the raw seed.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6c6f_6164_6765_6e31);
        let hot = if workload == spec::SAMPLE_HOT {
            (0..HOT_SET.min(nodes as usize))
                .map(|_| rng.gen_range(0..nodes))
                .collect()
        } else {
            Vec::new()
        };
        RequestStream {
            rng,
            nodes,
            roots: p.roots,
            fanout: p.fanout,
            hot,
            next: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let roots = (0..self.roots)
            .map(|_| {
                if !self.hot.is_empty() && self.rng.gen_bool(HOT_SHARE) {
                    self.hot[self.rng.gen_range(0..self.hot.len())]
                } else {
                    self.rng.gen_range(0..self.nodes)
                }
            })
            .collect();
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let class = if u < CLASS_SHARES[0] {
            0
        } else if u < CLASS_SHARES[0] + CLASS_SHARES[1] {
            1
        } else {
            2
        };
        self.next += 1;
        Some(Request {
            roots,
            hops: 2,
            fanout: self.fanout,
            seed: self.next,
            class,
        })
    }
}

/// Seeded Poisson arrival offsets (seconds from phase start) at `rate`
/// per second, up to `duration_s`.
pub fn arrivals(seed: u64, rate: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6172_7269_7661_6c73);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration_s * 1.1) as usize + 8);
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        let a: Vec<_> = RequestStream::new(spec::SAMPLE_HOT, 3, 10_000)
            .take(50)
            .collect();
        let b: Vec<_> = RequestStream::new(spec::SAMPLE_HOT, 3, 10_000)
            .take(50)
            .collect();
        let c: Vec<_> = RequestStream::new(spec::SAMPLE_HOT, 4, 10_000)
            .take(50)
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|r| r.roots.len() == 8 && r.fanout == 5));
    }

    #[test]
    fn sample_hot_draws_most_roots_from_its_hot_set() {
        let s = RequestStream::new(spec::SAMPLE_HOT, 1, 100_000);
        let hot = s.hot.clone();
        let roots: Vec<u64> = s.take(500).flat_map(|r| r.roots).collect();
        let share = roots.iter().filter(|r| hot.contains(r)).count() as f64 / roots.len() as f64;
        assert!((0.85..0.95).contains(&share), "hot share {share}");
        let u = RequestStream::new(spec::INFER_UNIFORM, 1, 100_000);
        assert!(u.hot.is_empty());
    }

    #[test]
    fn arrivals_follow_the_rate_and_stay_in_the_phase() {
        let a = arrivals(9, 1000.0, 4.0);
        assert!((3600..4400).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < 4.0));
        assert_eq!(a, arrivals(9, 1000.0, 4.0));
    }
}

//! Seeded open-loop traffic generation: the offered load the paper's
//! hyperscale setting implies but never models.
//!
//! Closed-loop drivers (submit, wait, submit) hide overload by
//! construction — the client slows down exactly when the service does,
//! so queues never grow. Real FaaS traffic is *open-loop*: millions of
//! independent clients submit on their own schedule, and a service that
//! falls behind eats an unbounded backlog. This module generates such a
//! schedule deterministically:
//!
//! * a **diurnal envelope** — a sinusoidal day/night modulation of the
//!   mean rate (the slow timescale provisioning follows), times
//! * **self-similar bursts** — a b-model multiplicative cascade
//!   (repeatedly splitting each interval's mass `b : 1−b` with a seeded
//!   coin) whose burstiness is scale-free: zooming into any sub-range
//!   shows the same spiky structure, matching measured datacenter
//!   arrivals far better than Poisson, times
//! * a **per-tenant mix** — each tenant has a weight, a priority class,
//!   a FaaS archetype name, and a request shape (roots/hops/fanout) with
//!   a relative deadline.
//!
//! Everything is a pure function of `(seed, config)` via [`ChaosRng`]'s
//! counter-based draws: the same trace replays byte-identically on any
//! thread count, which is what lets `bench traffic` gate on digests.

use crate::admission::Priority;
use crate::backend::SampleRequest;
use lsdgnn_chaos::ChaosRng;
use lsdgnn_graph::NodeId;

/// Local draw streams (namespaced away from the chaos plan's).
mod stream {
    /// Cascade coin flips (entity = level, index = node).
    pub const CASCADE: u64 = 0x7001;
    /// Fractional-count rounding per bucket.
    pub const COUNT: u64 = 0x7002;
    /// Arrival offset within a bucket.
    pub const OFFSET: u64 = 0x7003;
    /// Tenant pick per arrival.
    pub const TENANT: u64 = 0x7004;
    /// Root-node derivation per request.
    pub const ROOTS: u64 = 0x7005;
}

/// One tenant's contract with the traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (also its metrics label).
    pub name: String,
    /// FaaS archetype serving this tenant (one of the 8 DSE points,
    /// e.g. `"mem-opt.tc"`); the autoscaler routes by this.
    pub archetype: String,
    /// Priority class of the tenant's traffic.
    pub class: Priority,
    /// Share of total arrivals (normalized over all tenants).
    pub weight: f64,
    /// Relative deadline of each request, µs.
    pub deadline_us: u64,
    /// Request shape: root count.
    pub roots: usize,
    /// Request shape: sampling hops.
    pub hops: u32,
    /// Request shape: per-hop fanout.
    pub fanout: usize,
}

/// Traffic model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Replay identity: same seed + config → same trace.
    pub seed: u64,
    /// Trace length, µs of virtual time.
    pub duration_us: u64,
    /// Mean arrival rate over the whole trace.
    pub mean_rps: f64,
    /// Diurnal modulation depth in [0, 1): 0 = flat, 0.5 = mean ±50%.
    pub diurnal_depth: f64,
    /// Diurnal cycles across the trace (1.0 = one "day").
    pub diurnal_cycles: f64,
    /// b-model bias in [0.5, 1): 0.5 = smooth (uniform split), 0.9 =
    /// heavily bursty. The larger share of each split goes to a
    /// seeded-coin-chosen half, recursively.
    pub burstiness: f64,
    /// Cascade depth: the trace divides into `2^depth` buckets.
    pub cascade_depth: u32,
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
}

/// One scheduled request arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Virtual arrival time, µs from trace start.
    pub at_us: u64,
    /// Index into [`TrafficConfig::tenants`].
    pub tenant: u32,
    /// The tenant's priority class (denormalized for hot-path use).
    pub class: Priority,
    /// Relative deadline, µs.
    pub deadline_us: u64,
    /// Per-request sampling seed (also derives the root set).
    pub seed: u64,
    /// Request shape: root count.
    pub roots: usize,
    /// Request shape: sampling hops.
    pub hops: u32,
    /// Request shape: per-hop fanout.
    pub fanout: usize,
}

impl Arrival {
    /// Materializes the sampling request against a concrete graph: the
    /// roots are a pure function of the arrival seed, folded into the
    /// node range.
    pub fn request(&self, rng: &ChaosRng, graph_nodes: u64) -> SampleRequest {
        let roots = (0..self.roots)
            .map(|i| {
                NodeId(
                    (rng.uniform(stream::ROOTS, self.seed, i as u64) * graph_nodes as f64) as u64
                        % graph_nodes.max(1),
                )
            })
            .collect();
        SampleRequest {
            roots,
            hops: self.hops,
            fanout: self.fanout,
            seed: self.seed,
        }
    }

    /// Worst-case node expansions this request asks for (roots × Σ
    /// fanoutʰ): the work unit the autoscaler's fluid model and the
    /// perf-model capacity share.
    pub fn work_samples(&self) -> f64 {
        let mut per_root = 0.0;
        let mut layer = 1.0;
        for _ in 0..self.hops {
            layer *= self.fanout as f64;
            per_root += layer;
        }
        self.roots as f64 * per_root
    }
}

/// A fully materialized arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTrace {
    /// Arrivals sorted by time (ties keep generation order).
    pub arrivals: Vec<Arrival>,
    /// Trace length, µs.
    pub duration_us: u64,
    /// The generating seed.
    pub seed: u64,
}

impl TrafficTrace {
    /// Generates the schedule: cascade weights × diurnal envelope give
    /// each bucket an expected count; counts round stochastically; each
    /// arrival gets a uniform offset, a weighted tenant pick, and a
    /// derived per-request seed.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant mix, zero duration, or a burstiness
    /// outside [0.5, 1).
    pub fn generate(cfg: &TrafficConfig) -> Self {
        assert!(!cfg.tenants.is_empty(), "traffic needs at least one tenant");
        assert!(cfg.duration_us > 0, "trace duration must be non-zero");
        assert!(
            (0.5..1.0).contains(&cfg.burstiness),
            "burstiness must be in [0.5, 1)"
        );
        let rng = ChaosRng::new(cfg.seed);
        let buckets = 1usize << cfg.cascade_depth.min(20);

        // b-model cascade: split each interval's probability mass b:1-b,
        // the coin deciding which half gets the larger share.
        let mut weights = vec![1.0f64];
        for level in 0..cfg.cascade_depth.min(20) {
            let mut next = Vec::with_capacity(weights.len() * 2);
            for (i, w) in weights.iter().enumerate() {
                let heads = rng.uniform(stream::CASCADE, level as u64, i as u64) < 0.5;
                let (a, b) = if heads {
                    (cfg.burstiness, 1.0 - cfg.burstiness)
                } else {
                    (1.0 - cfg.burstiness, cfg.burstiness)
                };
                next.push(w * a);
                next.push(w * b);
            }
            weights = next;
        }

        // Diurnal envelope, renormalized so mean_rps stays the mean.
        let two_pi = std::f64::consts::TAU;
        let envelope: Vec<f64> = (0..buckets)
            .map(|i| {
                let phase = (i as f64 + 0.5) / buckets as f64;
                1.0 + cfg.diurnal_depth * (two_pi * cfg.diurnal_cycles * phase).sin()
            })
            .collect();
        let mut mass: Vec<f64> = weights.iter().zip(&envelope).map(|(w, e)| w * e).collect();
        let total_mass: f64 = mass.iter().sum();
        let target = cfg.mean_rps * cfg.duration_us as f64 / 1e6;
        for m in &mut mass {
            *m *= target / total_mass;
        }

        // Cumulative tenant weights for the per-arrival pick.
        let tenant_total: f64 = cfg.tenants.iter().map(|t| t.weight).sum();
        assert!(tenant_total > 0.0, "tenant weights must sum positive");
        let cum: Vec<f64> = cfg
            .tenants
            .iter()
            .scan(0.0, |acc, t| {
                *acc += t.weight / tenant_total;
                Some(*acc)
            })
            .collect();

        let bucket_us = cfg.duration_us as f64 / buckets as f64;
        let mut arrivals = Vec::with_capacity(target as usize + buckets);
        let mut global_idx = 0u64;
        for (i, expected) in mass.iter().enumerate() {
            let frac = expected.fract();
            let mut count = expected.floor() as u64;
            if rng.uniform(stream::COUNT, i as u64, 0) < frac {
                count += 1;
            }
            let start_us = i as f64 * bucket_us;
            let mut bucket_arrivals: Vec<Arrival> = (0..count)
                .map(|k| {
                    let at_us =
                        (start_us + rng.uniform(stream::OFFSET, i as u64, k) * bucket_us) as u64;
                    let pick = rng.uniform(stream::TENANT, i as u64, k);
                    let tenant = cum.iter().position(|&c| pick < c).unwrap_or(cum.len() - 1);
                    let spec = &cfg.tenants[tenant];
                    let seed = lsdgnn_chaos::plan::fnv1a(
                        &[
                            cfg.seed.to_le_bytes(),
                            global_idx.wrapping_add(k).to_le_bytes(),
                        ]
                        .concat(),
                    );
                    Arrival {
                        at_us: at_us.min(cfg.duration_us.saturating_sub(1)),
                        tenant: tenant as u32,
                        class: spec.class,
                        deadline_us: spec.deadline_us,
                        seed,
                        roots: spec.roots,
                        hops: spec.hops,
                        fanout: spec.fanout,
                    }
                })
                .collect();
            global_idx += count;
            bucket_arrivals.sort_by_key(|a| a.at_us);
            arrivals.extend(bucket_arrivals);
        }
        TrafficTrace {
            arrivals,
            duration_us: cfg.duration_us,
            seed: cfg.seed,
        }
    }

    /// Arrival count.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Mean arrival rate realized by the trace.
    pub fn mean_rps(&self) -> f64 {
        self.arrivals.len() as f64 / (self.duration_us as f64 / 1e6)
    }

    /// Peak arrival rate over any aligned window of `window_us` — the
    /// burst factor is `peak_rps / mean_rps`.
    pub fn peak_rps(&self, window_us: u64) -> f64 {
        assert!(window_us > 0, "window must be non-zero");
        let windows = self.duration_us.div_ceil(window_us) as usize;
        let mut counts = vec![0u64; windows.max(1)];
        for a in &self.arrivals {
            counts[(a.at_us / window_us) as usize] += 1;
        }
        let peak = counts.iter().copied().max().unwrap_or(0);
        peak as f64 / (window_us as f64 / 1e6)
    }

    /// FNV-1a fingerprint of the full schedule — the replay identity
    /// `bench traffic` gates on.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.arrivals.len() * 34 + 16);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(&self.duration_us.to_le_bytes());
        for a in &self.arrivals {
            bytes.extend_from_slice(&a.at_us.to_le_bytes());
            bytes.extend_from_slice(&u64::from(a.tenant).to_le_bytes());
            bytes.extend_from_slice(&a.seed.to_le_bytes());
            bytes.extend_from_slice(&(a.class.index() as u16).to_le_bytes());
        }
        lsdgnn_chaos::plan::fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "recsys".into(),
                archetype: "mem-opt.tc".into(),
                class: Priority::Interactive,
                weight: 2.0,
                deadline_us: 20_000,
                roots: 4,
                hops: 2,
                fanout: 4,
            },
            TenantSpec {
                name: "refresh".into(),
                archetype: "base.tc".into(),
                class: Priority::Batch,
                weight: 1.0,
                deadline_us: 200_000,
                roots: 8,
                hops: 2,
                fanout: 8,
            },
            TenantSpec {
                name: "crawler".into(),
                archetype: "cost-opt.decp".into(),
                class: Priority::BestEffort,
                weight: 1.0,
                deadline_us: 500_000,
                roots: 4,
                hops: 1,
                fanout: 4,
            },
        ]
    }

    fn config(seed: u64, burstiness: f64) -> TrafficConfig {
        TrafficConfig {
            seed,
            duration_us: 2_000_000,
            mean_rps: 500.0,
            diurnal_depth: 0.4,
            diurnal_cycles: 1.0,
            burstiness,
            cascade_depth: 8,
            tenants: mix(),
        }
    }

    #[test]
    fn trace_is_deterministic_and_seed_sensitive() {
        let a = TrafficTrace::generate(&config(7, 0.75));
        let b = TrafficTrace::generate(&config(7, 0.75));
        assert_eq!(a, b, "same seed+config → same trace");
        assert_eq!(a.digest(), b.digest());
        let c = TrafficTrace::generate(&config(8, 0.75));
        assert_ne!(a.digest(), c.digest(), "seed is the identity");
    }

    #[test]
    fn mean_rate_tracks_the_config() {
        let t = TrafficTrace::generate(&config(7, 0.75));
        let mean = t.mean_rps();
        assert!(
            (mean - 500.0).abs() / 500.0 < 0.1,
            "realized mean {mean} rps should track the configured 500"
        );
        // Bucket order + within-bucket sort → globally time-sorted.
        assert!(t.arrivals.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn burstiness_raises_the_peak_to_mean_ratio() {
        let smooth = TrafficTrace::generate(&config(7, 0.5));
        let bursty = TrafficTrace::generate(&config(7, 0.85));
        let window = 50_000; // 50ms
        let smooth_ratio = smooth.peak_rps(window) / smooth.mean_rps();
        let bursty_ratio = bursty.peak_rps(window) / bursty.mean_rps();
        assert!(
            bursty_ratio > smooth_ratio * 1.5,
            "b=0.85 peak/mean {bursty_ratio:.2} must dwarf b=0.5's {smooth_ratio:.2}"
        );
        assert!(bursty_ratio > 3.0, "bursty trace peaks ≥3× mean");
    }

    #[test]
    fn tenant_mix_respects_weights_and_classes() {
        let t = TrafficTrace::generate(&config(7, 0.7));
        let mut per_tenant = [0u64; 3];
        for a in &t.arrivals {
            per_tenant[a.tenant as usize] += 1;
            assert_eq!(a.class, mix()[a.tenant as usize].class);
            assert_eq!(a.deadline_us, mix()[a.tenant as usize].deadline_us);
        }
        let total = t.len() as f64;
        assert!(
            (per_tenant[0] as f64 / total - 0.5).abs() < 0.1,
            "weight 2/4"
        );
        assert!(
            (per_tenant[1] as f64 / total - 0.25).abs() < 0.1,
            "weight 1/4"
        );
    }

    #[test]
    fn requests_materialize_deterministically_in_range() {
        let t = TrafficTrace::generate(&config(7, 0.7));
        let rng = ChaosRng::new(t.seed);
        let a = &t.arrivals[0];
        let r1 = a.request(&rng, 600);
        let r2 = a.request(&rng, 600);
        assert_eq!(r1, r2);
        assert_eq!(r1.roots.len(), a.roots);
        assert!(r1.roots.iter().all(|n| n.0 < 600));
        assert!(a.work_samples() > 0.0);
    }
}

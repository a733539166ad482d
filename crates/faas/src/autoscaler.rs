//! Policy simulation and a cost-scored autoscaler for the serving tier.
//!
//! Replays a seeded [`TrafficTrace`] against the §7.2 archetype
//! performance model in virtual time: each step admits the arrivals that
//! fall inside it (optionally through an [`AdmissionController`]), drains
//! the class lanes in priority order against the fleet's modeled sampling
//! capacity, and charges the fleet by the hour through [`CostModel`]. An
//! optional hysteresis autoscaler adds and removes simulated cards as
//! utilization moves; policies are compared by *cost per million SLO-met
//! requests*, which is the number the capacity planner actually buys.
//!
//! The simulation is deliberately fluid (work is a scalar samples count,
//! service happens within the step that pays for it) — it ranks shaping
//! and scaling policies on identical traffic, it does not predict absolute
//! latencies. The batching delay model mirrors the live service's two
//! [`BatchPolicy`](lsdgnn_framework::BatchPolicy) arms: the fixed arm
//! charges every request the full growth-timer wait, the slack arm
//! charges `min(wait, remaining slack)` so coalescing is never the reason
//! a request misses its deadline.

use crate::arch::Architecture;
use crate::cost::CostModel;
use crate::instance::InstanceSize;
use crate::perf;
use lsdgnn_framework::{
    AdmissionConfig, AdmissionController, Arrival, BrownoutConfig, Priority, TrafficTrace, Verdict,
    CLASSES,
};
use lsdgnn_graph::DatasetConfig;
use std::collections::VecDeque;

/// How the simulated batcher charges coalescing delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchSim {
    /// Every request waits out the fixed growth timer.
    Fixed {
        /// The growth-timer wait charged to every request, µs.
        wait_us: u64,
    },
    /// Requests wait `min(wait, slack)`: a batch closes early once the
    /// oldest member's deadline slack runs out.
    Slack {
        /// The growth-timer ceiling, µs.
        wait_us: u64,
    },
}

impl BatchSim {
    /// Batching delay charged to a request that finished its queue +
    /// service time with `slack_us` left before its deadline.
    fn delay_us(&self, slack_us: u64) -> u64 {
        match *self {
            BatchSim::Fixed { wait_us } => wait_us,
            BatchSim::Slack { wait_us } => wait_us.min(slack_us),
        }
    }
}

/// Hysteresis bounds for the card autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Fleet floor.
    pub min_cards: u32,
    /// Fleet ceiling.
    pub max_cards: u32,
    /// Scale up when step utilization exceeds this...
    pub up_utilization: f64,
    /// ...and down when it falls below this.
    pub down_utilization: f64,
    /// Consecutive steps past a threshold before acting.
    pub consecutive_steps: u32,
    /// Steps to sit still after any action.
    pub cooldown_steps: u32,
    /// Cards added or removed per action.
    pub step_cards: u32,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_cards: 1,
            max_cards: 16,
            up_utilization: 0.85,
            down_utilization: 0.40,
            consecutive_steps: 2,
            cooldown_steps: 3,
            step_cards: 1,
        }
    }
}

/// Fleet sizing policy.
#[derive(Debug, Clone, PartialEq)]
pub enum Scaling {
    /// A fixed fleet (the peak-provisioned comparison arm).
    Static {
        /// Cards held for the whole trace.
        cards: u32,
    },
    /// Hysteresis autoscaling between the configured bounds.
    Auto(AutoscalerConfig),
}

/// One policy arm: shaping × batching × scaling.
#[derive(Debug, Clone)]
pub struct SimPolicy {
    /// Report label.
    pub name: String,
    /// Admission control; `None` is the unshaped baseline (merged FIFO,
    /// unbounded queue).
    pub admission: Option<AdmissionConfig>,
    /// Batching delay model.
    pub batch: BatchSim,
    /// Fleet sizing.
    pub scaling: Scaling,
}

/// The simulated platform: which archetype serves, how fast, at what
/// granularity.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Serving architecture (one of the Table 8 eight).
    pub arch: Architecture,
    /// Instance size per card.
    pub instance: InstanceSize,
    /// Dataset the perf model is evaluated on.
    pub dataset: DatasetConfig,
    /// Divides the modeled samples/sec so request rates stay tractable:
    /// the §7.2 model yields hundreds of millions of samples/sec per
    /// card, which would need absurd request rates to load. Scaling
    /// capacity and demand together preserves every ratio the comparison
    /// cares about.
    pub rate_scale: f64,
    /// Virtual step, µs.
    pub step_us: u64,
    /// Allowed deadline-miss fraction; the burn fed to admission is
    /// `recent miss fraction / slo_budget`.
    pub slo_budget: f64,
    /// Completions in the sliding miss window behind the burn signal.
    pub burn_window: usize,
    /// Extra steps allowed to drain queues after the last arrival;
    /// anything still queued then is counted served-but-missed.
    pub max_drain_steps: u64,
}

impl SimConfig {
    /// A paper-shaped default: comm-opt.tc Medium cards on the given
    /// dataset, 10ms steps.
    pub fn new(dataset: DatasetConfig) -> Self {
        SimConfig {
            arch: Architecture::parse("comm-opt.tc").expect("known archetype"),
            instance: InstanceSize::Medium,
            dataset,
            // 2.6e7 samples/sec/card scaled to ~2.6e5: a ~300-sample
            // request then costs ~1ms of card time, comfortably inside
            // the tens-of-ms interactive deadlines the traces use.
            rate_scale: 100.0,
            step_us: 5_000,
            slo_budget: 0.05,
            burn_window: 256,
            max_drain_steps: 2_000,
        }
    }

    /// Modeled sampling capacity of one card, samples/sec, after
    /// `rate_scale`.
    pub fn card_rate(&self) -> f64 {
        perf::samples_per_sec(self.arch, self.instance, &self.dataset) / self.rate_scale
    }

    /// Request rate (requests/sec) that loads `cards` to `utilization`,
    /// for traces whose requests average `work_per_request` samples. The
    /// bench uses this to pin trace demand to a fraction of static
    /// capacity so the comparison is about shaping, not sizing.
    pub fn calibrated_rps(&self, cards: u32, work_per_request: f64, utilization: f64) -> f64 {
        self.card_rate() * cards as f64 * utilization / work_per_request.max(1.0)
    }
}

/// Per-class outcome counts for one policy arm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassOutcome {
    /// Arrivals offered to this class.
    pub submitted: u64,
    /// Admitted into a lane.
    pub admitted: u64,
    /// Rejected (rate limit or full lane).
    pub rejected: u64,
    /// Dropped by brownout shedding.
    pub shed: u64,
    /// Served to completion (including past-deadline completions).
    pub completed: u64,
    /// Served within their deadline.
    pub slo_met: u64,
    /// Admits served at brownout-degraded fanout.
    pub degraded: u64,
}

/// What one policy arm did with the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Policy label.
    pub policy: String,
    /// Virtual steps simulated (including drain).
    pub steps: u64,
    /// Mean fleet size across steps.
    pub cards_mean: f64,
    /// Peak fleet size.
    pub cards_max: u32,
    /// Fleet size at the final step.
    pub cards_final: u32,
    /// Scale-up actions taken.
    pub scale_ups: u32,
    /// Scale-down actions taken.
    pub scale_downs: u32,
    /// Outcomes per class, indexed by [`Priority::index`].
    pub classes: [ClassOutcome; CLASSES],
    /// High-water lane depth per class (requests).
    pub max_queue: [u64; CLASSES],
    /// Whether the admission lane bounds were never exceeded (true
    /// vacuously for the unshaped baseline).
    pub bounds_respected: bool,
    /// Fleet cost over the trace, dollars.
    pub cost: f64,
    /// Dollars per million SLO-met requests (infinite if none met).
    pub cost_per_million_slo_met: f64,
}

impl PolicyReport {
    /// Total requests that met their deadline.
    pub fn slo_met_total(&self) -> u64 {
        self.classes.iter().map(|c| c.slo_met).sum()
    }

    /// Fraction of one class's offered load that met its deadline.
    pub fn slo_rate(&self, class: Priority) -> f64 {
        let c = &self.classes[class.index()];
        if c.submitted == 0 {
            1.0
        } else {
            c.slo_met as f64 / c.submitted as f64
        }
    }

    /// Rejected + shed counts outside `class` (for "rejections confined
    /// to best-effort" style assertions).
    pub fn refusals_outside(&self, class: Priority) -> u64 {
        Priority::ALL
            .iter()
            .filter(|p| **p != class)
            .map(|p| {
                let c = &self.classes[p.index()];
                c.rejected + c.shed
            })
            .sum()
    }
}

/// A request waiting for fleet capacity.
#[derive(Debug, Clone, Copy)]
struct Pending {
    at_us: u64,
    deadline_us: u64,
    work_left: f64,
    class: Priority,
    degraded: bool,
}

fn work_samples(a: &Arrival, fanout: usize) -> f64 {
    let mut per_root = 0.0;
    let mut frontier = 1.0;
    for _ in 0..a.hops {
        frontier *= fanout.max(1) as f64;
        per_root += frontier;
    }
    a.roots as f64 * per_root
}

/// Sliding-window deadline-miss accounting behind the burn signal.
struct BurnWindow {
    recent: VecDeque<bool>,
    cap: usize,
    budget: f64,
}

impl BurnWindow {
    fn new(cap: usize, budget: f64) -> Self {
        BurnWindow {
            recent: VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
            budget: budget.max(1e-9),
        }
    }

    fn observe(&mut self, missed: bool) {
        if self.recent.len() == self.cap {
            self.recent.pop_front();
        }
        self.recent.push_back(missed);
    }

    fn burn(&self) -> f64 {
        if self.recent.is_empty() {
            return 0.0;
        }
        let misses = self.recent.iter().filter(|m| **m).count() as f64;
        misses / self.recent.len() as f64 / self.budget
    }
}

/// Hysteresis state for the autoscaler.
struct ScalerState {
    over: u32,
    under: u32,
    cooldown: u32,
}

/// Replays `trace` under one policy arm and scores it.
///
/// # Panics
///
/// Panics if the policy's admission config has fewer tenants than the
/// trace references, or on a zero-card static fleet.
pub fn simulate(
    trace: &TrafficTrace,
    policy: &SimPolicy,
    sim: &SimConfig,
    cost: &CostModel,
) -> PolicyReport {
    let mut cards = match &policy.scaling {
        Scaling::Static { cards } => {
            assert!(*cards > 0, "static fleet needs at least one card");
            *cards
        }
        Scaling::Auto(a) => a.min_cards.max(1),
    };
    let mut ctrl = policy.admission.clone().map(AdmissionController::new);
    let card_rate = sim.card_rate();
    let price_per_us = cost.faas_instance_price(sim.instance, 0.0) / 3.6e9;

    let mut lanes: [VecDeque<Pending>; CLASSES] = Default::default();
    let mut classes = [ClassOutcome::default(); CLASSES];
    let mut max_queue = [0u64; CLASSES];
    let mut burn = BurnWindow::new(sim.burn_window, sim.slo_budget);
    let mut scaler = ScalerState {
        over: 0,
        under: 0,
        cooldown: 0,
    };
    let (mut steps, mut drain_steps) = (0u64, 0u64);
    let (mut cards_sum, mut cards_max) = (0u64, cards);
    let (mut scale_ups, mut scale_downs) = (0u32, 0u32);
    let mut dollars = 0.0f64;
    let mut idx = 0usize;
    let mut now = 0u64;

    loop {
        let step_end = now + sim.step_us;
        let mut arrived_work = 0.0f64;

        // Admit this step's arrivals.
        while idx < trace.arrivals.len() && trace.arrivals[idx].at_us < step_end {
            let a = &trace.arrivals[idx];
            idx += 1;
            let out = &mut classes[a.class.index()];
            out.submitted += 1;
            let verdict = match ctrl.as_mut() {
                Some(c) => {
                    c.set_burn(burn.burn());
                    c.decide(a.tenant as usize, a.class, a.at_us)
                }
                None => Verdict::Admit {
                    degrade_fanout: false,
                },
            };
            match verdict {
                Verdict::Admit { degrade_fanout } => {
                    out.admitted += 1;
                    let fanout = if degrade_fanout {
                        (a.fanout / BrownoutConfig::FANOUT_DIV).max(1)
                    } else {
                        a.fanout
                    };
                    if degrade_fanout {
                        out.degraded += 1;
                    }
                    let work = work_samples(a, fanout);
                    arrived_work += work;
                    // The unshaped baseline has no lanes: everything
                    // shares one FIFO (interactive's) in arrival order.
                    let lane = if ctrl.is_some() {
                        a.class.index()
                    } else {
                        Priority::Interactive.index()
                    };
                    lanes[lane].push_back(Pending {
                        at_us: a.at_us,
                        deadline_us: a.deadline_us,
                        work_left: work,
                        class: a.class,
                        degraded: degrade_fanout,
                    });
                }
                Verdict::Reject { .. } => out.rejected += 1,
                Verdict::Shed => out.shed += 1,
            }
        }

        for (i, lane) in lanes.iter().enumerate() {
            max_queue[i] = max_queue[i].max(lane.len() as u64);
        }

        // Serve in priority order against the fleet's step capacity.
        let capacity = cards as f64 * card_rate * (sim.step_us as f64 * 1e-6);
        let queued_work: f64 = lanes
            .iter()
            .flat_map(|l| l.iter())
            .map(|p| p.work_left)
            .sum();
        let utilization = if capacity > 0.0 {
            queued_work / capacity
        } else {
            f64::INFINITY
        };
        let mut budget = capacity;
        for lane in lanes.iter_mut() {
            while budget > 0.0 {
                let Some(front) = lane.front_mut() else { break };
                if front.work_left > budget {
                    front.work_left -= budget;
                    budget = 0.0;
                    break;
                }
                budget -= front.work_left;
                let done = lane.pop_front().expect("front exists");
                if let Some(c) = ctrl.as_mut() {
                    c.dequeued(done.class);
                }
                let out = &mut classes[done.class.index()];
                out.completed += 1;
                let base = step_end.saturating_sub(done.at_us);
                let slack = done.deadline_us.saturating_sub(base);
                let total = base + policy.batch.delay_us(slack);
                let met = total <= done.deadline_us;
                if met {
                    out.slo_met += 1;
                }
                burn.observe(!met);
                let _ = done.degraded;
            }
            if budget <= 0.0 {
                break;
            }
        }

        // Autoscale on utilization with hysteresis.
        if let Scaling::Auto(a) = &policy.scaling {
            if scaler.cooldown > 0 {
                scaler.cooldown -= 1;
            } else {
                if utilization > a.up_utilization {
                    scaler.over += 1;
                    scaler.under = 0;
                } else if utilization < a.down_utilization {
                    scaler.under += 1;
                    scaler.over = 0;
                } else {
                    scaler.over = 0;
                    scaler.under = 0;
                }
                if scaler.over >= a.consecutive_steps && cards < a.max_cards {
                    cards = (cards + a.step_cards).min(a.max_cards);
                    scale_ups += 1;
                    scaler.over = 0;
                    scaler.cooldown = a.cooldown_steps;
                } else if scaler.under >= a.consecutive_steps && cards > a.min_cards {
                    cards = cards.saturating_sub(a.step_cards).max(a.min_cards);
                    scale_downs += 1;
                    scaler.under = 0;
                    scaler.cooldown = a.cooldown_steps;
                }
            }
        }

        steps += 1;
        cards_sum += cards as u64;
        cards_max = cards_max.max(cards);
        dollars += cards as f64 * price_per_us * sim.step_us as f64;
        now = step_end;
        let _ = arrived_work;

        let empty = lanes.iter().all(|l| l.is_empty());
        if idx >= trace.arrivals.len() {
            drain_steps += 1;
            if empty || drain_steps > sim.max_drain_steps {
                break;
            }
        }
    }

    // Anything still queued at the drain cap would finish far past its
    // deadline: count it served-but-missed so conservation holds.
    for lane in lanes.iter_mut() {
        while let Some(p) = lane.pop_front() {
            if let Some(c) = ctrl.as_mut() {
                c.dequeued(p.class);
            }
            classes[p.class.index()].completed += 1;
        }
    }

    let bounds_respected = ctrl.as_ref().is_none_or(|c| c.stats().bounds_respected());
    let slo_met: u64 = classes.iter().map(|c| c.slo_met).sum();
    PolicyReport {
        policy: policy.name.clone(),
        steps,
        cards_mean: cards_sum as f64 / steps.max(1) as f64,
        cards_max,
        cards_final: cards,
        scale_ups,
        scale_downs,
        classes,
        max_queue,
        bounds_respected,
        cost: dollars,
        cost_per_million_slo_met: if slo_met == 0 {
            f64::INFINITY
        } else {
            dollars * 1e6 / slo_met as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdgnn_framework::{BrownoutConfig, BucketConfig, TenantConfig, TenantSpec, TrafficConfig};

    fn dataset() -> DatasetConfig {
        DatasetConfig::by_name("ll").unwrap()
    }

    fn mix() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "chat".into(),
                archetype: "comm-opt.tc".into(),
                class: Priority::Interactive,
                weight: 2.0,
                deadline_us: 40_000,
                roots: 4,
                hops: 2,
                fanout: 8,
            },
            TenantSpec {
                name: "nightly".into(),
                archetype: "comm-opt.tc".into(),
                class: Priority::Batch,
                weight: 1.0,
                deadline_us: 400_000,
                roots: 8,
                hops: 2,
                fanout: 8,
            },
            TenantSpec {
                name: "crawler".into(),
                archetype: "comm-opt.tc".into(),
                class: Priority::BestEffort,
                weight: 1.0,
                deadline_us: 1_000_000,
                roots: 8,
                hops: 2,
                fanout: 8,
            },
        ]
    }

    fn admission(bounds: [usize; CLASSES]) -> AdmissionConfig {
        AdmissionConfig {
            tenants: mix()
                .into_iter()
                .map(|t| TenantConfig {
                    name: t.name,
                    bucket: BucketConfig {
                        rate_per_sec: 2_000.0,
                        burst: 200.0,
                    },
                })
                .collect(),
            queue_bounds: bounds,
            brownout: Some(BrownoutConfig),
        }
    }

    fn bursty_trace(sim: &SimConfig, cards: u32, utilization: f64) -> TrafficTrace {
        let tenants = mix();
        let work: f64 = {
            let per: Vec<f64> = tenants
                .iter()
                .map(|t| {
                    let mut fr = 1.0;
                    let mut sum = 0.0;
                    for _ in 0..t.hops {
                        fr *= t.fanout as f64;
                        sum += fr;
                    }
                    t.roots as f64 * sum
                })
                .collect();
            let wsum: f64 = tenants.iter().map(|t| t.weight).sum();
            tenants
                .iter()
                .zip(&per)
                .map(|(t, w)| w * t.weight / wsum)
                .sum()
        };
        TrafficTrace::generate(&TrafficConfig {
            seed: 7,
            duration_us: 2_000_000,
            mean_rps: sim.calibrated_rps(cards, work, utilization),
            // A deep single cycle: a genuine rush hour and a genuine
            // trough, so scale-down behavior is exercised too.
            diurnal_depth: 0.8,
            diurnal_cycles: 1.0,
            burstiness: 0.8,
            cascade_depth: 8,
            tenants,
        })
    }

    fn policies(cards: u32) -> (SimPolicy, SimPolicy, SimPolicy) {
        let wait = 5_000;
        (
            SimPolicy {
                name: "fixed/no-admission".into(),
                admission: None,
                batch: BatchSim::Fixed { wait_us: wait },
                scaling: Scaling::Static { cards },
            },
            SimPolicy {
                name: "slack+admission".into(),
                admission: Some(admission([512, 512, 64])),
                batch: BatchSim::Slack { wait_us: wait },
                scaling: Scaling::Static { cards },
            },
            SimPolicy {
                name: "slack+admission+autoscaler".into(),
                admission: Some(admission([512, 512, 64])),
                batch: BatchSim::Slack { wait_us: wait },
                scaling: Scaling::Auto(AutoscalerConfig {
                    min_cards: 1,
                    max_cards: cards,
                    ..AutoscalerConfig::default()
                }),
            },
        )
    }

    #[test]
    fn shaping_beats_the_unshaped_baseline_on_interactive_slo() {
        let sim = SimConfig::new(dataset());
        let cards = 4;
        let trace = bursty_trace(&sim, cards, 0.9);
        let cost = CostModel::default_fitted();
        let (base, shaped, _) = policies(cards);
        let b = simulate(&trace, &base, &sim, &cost);
        let s = simulate(&trace, &shaped, &sim, &cost);
        assert!(
            s.slo_rate(Priority::Interactive) > b.slo_rate(Priority::Interactive),
            "shaped {} vs baseline {}",
            s.slo_rate(Priority::Interactive),
            b.slo_rate(Priority::Interactive)
        );
        assert!(s.bounds_respected);
        // The shaped arm's drops stay in the best-effort class.
        assert_eq!(
            s.refusals_outside(Priority::BestEffort),
            s.classes[Priority::Interactive.index()].rejected
                + s.classes[Priority::Interactive.index()].shed
                + s.classes[Priority::Batch.index()].rejected
                + s.classes[Priority::Batch.index()].shed
        );
    }

    #[test]
    fn every_submission_reaches_exactly_one_terminal_outcome() {
        let sim = SimConfig::new(dataset());
        let trace = bursty_trace(&sim, 4, 1.1);
        let cost = CostModel::default_fitted();
        let (base, shaped, auto) = policies(4);
        for p in [&base, &shaped, &auto] {
            let r = simulate(&trace, p, &sim, &cost);
            for (i, c) in r.classes.iter().enumerate() {
                assert_eq!(
                    c.submitted,
                    c.completed + c.rejected + c.shed,
                    "{}: class {i} leaks requests",
                    p.name
                );
                assert_eq!(c.admitted, c.completed, "{}: class {i} lost admits", p.name);
            }
        }
    }

    #[test]
    fn autoscaler_scales_up_under_burst_and_back_down() {
        let sim = SimConfig::new(dataset());
        let cards = 6;
        let trace = bursty_trace(&sim, cards, 0.9);
        let cost = CostModel::default_fitted();
        let (_, _, auto) = policies(cards);
        let r = simulate(&trace, &auto, &sim, &cost);
        assert!(r.scale_ups > 0, "burst must trigger a scale-up");
        assert!(r.scale_downs > 0, "troughs must trigger scale-downs");
        assert!(r.cards_max > 1);
        assert!(
            r.cards_mean < r.cards_max as f64,
            "fleet must not sit at peak the whole trace ({} mean vs {} peak)",
            r.cards_mean,
            r.cards_max
        );
    }

    #[test]
    fn autoscaler_costs_no_more_per_slo_met_than_static_peak() {
        let sim = SimConfig::new(dataset());
        let cards = 6;
        let trace = bursty_trace(&sim, cards, 0.9);
        let cost = CostModel::default_fitted();
        let (_, shaped, auto) = policies(cards);
        let s = simulate(&trace, &shaped, &sim, &cost);
        let a = simulate(&trace, &auto, &sim, &cost);
        assert!(
            a.cost_per_million_slo_met <= s.cost_per_million_slo_met,
            "auto {} vs static {}",
            a.cost_per_million_slo_met,
            s.cost_per_million_slo_met
        );
        assert!(a.cost < s.cost, "smaller mean fleet must cost less");
    }

    #[test]
    fn simulation_is_deterministic() {
        let sim = SimConfig::new(dataset());
        let trace = bursty_trace(&sim, 4, 0.9);
        let cost = CostModel::default_fitted();
        let (_, shaped, _) = policies(4);
        let a = simulate(&trace, &shaped, &sim, &cost);
        let b = simulate(&trace, &shaped, &sim, &cost);
        assert_eq!(a, b);
    }

    #[test]
    fn slack_batching_never_adds_a_miss() {
        // Identical fleet and traffic; only the batch model differs. The
        // slack arm's met count can only improve on the fixed arm's.
        let sim = SimConfig::new(dataset());
        let trace = bursty_trace(&sim, 4, 0.9);
        let cost = CostModel::default_fitted();
        let fixed = SimPolicy {
            name: "fixed".into(),
            admission: None,
            batch: BatchSim::Fixed { wait_us: 30_000 },
            scaling: Scaling::Static { cards: 4 },
        };
        let slack = SimPolicy {
            name: "slack".into(),
            batch: BatchSim::Slack { wait_us: 30_000 },
            ..fixed.clone()
        };
        let f = simulate(&trace, &fixed, &sim, &cost);
        let s = simulate(&trace, &slack, &sim, &cost);
        assert!(s.slo_met_total() >= f.slo_met_total());
    }
}

//! `bench traffic` — overload-robust serving under bursty open-loop
//! traffic: the burstiness × tenant-mix × policy sweep plus a live
//! shaped-service leg.
//!
//! **Simulation leg** — every cell generates a seeded [`TrafficTrace`]
//! (diurnal envelope × b-model burst cascade × a multi-tenant request
//! mix) calibrated to ~90% of a 4-card fleet's modeled capacity, then
//! replays it through three policy arms of the virtual-time simulator:
//!
//! 1. `fixed/no-admission` — today's service shape: one merged FIFO, a
//!    fixed batch growth timer, a static fleet;
//! 2. `slack+admission` — per-tenant token buckets, bounded priority
//!    lanes with best-effort brownout shedding, slack-driven batch close,
//!    same static fleet;
//! 3. `+autoscaler` — arm 2 with the hysteresis card autoscaler, scored
//!    by [`CostModel`] as cost per million SLO-met requests.
//!
//! **Live leg** — two runs over a real [`SamplingService`] on a CPU
//! cluster backend: (a) the no-shaping gate, a [`ShapedService`] with an
//! unlimited admission config whose reply digest must equal the plain
//! service's byte-for-byte (overload control is pay-for-what-you-use);
//! (b) an open-loop trace replay through bucket-limited admission, whose
//! verdict counts are a pure function of the trace's virtual arrival
//! times and therefore replay identically.
//!
//! Nothing in the artifact reads a clock, so it is byte-identical across
//! runs (`ci.sh` `cmp`s a full run with `BENCH_traffic.json`).
//!
//! Gates (written by `report.rs`): `digests_match`, the open-loop leg's
//! `open_loop_refusals_best_effort_only` and `open_loop_bounds_respected`,
//! `slo_met_improved` (strictly better interactive SLO attainment with
//! refusals confined to best-effort), `no_unbounded_queue`,
//! `autoscaler_cost_ok`.

use crate::report::{hex, Report};
use crate::util::Table;
use crate::workload::{
    digest_replies, small_backend, small_request, SMALL_NODES, SMALL_PARTITIONS,
};
use lsdgnn_core::chaos::plan::fnv1a;
use lsdgnn_core::chaos::ChaosRng;
use lsdgnn_core::faas::autoscaler::{
    simulate, AutoscalerConfig, BatchSim, PolicyReport, Scaling, SimConfig, SimPolicy,
};
use lsdgnn_core::faas::CostModel;
use lsdgnn_core::framework::{
    AdmissionConfig, BatchPolicy, BrownoutConfig, BucketConfig, Priority, SamplingService,
    ServiceConfig, ShapedRequest, ShapedService, SubmitVerdict, TenantConfig, TenantSpec,
    TrafficConfig, TrafficTrace, CLASSES,
};
use lsdgnn_core::graph::DatasetConfig;
use lsdgnn_core::telemetry::Json;
use std::time::Duration;

/// Requests in the no-shaping digest gate.
const FULL_REQUESTS: u64 = 300;
const QUICK_REQUESTS: u64 = 80;
/// Static fleet size for the simulation arms.
const SIM_CARDS: u32 = 4;

// ---------------------------------------------------------------- sim leg

/// A named tenant mix for the simulation sweep.
struct Mix {
    name: &'static str,
    tenants: Vec<TenantSpec>,
}

fn tenant(
    name: &str,
    archetype: &str,
    class: Priority,
    weight: f64,
    deadline_us: u64,
    roots: usize,
) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        archetype: archetype.to_string(),
        class,
        weight,
        deadline_us,
        roots,
        hops: 2,
        fanout: 8,
    }
}

fn mixes(quick: bool) -> Vec<Mix> {
    let mut m = vec![
        Mix {
            name: "interactive-heavy",
            tenants: vec![
                tenant("chat", "mem-opt.tc", Priority::Interactive, 4.0, 40_000, 4),
                tenant("feed", "comm-opt.tc", Priority::Batch, 1.0, 300_000, 8),
                tenant(
                    "crawl",
                    "base.decp",
                    Priority::BestEffort,
                    1.0,
                    1_000_000,
                    8,
                ),
            ],
        },
        Mix {
            name: "mixed",
            tenants: vec![
                tenant("chat", "mem-opt.tc", Priority::Interactive, 2.0, 40_000, 4),
                tenant(
                    "rank",
                    "comm-opt.decp",
                    Priority::Interactive,
                    1.0,
                    60_000,
                    6,
                ),
                tenant("etl", "cost-opt.tc", Priority::Batch, 2.0, 300_000, 8),
                tenant(
                    "crawl",
                    "base.decp",
                    Priority::BestEffort,
                    1.0,
                    1_000_000,
                    8,
                ),
            ],
        },
    ];
    if !quick {
        m.push(Mix {
            name: "batch-heavy",
            tenants: vec![
                tenant("chat", "mem-opt.tc", Priority::Interactive, 1.0, 40_000, 4),
                tenant("etl", "cost-opt.tc", Priority::Batch, 4.0, 300_000, 8),
                tenant(
                    "crawl",
                    "base.decp",
                    Priority::BestEffort,
                    2.0,
                    1_000_000,
                    8,
                ),
            ],
        });
    }
    m
}

/// Mean modeled work (samples) of one request under the mix's weights.
fn mean_work(tenants: &[TenantSpec]) -> f64 {
    let wsum: f64 = tenants.iter().map(|t| t.weight).sum();
    tenants
        .iter()
        .map(|t| {
            let mut frontier = 1.0;
            let mut per_root = 0.0;
            for _ in 0..t.hops {
                frontier *= t.fanout as f64;
                per_root += frontier;
            }
            t.roots as f64 * per_root * t.weight / wsum
        })
        .sum()
}

/// Admission for the shaped arms: generous buckets for interactive and
/// batch tenants (the gate demands their refusals stay at zero), a tight
/// bucket on the best-effort tenant, bounded lanes, brownout shedding.
fn sim_admission(tenants: &[TenantSpec], mean_rps: f64) -> AdmissionConfig {
    let wsum: f64 = tenants.iter().map(|t| t.weight).sum();
    AdmissionConfig {
        tenants: tenants
            .iter()
            .map(|t| {
                let share = mean_rps * t.weight / wsum;
                let bucket = if t.class == Priority::BestEffort {
                    // Half this tenant's mean share: bursts hit the
                    // bucket, so rate-limit rejections land here.
                    BucketConfig {
                        rate_per_sec: share * 0.5,
                        burst: (share * 0.05).max(8.0),
                    }
                } else {
                    BucketConfig::unlimited()
                };
                TenantConfig {
                    name: t.name.clone(),
                    bucket,
                }
            })
            .collect(),
        queue_bounds: [4096, 4096, 64],
        brownout: Some(BrownoutConfig),
    }
}

struct SimCell {
    name: String,
    burstiness: f64,
    mix: &'static str,
    trace_digest: u64,
    arrivals: u64,
    peak_to_mean: f64,
    baseline: PolicyReport,
    shaped: PolicyReport,
    auto: PolicyReport,
}

fn run_sim_cell(seed: u64, quick: bool, burstiness: f64, mix: &Mix) -> SimCell {
    let sim = SimConfig::new(DatasetConfig::by_name("ll").expect("table-2 dataset"));
    let mean_rps = sim.calibrated_rps(SIM_CARDS, mean_work(&mix.tenants), 0.9);
    let trace = TrafficTrace::generate(&TrafficConfig {
        seed: seed ^ fnv1a(mix.name.as_bytes()) ^ (burstiness * 100.0) as u64,
        duration_us: if quick { 1_000_000 } else { 2_000_000 },
        mean_rps,
        diurnal_depth: 0.8,
        diurnal_cycles: 1.0,
        burstiness,
        cascade_depth: 8,
        tenants: mix.tenants.clone(),
    });
    let admission = sim_admission(&mix.tenants, mean_rps);
    let wait_us = 5_000;
    let cost = CostModel::default_fitted();
    let arm = |name: &str, admission, batch, scaling| SimPolicy {
        name: name.to_string(),
        admission,
        batch,
        scaling,
    };
    let baseline = simulate(
        &trace,
        &arm(
            "fixed/no-admission",
            None,
            BatchSim::Fixed { wait_us },
            Scaling::Static { cards: SIM_CARDS },
        ),
        &sim,
        &cost,
    );
    let shaped = simulate(
        &trace,
        &arm(
            "slack+admission",
            Some(admission.clone()),
            BatchSim::Slack { wait_us },
            Scaling::Static { cards: SIM_CARDS },
        ),
        &sim,
        &cost,
    );
    let auto = simulate(
        &trace,
        &arm(
            "slack+admission+autoscaler",
            Some(admission),
            BatchSim::Slack { wait_us },
            Scaling::Auto(AutoscalerConfig {
                min_cards: 1,
                max_cards: SIM_CARDS,
                ..AutoscalerConfig::default()
            }),
        ),
        &sim,
        &cost,
    );
    SimCell {
        name: format!("b{burstiness:.2}/{}", mix.name),
        burstiness,
        mix: mix.name,
        trace_digest: trace.digest(),
        arrivals: trace.len() as u64,
        peak_to_mean: trace.peak_rps(100_000) / trace.mean_rps().max(1e-9),
        baseline,
        shaped,
        auto,
    }
}

// --------------------------------------------------------------- live leg

fn live_config(batch: BatchPolicy) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        max_batch: 8,
        batch,
        ..ServiceConfig::default()
    }
}

/// The no-shaping leg: a [`ShapedService`] with an unlimited admission
/// config must reproduce the plain service's replies byte-for-byte.
/// Returns `(plain, shaped)` reply digests.
fn no_shaping_digests(requests: u64) -> (u64, u64) {
    let plain = SamplingService::start(small_backend(), live_config(BatchPolicy::FixedDeadline));
    let tickets: Vec<_> = (0..requests)
        .map(|s| plain.submit(small_request(s)))
        .collect();
    let plain_replies: Vec<_> = tickets.into_iter().map(|t| t.wait_reply()).collect();
    let plain_digest = digest_replies(&plain_replies);
    plain.shutdown();

    let shaped = ShapedService::start(
        small_backend(),
        live_config(BatchPolicy::FixedDeadline),
        AdmissionConfig::unlimited(1),
        None,
    );
    let tickets: Vec<_> = (0..requests)
        .map(|s| {
            match shaped.submit(
                ShapedRequest {
                    req: small_request(s),
                    tenant: 0,
                    class: Priority::Interactive,
                    deadline: Duration::from_millis(100),
                },
                s * 100,
            ) {
                SubmitVerdict::Admitted(t) => t,
                v => panic!("unlimited admission refused request {s}: {v:?}"),
            }
        })
        .collect();
    let shaped_replies: Vec<_> = tickets.into_iter().map(|t| t.wait_reply()).collect();
    let shaped_digest = digest_replies(&shaped_replies);
    shaped.shutdown();
    (plain_digest, shaped_digest)
}

fn live_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "chat".to_string(),
            archetype: "mem-opt.tc".to_string(),
            class: Priority::Interactive,
            weight: 2.0,
            deadline_us: 50_000,
            roots: 6,
            hops: 2,
            fanout: 4,
        },
        TenantSpec {
            name: "etl".to_string(),
            archetype: "comm-opt.tc".to_string(),
            class: Priority::Batch,
            weight: 1.0,
            deadline_us: 200_000,
            roots: 6,
            hops: 2,
            fanout: 4,
        },
        TenantSpec {
            name: "crawl".to_string(),
            archetype: "base.decp".to_string(),
            class: Priority::BestEffort,
            weight: 1.0,
            deadline_us: 500_000,
            roots: 6,
            hops: 2,
            fanout: 4,
        },
    ]
}

struct OpenLoopResult {
    arrivals: u64,
    accepted: [u64; CLASSES],
    rejected: [u64; CLASSES],
    shed: [u64; CLASSES],
    replies_digest: u64,
    degraded: u64,
    bounds_respected: bool,
}

/// Replays a seeded trace through a bucket-limited [`ShapedService`] at
/// full speed in virtual time (`now_us` = arrival timestamp): open-loop
/// — submission never waits on replies — and every verdict a pure
/// function of the trace, so counts and digest replay at any job count.
/// Lane bounds stay unbounded and brownout off here because both depend
/// on wall-clock state; the simulation leg and the unit suite cover
/// them.
fn open_loop_leg(seed: u64, quick: bool) -> OpenLoopResult {
    let tenants = live_mix();
    let trace = TrafficTrace::generate(&TrafficConfig {
        seed: seed ^ 0x4f70_656e,
        duration_us: if quick { 400_000 } else { 1_000_000 },
        mean_rps: 3_000.0,
        diurnal_depth: 0.5,
        diurnal_cycles: 1.0,
        burstiness: 0.8,
        cascade_depth: 6,
        tenants: tenants.clone(),
    });
    let admission = AdmissionConfig {
        tenants: tenants
            .iter()
            .map(|t| TenantConfig {
                name: t.name.clone(),
                bucket: if t.class == Priority::BestEffort {
                    BucketConfig {
                        rate_per_sec: 300.0,
                        burst: 30.0,
                    }
                } else {
                    BucketConfig::unlimited()
                },
            })
            .collect(),
        queue_bounds: [usize::MAX; CLASSES],
        brownout: None,
    };
    let shaped = ShapedService::start(
        small_backend(),
        live_config(BatchPolicy::SlackDriven {
            est_service: Duration::from_micros(500),
        }),
        admission,
        None,
    );
    let rng = ChaosRng::new(trace.seed);
    let mut accepted = [0u64; CLASSES];
    let mut rejected = [0u64; CLASSES];
    let mut shed = [0u64; CLASSES];
    let mut tickets = Vec::new();
    for a in &trace.arrivals {
        let verdict = shaped.submit(
            ShapedRequest {
                req: a.request(&rng, SMALL_NODES),
                tenant: a.tenant as usize,
                class: a.class,
                deadline: Duration::from_micros(a.deadline_us),
            },
            a.at_us,
        );
        match verdict {
            SubmitVerdict::Admitted(t) => {
                accepted[a.class.index()] += 1;
                tickets.push(t);
            }
            SubmitVerdict::Rejected { .. } => rejected[a.class.index()] += 1,
            SubmitVerdict::Shed => shed[a.class.index()] += 1,
        }
    }
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait_reply()).collect();
    let bounds_respected = shaped.admission_stats().bounds_respected();
    shaped.shutdown();
    OpenLoopResult {
        arrivals: trace.len() as u64,
        accepted,
        rejected,
        shed,
        replies_digest: digest_replies(&replies),
        degraded: replies.iter().filter(|r| r.degraded).count() as u64,
        bounds_respected,
    }
}

// --------------------------------------------------------------- reporting

fn class_json(counts: &[u64; CLASSES]) -> Json {
    Json::Obj(
        Priority::ALL
            .iter()
            .map(|p| (p.name().to_string(), Json::Num(counts[p.index()] as f64)))
            .collect(),
    )
}

fn report_json(r: &PolicyReport) -> Json {
    let classes: Vec<Json> = Priority::ALL
        .iter()
        .map(|p| {
            let c = &r.classes[p.index()];
            Json::Obj(vec![
                ("class".to_string(), Json::Str(p.name().to_string())),
                ("submitted".to_string(), Json::Num(c.submitted as f64)),
                ("admitted".to_string(), Json::Num(c.admitted as f64)),
                ("rejected".to_string(), Json::Num(c.rejected as f64)),
                ("shed".to_string(), Json::Num(c.shed as f64)),
                ("completed".to_string(), Json::Num(c.completed as f64)),
                ("slo_met".to_string(), Json::Num(c.slo_met as f64)),
                ("degraded".to_string(), Json::Num(c.degraded as f64)),
                ("slo_rate".to_string(), Json::Num(r.slo_rate(*p))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("policy".to_string(), Json::Str(r.policy.clone())),
        ("steps".to_string(), Json::Num(r.steps as f64)),
        ("cards_mean".to_string(), Json::Num(r.cards_mean)),
        ("cards_max".to_string(), Json::Num(r.cards_max as f64)),
        ("scale_ups".to_string(), Json::Num(r.scale_ups as f64)),
        ("scale_downs".to_string(), Json::Num(r.scale_downs as f64)),
        (
            "max_queue".to_string(),
            Json::Arr(r.max_queue.iter().map(|&q| Json::Num(q as f64)).collect()),
        ),
        (
            "bounds_respected".to_string(),
            Json::Bool(r.bounds_respected),
        ),
        ("cost".to_string(), Json::Num(r.cost)),
        (
            "cost_per_million_slo_met".to_string(),
            Json::Num(r.cost_per_million_slo_met),
        ),
        ("classes".to_string(), Json::Arr(classes)),
    ])
}

/// Runs the sweep and writes the artifact to `out`.
pub fn traffic(quick: bool, seed: u64, out: &str) {
    let requests = if quick { QUICK_REQUESTS } else { FULL_REQUESTS };
    println!(
        "traffic sweep: seed {seed}, burstiness x tenant-mix x policy over a \
         {SIM_CARDS}-card modeled fleet, live legs on {SMALL_NODES} nodes / {SMALL_PARTITIONS} \
         partitions"
    );

    // -- live leg 1: no shaping must replay the plain service.
    let (plain_digest, shaped_digest) = no_shaping_digests(requests);
    println!(
        "  no-shaping leg: plain service {}, unlimited admission {}",
        hex(plain_digest),
        hex(shaped_digest)
    );

    // -- live leg 2: bucket-limited open-loop replay.
    let live = open_loop_leg(seed, quick);
    let refused_outside_best_effort: u64 = Priority::ALL
        .iter()
        .filter(|p| **p != Priority::BestEffort)
        .map(|p| live.rejected[p.index()] + live.shed[p.index()])
        .sum();
    println!(
        "  open-loop leg: {} arrivals, {} admitted / {} rejected (best-effort bucket), digest {}",
        live.arrivals,
        live.accepted.iter().sum::<u64>(),
        live.rejected.iter().sum::<u64>(),
        hex(live.replies_digest)
    );

    // -- simulation leg.
    let burst_points: &[f64] = if quick {
        &[0.6, 0.85]
    } else {
        &[0.55, 0.7, 0.85]
    };
    let mix_list = mixes(quick);
    let mut cell_inputs = Vec::new();
    for &b in burst_points {
        for m in &mix_list {
            cell_inputs.push((b, m));
        }
    }
    let cells: Vec<_> = cell_inputs
        .into_iter()
        .map(|(b, m)| run_sim_cell(seed, quick, b, m))
        .collect();

    let table = Table::new(
        &[
            "cell",
            "peak/mean",
            "arm",
            "int-slo",
            "refused",
            "maxq",
            "cards",
            "$/M-met",
        ],
        &[24, 10, 26, 8, 8, 7, 6, 10],
    );
    for c in &cells {
        for r in [&c.baseline, &c.shaped, &c.auto] {
            let refused: u64 = r.classes.iter().map(|o| o.rejected + o.shed).sum();
            table.row(&[
                c.name.clone(),
                format!("{:.1}", c.peak_to_mean),
                r.policy.clone(),
                format!("{:.3}", r.slo_rate(Priority::Interactive)),
                format!("{refused}"),
                format!("{}", r.max_queue.iter().max().unwrap()),
                format!("{:.1}", r.cards_mean),
                format!("{:.1}", r.cost_per_million_slo_met),
            ]);
        }
    }
    table.note("int-slo = interactive requests meeting their deadline / offered");

    let cell_rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("cell".to_string(), Json::Str(c.name.clone())),
                ("burstiness".to_string(), Json::Num(c.burstiness)),
                ("mix".to_string(), Json::Str(c.mix.to_string())),
                ("trace_digest".to_string(), Json::Str(hex(c.trace_digest))),
                ("arrivals".to_string(), Json::Num(c.arrivals as f64)),
                ("peak_to_mean".to_string(), Json::Num(c.peak_to_mean)),
                (
                    "arms".to_string(),
                    Json::Arr(vec![
                        report_json(&c.baseline),
                        report_json(&c.shaped),
                        report_json(&c.auto),
                    ]),
                ),
            ])
        })
        .collect();
    let mut report = Report::new("traffic", quick, seed);
    report.num("graph_nodes", SMALL_NODES as f64);
    report.num("partitions", SMALL_PARTITIONS as f64);
    report.num("sim_cards", SIM_CARDS as f64);
    report.put(
        "no_shaping",
        Json::Obj(vec![
            ("requests".to_string(), Json::Num(requests as f64)),
            ("plain_digest".to_string(), Json::Str(hex(plain_digest))),
            ("shaped_digest".to_string(), Json::Str(hex(shaped_digest))),
        ]),
    );
    report.put(
        "open_loop",
        Json::Obj(vec![
            ("arrivals".to_string(), Json::Num(live.arrivals as f64)),
            ("accepted".to_string(), class_json(&live.accepted)),
            ("rejected".to_string(), class_json(&live.rejected)),
            ("shed".to_string(), class_json(&live.shed)),
            (
                "replies_digest".to_string(),
                Json::Str(hex(live.replies_digest)),
            ),
            ("degraded".to_string(), Json::Num(live.degraded as f64)),
        ]),
    );
    report.put("cells", Json::Arr(cell_rows));

    report.gate(
        "digests_match",
        shaped_digest == plain_digest,
        Json::Str(hex(shaped_digest)),
        "== no_shaping.plain_digest",
    );
    report.gate(
        "open_loop_refusals_best_effort_only",
        refused_outside_best_effort == 0 && live.rejected[Priority::BestEffort.index()] > 0,
        Json::Num(refused_outside_best_effort as f64),
        "0 interactive/batch refusals, >= 1 best-effort rejection",
    );
    report.gate(
        "open_loop_bounds_respected",
        live.bounds_respected,
        Json::Bool(live.bounds_respected),
        "every lane within its bound",
    );
    let improved = cells
        .iter()
        .filter(|c| {
            let be = &c.shaped.classes[Priority::BestEffort.index()];
            c.shaped.slo_rate(Priority::Interactive) > c.baseline.slo_rate(Priority::Interactive)
                && c.shaped.refusals_outside(Priority::BestEffort) == 0
                && be.rejected + be.shed > 0
        })
        .count();
    report.gate(
        "slo_met_improved",
        improved == cells.len(),
        Json::Num(improved as f64),
        &format!(
            "all {} cells: shaped interactive SLO > baseline, refusals only best-effort",
            cells.len()
        ),
    );
    let bounded = cells
        .iter()
        .filter(|c| {
            c.baseline.max_queue[0] > *c.shaped.max_queue.iter().max().unwrap()
                && c.shaped.bounds_respected
                && c.auto.bounds_respected
        })
        .count();
    report.gate(
        "no_unbounded_queue",
        bounded == cells.len(),
        Json::Num(bounded as f64),
        &format!(
            "all {} cells: lanes bounded, below the unshaped backlog",
            cells.len()
        ),
    );
    let cheaper = cells
        .iter()
        .filter(|c| c.auto.cost_per_million_slo_met <= c.shaped.cost_per_million_slo_met)
        .count();
    report.gate(
        "autoscaler_cost_ok",
        cheaper == cells.len(),
        Json::Num(cheaper as f64),
        &format!(
            "all {} cells: autoscaler $/M-SLO-met <= static fleet",
            cells.len()
        ),
    );
    report.finish(out);
}

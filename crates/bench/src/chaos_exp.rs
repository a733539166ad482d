//! `bench chaos` — the fault-injection sweep: loss rate × card-failure
//! scenarios through the degrading [`SamplingService`], with the MoF
//! go-back-N recovery leg driven by the same [`FaultPlan`].
//!
//! Each cell builds a deterministic plan from `--seed` and the cell's
//! scenario, serves the small cluster's request stream (`workload.rs`;
//! request seeds double as virtual ticks, so "card 1 dies at tick N/2"
//! is a mid-run crash) through a fault-injected service, and reports:
//!
//! * **availability** — completed / submitted (degraded replies count:
//!   an approximate sample from the reachable partitions is a valid
//!   answer, the paper's streaming-sampling argument applied to faults);
//! * **quality** — mean/min [`quality::batch_recall`] of every reply
//!   against the fault-free exact batch, i.e. the measured sample-quality
//!   delta vs fault severity;
//! * **replayability** — the plan digest and an FNV digest over every
//!   reply's content + degraded flag. Both are pure functions of
//!   `(seed, scenario)`: byte-identical across runs.
//! * **MoF recovery** — the same plan's frame-loss stream pushed through
//!   the real [`ReliableChannel`] retransmit path (transmissions,
//!   retransmissions, delivery).
//!
//! Nothing here reads a clock, so the artifact is byte-identical across
//! runs (`ci.sh` `cmp`s a full run with `BENCH_chaos.json`). Retry, hedge,
//! breaker and injector counters are not reported: how many attempts a
//! request gets is cut short by the ladder's wall-clock deadline, so
//! they depend on scheduling (the service's metrics export still carries
//! them).
//!
//! Gates: `zero_fault_identical` (pay-for-what-you-use: a zero-fault
//! plan replays a service started with *no* injector byte-for-byte),
//! `all_answered` (every cell answers every request) and
//! `degraded_success` (a card failure yields degraded-but-complete
//! replies).

use crate::report::{hex, Report};
use crate::util::Table;
use crate::workload::{
    digest_replies, small_backend, small_request, SMALL_NODES, SMALL_PARTITIONS,
};
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::framework::{SampleReply, SamplingService, ServiceConfig};
use lsdgnn_core::mof::ReliableChannel;
use lsdgnn_core::sampler::quality;
use lsdgnn_core::telemetry::Json;
use std::time::Duration;

/// Requests per cell.
const FULL_REQUESTS: u64 = 400;
const QUICK_REQUESTS: u64 = 120;
/// Frames pushed through the MoF recovery leg per cell.
const FULL_FRAMES: u32 = 200;
const QUICK_FRAMES: u32 = 80;

/// One scenario-grid cell: a frame/request loss rate crossed with a set
/// of card crashes (ticks are request sequence numbers).
struct Cell {
    name: String,
    loss: f64,
    /// `(card, at_fraction)` — crash tick = `at_fraction * requests`.
    card_failures: Vec<(u32, f64)>,
    /// `(card, slowdown, base_delay_us)` — a straggling card.
    straggler: Option<(u32, f64, u64)>,
}

fn grid(quick: bool) -> Vec<Cell> {
    let losses: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.05, 0.10, 0.25]
    };
    let mut cells = Vec::new();
    for &loss in losses {
        let pct = (loss * 100.0).round() as u32;
        cells.push(Cell {
            name: format!("loss{pct}%"),
            loss,
            card_failures: vec![],
            straggler: None,
        });
        cells.push(Cell {
            name: format!("loss{pct}%+card1@mid"),
            loss,
            card_failures: vec![(1, 0.5)],
            straggler: None,
        });
        if !quick {
            cells.push(Cell {
                name: format!("loss{pct}%+2cards"),
                loss,
                card_failures: vec![(1, 1.0 / 3.0), (2, 2.0 / 3.0)],
                straggler: None,
            });
        }
    }
    if !quick {
        cells.push(Cell {
            name: "card1@mid+straggler3".to_string(),
            loss: 0.0,
            card_failures: vec![(1, 0.5)],
            straggler: Some((3, 3.0, 20)),
        });
    }
    cells
}

fn spec_of(cell: &Cell, requests: u64) -> ScenarioSpec {
    // Frame loss feeds the MoF leg; the same rate feeds the service leg
    // as per-attempt dispatch loss (a pessimistic "every dispatch rides
    // one unrecovered frame" coupling — the retry ladder absorbs it).
    let mut spec = ScenarioSpec::none()
        .with_frame_loss(cell.loss)
        .with_request_loss(cell.loss);
    for &(card, frac) in &cell.card_failures {
        spec = spec.with_card_failure(card, (requests as f64 * frac) as u64);
    }
    if let Some((card, slowdown, base_us)) = cell.straggler {
        spec = spec.with_straggler(card, slowdown, base_us);
    }
    spec
}

/// Single-worker degradation-tuned service config: one shard keeps the
/// breaker/retry trajectory a pure function of submission order.
fn cell_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 8,
        backoff_base: Duration::from_micros(10),
        ..ServiceConfig::default()
    }
}

/// Serves the fixed request stream through `svc`, waiting for every
/// reply in submission order.
fn serve_stream(svc: &SamplingService, requests: u64) -> Vec<SampleReply> {
    let tickets: Vec<_> = (0..requests)
        .map(|s| svc.submit(small_request(s)))
        .collect();
    tickets.into_iter().map(|t| t.wait_reply()).collect()
}

/// Everything one cell produced.
struct CellResult {
    name: String,
    loss: f64,
    card_failures: Vec<(u32, u64)>,
    plan_digest: u64,
    requests: u64,
    completed: u64,
    degraded: u64,
    mean_recall: f64,
    min_recall: f64,
    results_digest: u64,
    mof_transmissions: u64,
    mof_retransmissions: u64,
    mof_delivered: u64,
    mof_abandoned: bool,
}

impl CellResult {
    fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.requests as f64
    }

    fn degraded_success(&self) -> bool {
        !self.card_failures.is_empty() && self.degraded > 0 && self.completed == self.requests
    }

    fn quality_delta(&self) -> f64 {
        1.0 - self.mean_recall
    }
}

/// Runs one cell: the service leg over a fault-injected cluster plus the
/// MoF recovery leg over the same plan's frame-loss stream.
fn run_cell(cell: &Cell, seed: u64, requests: u64, frames: u32) -> CellResult {
    let spec = spec_of(cell, requests);
    let card_failures: Vec<(u32, u64)> =
        spec.card_failures.iter().map(|c| (c.card, c.at)).collect();
    let plan = FaultPlan::build(seed, spec).expect("grid specs are valid");
    let plan_digest = plan.digest();
    let injector = FaultInjector::new(plan.clone());
    let svc =
        SamplingService::start_observed(small_backend(), cell_config(), None, Some(injector), None);

    let replies = serve_stream(&svc, requests);
    svc.shutdown();

    // Quality: recall of each reply against the fault-free exact batch.
    let reference = small_backend();
    let (mut recall_sum, mut min_recall) = (0.0f64, 1.0f64);
    let mut degraded = 0u64;
    for (s, reply) in replies.iter().enumerate() {
        let exact = reference.sample_neighbors(&small_request(s as u64));
        let recall = quality::batch_recall(&exact, &reply.block.to_batch());
        recall_sum += recall;
        min_recall = min_recall.min(recall);
        degraded += u64::from(reply.degraded);
    }

    // MoF leg: the plan's frame-loss stream through go-back-N recovery.
    let mut ch = ReliableChannel::new(8);
    for i in 0..frames {
        ch.push(i);
    }
    let mut attempt = 0u64;
    let mof_abandoned = ch
        .run_with_retries(
            |_| {
                attempt += 1;
                plan.drop_frame(0, attempt, attempt)
            },
            10_000,
        )
        .is_err();
    assert!(ch.accounting_balances(), "go-back-N accounting drifted");

    CellResult {
        name: cell.name.clone(),
        loss: cell.loss,
        card_failures,
        plan_digest,
        requests,
        completed: replies.len() as u64,
        degraded,
        mean_recall: recall_sum / requests as f64,
        min_recall,
        results_digest: digest_replies(&replies),
        mof_transmissions: ch.transmissions(),
        mof_retransmissions: ch.retransmissions(),
        mof_delivered: ch.received().len() as u64,
        mof_abandoned,
    }
}

/// The pay-for-what-you-use leg: the reply digests of a service with no
/// injector and of one under a zero-fault plan, `(plain, zero-fault)`.
fn zero_fault_digests(seed: u64, requests: u64) -> (u64, u64) {
    let plain = SamplingService::start(small_backend(), cell_config());
    let baseline = digest_replies(&serve_stream(&plain, requests));
    plain.shutdown();

    let injector = FaultInjector::new(FaultPlan::zero(seed));
    let chaotic =
        SamplingService::start_observed(small_backend(), cell_config(), None, Some(injector), None);
    let zeroed = digest_replies(&serve_stream(&chaotic, requests));
    chaotic.shutdown();
    (baseline, zeroed)
}

/// Runs the sweep and writes the artifact to `out`.
pub fn chaos(quick: bool, seed: u64, out: &str) {
    let requests = if quick { QUICK_REQUESTS } else { FULL_REQUESTS };
    let frames = if quick { QUICK_FRAMES } else { FULL_FRAMES };
    println!(
        "chaos sweep: seed {seed}, {requests} requests/cell over {SMALL_PARTITIONS} cards, \
         loss x card-failure grid"
    );

    let (baseline_digest, zeroed_digest) = zero_fault_digests(seed, requests);
    println!(
        "  zero-fault leg: plan {} vs the injector-free service ({})",
        hex(FaultPlan::zero(seed).digest()),
        hex(baseline_digest)
    );

    let results: Vec<_> = grid(quick)
        .iter()
        .map(|cell| run_cell(cell, seed, requests, frames))
        .collect();

    let table = Table::new(
        &[
            "cell",
            "avail",
            "degraded",
            "recall",
            "q-delta",
            "mof tx/re",
            "digest",
        ],
        &[22, 7, 9, 7, 8, 10, 19],
    );
    for r in &results {
        table.row(&[
            r.name.clone(),
            format!("{:.4}", r.completion_rate()),
            format!("{}", r.degraded),
            format!("{:.3}", r.mean_recall),
            format!("{:.3}", r.quality_delta()),
            format!("{}/{}", r.mof_transmissions, r.mof_retransmissions),
            hex(r.results_digest),
        ]);
    }
    table.note(
        "avail = completed/submitted (degraded replies count); recall vs fault-free exact batches",
    );

    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("cell".to_string(), Json::Str(r.name.clone())),
                ("frame_loss".to_string(), Json::Num(r.loss)),
                ("request_loss".to_string(), Json::Num(r.loss)),
                (
                    "card_failures".to_string(),
                    Json::Arr(
                        r.card_failures
                            .iter()
                            .map(|&(c, at)| {
                                Json::Arr(vec![Json::Num(c as f64), Json::Num(at as f64)])
                            })
                            .collect(),
                    ),
                ),
                ("plan_digest".to_string(), Json::Str(hex(r.plan_digest))),
                ("requests".to_string(), Json::Num(r.requests as f64)),
                ("completed".to_string(), Json::Num(r.completed as f64)),
                (
                    "completion_rate".to_string(),
                    Json::Num(r.completion_rate()),
                ),
                ("degraded".to_string(), Json::Num(r.degraded as f64)),
                (
                    "degraded_ratio".to_string(),
                    Json::Num(r.degraded as f64 / r.requests as f64),
                ),
                (
                    "degraded_success".to_string(),
                    Json::Bool(r.degraded_success()),
                ),
                ("mean_recall".to_string(), Json::Num(r.mean_recall)),
                ("min_recall".to_string(), Json::Num(r.min_recall)),
                ("quality_delta".to_string(), Json::Num(r.quality_delta())),
                (
                    "results_digest".to_string(),
                    Json::Str(hex(r.results_digest)),
                ),
                (
                    "mof".to_string(),
                    Json::Obj(vec![
                        ("frames".to_string(), Json::Num(frames as f64)),
                        (
                            "transmissions".to_string(),
                            Json::Num(r.mof_transmissions as f64),
                        ),
                        (
                            "retransmissions".to_string(),
                            Json::Num(r.mof_retransmissions as f64),
                        ),
                        ("delivered".to_string(), Json::Num(r.mof_delivered as f64)),
                        ("abandoned".to_string(), Json::Bool(r.mof_abandoned)),
                    ]),
                ),
            ])
        })
        .collect();

    let mut report = Report::new("chaos", quick, seed);
    report.num("graph_nodes", SMALL_NODES as f64);
    report.num("partitions", SMALL_PARTITIONS as f64);
    report.num("requests_per_cell", requests as f64);
    report.put(
        "zero_fault",
        Json::Obj(vec![
            (
                "plan_digest".to_string(),
                Json::Str(hex(FaultPlan::zero(seed).digest())),
            ),
            (
                "baseline_digest".to_string(),
                Json::Str(hex(baseline_digest)),
            ),
        ]),
    );
    report.put("cells", Json::Arr(rows));

    report.gate(
        "zero_fault_identical",
        zeroed_digest == baseline_digest,
        Json::Str(hex(zeroed_digest)),
        "== zero_fault.baseline_digest",
    );
    let answered = results.iter().filter(|r| r.completed == r.requests).count();
    report.gate(
        "all_answered",
        answered == results.len(),
        Json::Num(answered as f64),
        &format!("all {} cells answer every request", results.len()),
    );
    let degraded_success = results.iter().filter(|r| r.degraded_success()).count();
    report.gate(
        "degraded_success",
        degraded_success > 0,
        Json::Num(degraded_success as f64),
        ">= 1 card-failure cell degraded and complete",
    );
    report.finish(out);
}

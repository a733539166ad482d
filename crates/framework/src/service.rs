//! The batched, backpressured sampling service: the serving layer the
//! ROADMAP's production north-star asks for, built on
//! [`SamplingBackend`].
//!
//! The service's queue is one lane per [`Priority`] class plus a bell
//! that carries one token per queued job, sent after the job. Worker
//! shards wait on the bell, take the highest-priority queued job for each
//! token, coalesce whatever is queued into size-bounded batches (idling
//! for company only when `batch_deadline` opts in), dispatch the batch
//! to the backend with [`SamplingBackend::sample_many`], and return each
//! result through its per-request reply channel. A plain
//! [`SamplingService::submit`] enqueues into the interactive lane, whose
//! `queue_capacity` bound blocks the submitter when full (backpressure,
//! not unbounded memory growth); the shaped front door
//! ([`crate::admission`]) uses all three lanes and bounds them by
//! admission, so its strict priority holds until a job is dispatched.
//!
//! Because every request carries its own seed and backends are
//! deterministic per seed, the answer is independent of which shard
//! serves it or how batches form — batching changes latency, never
//! results.
//!
//! # Graceful degradation
//!
//! Started with a [`FaultInjector`] ([`SamplingService::start_observed`]),
//! the service is the one place its plan touches sampling. The shard
//! loop injects worker panics and queue stalls; each request then runs
//! a ladder of defenses whose attempts carry the plan's request loss,
//! stragglers and down cards: bounded retries with exponential backoff
//! and deterministic jitter, a hedged re-dispatch after repeated
//! failures, a per-shard [`CircuitBreaker`] that stops hammering a
//! failing backend, and — when everything above ran out — a fallback
//! that no loss reaches, whose partial answer is returned flagged
//! [`SampleReply::degraded`] instead of erroring. Every attempt is a
//! [`SamplingBackend::sample_excluding`] call masking the cards down at
//! the request's virtual tick (its `seed`). An incomplete neighbor
//! sample from the reachable shards is still a valid approximate sample;
//! the reply quantifies the loss via [`SampleReply::unreachable`].
//!
//! Pay for what you use: with no injector — or a zero-fault plan — the
//! service takes the batched dispatch path it always had. That path
//! still reports each request's own verdict
//! ([`SamplingBackend::sample_many`]): a partition that is down degrades
//! the replies it cut short.
//!
//! [`ServiceStats`] extends the backend's [`RequestStats`] with the
//! queue-depth, batch-size and latency histograms an operator of the
//! paper's heavy-traffic scenario (§2.4) would alarm on, plus the
//! degradation counters (degraded replies, retries, hedges, breaker
//! trips) the fault model adds.

use crate::admission::{AdmissionController, Priority};
use crate::backend::{SampleOutcome, SampleRequest, SamplingBackend};
use crate::breaker::CircuitBreaker;
use crate::cluster::RequestStats;
use crate::hot_cache::CacheSnapshot;
use crate::obs::Observability;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use lsdgnn_chaos::{rng::stream, ChaosRng, FaultInjector};
use lsdgnn_graph::NodeId;
use lsdgnn_sampler::{SampleBatch, SampleBlock};
use lsdgnn_telemetry::ledger::{self, faults, Stage, NO_SHARD};
use lsdgnn_telemetry::{pids, Log2Histogram, MetricSource, Scope, Tracer};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-level accounting: request/batch totals plus the three
/// operational histograms, degradation counters, and a snapshot of the
/// backend's own stats.
///
/// Registers into a telemetry `Registry` directly (it is a
/// [`MetricSource`]), exporting `queue_depth`, `batch_size` and
/// `latency_us` percentile summaries plus the nested `backend/*`
/// counters.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests completed.
    pub requests: u64,
    /// Dispatches to the backend (each serving >= 1 request).
    pub dispatches: u64,
    /// Queue depth observed at each dispatch (requests left waiting).
    pub queue_depth: Log2Histogram,
    /// Coalesced batch size per dispatch.
    pub batch_size: Log2Histogram,
    /// Submit-to-reply latency per request, in wall-clock microseconds.
    pub latency: Log2Histogram,
    /// Replies flagged degraded (partial results from reachable shards).
    pub degraded: u64,
    /// Backend attempts that failed (retried or degraded around).
    pub faults: u64,
    /// Ladder attempts per request (1 = first try succeeded).
    pub retries: Log2Histogram,
    /// Hedged re-dispatches fired.
    pub hedges: u64,
    /// Requests answered by the degraded fallback after the retry ladder
    /// ran out.
    pub fallbacks: u64,
    /// Circuit-breaker open transitions across shards.
    pub breaker_opens: u64,
    /// Requests short-circuited to the fallback by an open breaker.
    pub breaker_fastpaths: u64,
    /// Replies later than the sampling SLO's 50 ms target.
    pub slo_violations: u64,
    /// The backend's cumulative request accounting.
    pub backend: RequestStats,
    /// Hot-set cache counters, when a cache sits on the backend's data
    /// plane (`None` for uncached backends).
    pub cache: Option<CacheSnapshot>,
}

impl ServiceStats {
    /// Interpolated p99 of the submit-to-reply latency, in microseconds
    /// (the operator alarm threshold of the §2.4 heavy-traffic scenario).
    pub fn latency_p99_us(&self) -> f64 {
        self.latency.percentile(0.99)
    }

    /// Fraction of completed requests whose reply was degraded.
    pub fn degraded_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.degraded as f64 / self.requests as f64
        }
    }

    /// The sampling SLO's burn rate: the share of replies later than
    /// 50 ms over the 1 % that a p99 objective allows. Above 1 the
    /// error budget burns faster than the objective admits; brownout
    /// admission sheds on it.
    pub fn burn_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.requests as f64 / SLO_BUDGET
        }
    }
}

impl MetricSource for ServiceStats {
    fn collect(&self, out: &mut Scope<'_>) {
        out.counter("requests", self.requests);
        out.counter("dispatches", self.dispatches);
        out.histogram("queue_depth", self.queue_depth.snapshot());
        out.histogram("batch_size", self.batch_size.snapshot());
        out.histogram("latency_us", self.latency.snapshot());
        out.counter("degraded", self.degraded);
        out.counter("faults", self.faults);
        out.histogram("retries", self.retries.snapshot());
        out.counter("hedges", self.hedges);
        out.counter("fallbacks", self.fallbacks);
        out.counter("breaker_opens", self.breaker_opens);
        out.counter("breaker_fastpaths", self.breaker_fastpaths);
        out.counter("slo_violations", self.slo_violations);
        out.gauge("degraded_ratio", self.degraded_ratio());
        let mut backend = out.nested("backend");
        self.backend.collect(&mut backend);
        if let Some(cache) = &self.cache {
            cache.collect(&mut out.nested("cache"));
        }
    }
}

/// How long a shard holding a batch may additionally *idle* for company.
///
/// Requests already queued always join the batch at once (up to
/// `max_batch`), whatever the policy: batches form from what piled up
/// while the shards were busy. The policy only governs the opt-in wait
/// on an *empty* queue ([`ServiceConfig::batch_deadline`], default off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Idle until `batch_deadline` after the batch's first request.
    FixedDeadline,
    /// Deadline-aware idle wait: stop as soon as the tightest admitted
    /// request's *slack* — `deadline − elapsed − est_service` — runs
    /// out, so waiting for company can never be the reason a request
    /// misses its deadline. Requests without a deadline tolerate the
    /// full `batch_deadline`, making the two policies identical on
    /// deadline-less traffic.
    SlackDriven {
        /// Estimated service time of one dispatched batch (reserved out
        /// of every request's slack).
        est_service: Duration,
    },
}

/// Tuning knobs of a [`SamplingService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker shards pulling from the shared queue.
    pub workers: usize,
    /// Capacity of the interactive lane a plain submit enqueues into; a
    /// submit blocks (backpressure) while it is full. A shaped service's
    /// lanes are bounded by its admission policy instead
    /// ([`AdmissionConfig::queue_bounds`](crate::admission::AdmissionConfig::queue_bounds)).
    pub queue_capacity: usize,
    /// Most requests coalesced into one backend dispatch.
    pub max_batch: usize,
    /// How long a shard may idle on an empty queue to grow its batch.
    /// Zero (the default) is work-conserving: a shard never waits while
    /// it holds a request, and dispatches what was queued.
    pub batch_deadline: Duration,
    /// What may cut that idle wait short (see [`BatchPolicy`]).
    pub batch: BatchPolicy,
    /// Backoff before retry `n` of the degradation ladder sleeps
    /// `backoff_base * 2^(n-1)`, scaled by a deterministic jitter in
    /// [0.5, 1.5) (only exercised under faults).
    pub backoff_base: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 16,
            batch_deadline: Duration::ZERO,
            batch: BatchPolicy::FixedDeadline,
            backoff_base: Duration::from_micros(50),
        }
    }
}

/// One served answer with its degradation provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleReply {
    /// The sampled mini-batch in flat-buffer form (possibly partial).
    pub block: SampleBlock,
    /// True when the block is missing an unreachable shard's
    /// contribution; the caller decides whether approximate is enough.
    pub degraded: bool,
    /// Nodes whose owner was unreachable (the size of the quality loss).
    pub unreachable: u64,
    /// Ladder attempts spent (0 when an open breaker short-circuited
    /// straight to the fallback).
    pub attempts: u32,
    /// A hedged re-dispatch was fired for this request.
    pub hedged: bool,
}

impl SampleReply {
    fn from_outcome(outcome: SampleOutcome, attempts: u32, hedged: bool) -> Self {
        SampleReply {
            block: outcome.block,
            degraded: outcome.degraded,
            unreachable: outcome.unreachable,
            attempts,
            hedged,
        }
    }
}

struct Job {
    req: SampleRequest,
    reply: Sender<SampleReply>,
    submitted: Instant,
    /// Absolute deadline for slack-driven batch close; `None` means the
    /// request tolerates the full fixed `batch_deadline` wait.
    deadline: Option<Instant>,
    /// Priority class: the job's lane, and the breaker's probe
    /// accounting.
    class: Priority,
    /// Ledger trace id (0 = untraced: no observability installed).
    trace: u64,
    /// Whether the reply finishes the trace in the ledger (flight dumps,
    /// deadline checks). A door that goes on working on the reply, as
    /// the inference front door does, finishes the trace itself.
    finish: bool,
}

/// A pending request's handle; [`SampleTicket::wait`] blocks for the
/// result.
#[derive(Debug)]
pub struct SampleTicket {
    rx: Receiver<SampleReply>,
    trace: u64,
}

impl SampleTicket {
    /// The request's ledger trace id (0 when the service was started
    /// without observability). Outer pipeline layers use this to append
    /// their own stages to the same causal record.
    pub fn trace(&self) -> u64 {
        self.trace
    }
    /// Blocks until the service replies, discarding degradation
    /// metadata — the synchronous call, in the nested client form.
    ///
    /// # Panics
    ///
    /// Panics if the service shut down before serving the request.
    pub fn wait(self) -> SampleBatch {
        self.wait_reply().block.into_batch()
    }

    /// Blocks until the service replies, keeping the flat block shape
    /// and discarding degradation metadata.
    ///
    /// # Panics
    ///
    /// Panics if the service shut down before serving the request.
    pub fn wait_block(self) -> SampleBlock {
        self.wait_reply().block
    }

    /// Blocks until the service replies, with degradation provenance.
    ///
    /// # Panics
    ///
    /// Panics if the service shut down before serving the request.
    pub fn wait_reply(self) -> SampleReply {
        self.rx.recv().expect("sampling service replies")
    }
}

/// Per-batch accounting a shard folds into [`ServiceStats`] under one
/// lock acquisition.
#[derive(Debug, Default)]
struct ServeAcct {
    faults: u64,
    hedges: u64,
    fallbacks: u64,
    fastpaths: u64,
}

/// Per-request time budget of the degradation ladder: once exceeded, no
/// further retries — the request falls back to a degraded answer rather
/// than blowing its deadline.
const DEADLINE: Duration = Duration::from_millis(100);
/// Retries after the first attempt before falling back.
const MAX_RETRIES: u32 = 4;
/// Failed attempts before a hedged re-dispatch is fired alongside the
/// retry ladder.
const HEDGE_THRESHOLD: u32 = 2;
/// Consecutive backend failures that trip a shard's breaker open.
const BREAKER_THRESHOLD: u32 = 8;
/// Dispatch decisions an open breaker waits before half-opening.
const BREAKER_COOLDOWN: u32 = 16;
/// Seed of the deterministic backoff-jitter stream.
const JITTER_SEED: u64 = 0x5eed_cafe;
/// Sampling SLO target, µs from submit to reply.
const SLO_TARGET_US: u64 = 50_000;
/// Share of replies the SLO allows over target (a p99 objective).
const SLO_BUDGET: f64 = 0.01;

/// Samples `req` with the cards the plan has down at its virtual tick
/// (its seed) masked out, noting them with the injector and on the
/// ledger; also answers whether every card was up. Alone, this is the
/// ladder's fallback: no request loss reaches it (it models local
/// recomputation, not another trip over the faulty transport), but the
/// down cards stay masked out.
pub(crate) fn sample_masked(
    backend: &Arc<dyn SamplingBackend>,
    inj: &FaultInjector,
    req: &SampleRequest,
) -> (SampleOutcome, bool) {
    let downs: Vec<u32> = (0..backend.shards())
        .filter(|&c| inj.plan().card_down(c, req.seed))
        .collect();
    if !downs.is_empty() {
        inj.note_cards_down(&downs);
        if ledger::scope_active() {
            for &card in &downs {
                ledger::scope_record(Stage::Fault, card, 0.0, 0.0, faults::CARD_DOWN);
            }
        }
    }
    (backend.sample_excluding(req, &downs), downs.is_empty())
}

/// One fallible attempt of the ladder, numbered `attempt` so a retry
/// draws its own loss decision: the serving card's straggler delay is
/// slept out, a lost attempt answers `None`, and the rest run
/// [`sample_masked`].
pub(crate) fn try_attempt(
    backend: &Arc<dyn SamplingBackend>,
    inj: &FaultInjector,
    req: &SampleRequest,
    attempt: u32,
) -> Option<SampleOutcome> {
    let obs_on = ledger::scope_active();
    let card = (req.seed % backend.shards().max(1) as u64) as u32;
    let delay_us = inj.straggler_delay_us(card, req.seed);
    if delay_us > 0 {
        if obs_on {
            ledger::scope_record(Stage::Fault, card, delay_us as f64, 0.0, faults::STRAGGLER);
        }
        std::thread::sleep(Duration::from_micros(delay_us));
    }
    if inj.drop_request(req.seed, attempt) {
        if obs_on {
            ledger::scope_record(Stage::Fault, NO_SHARD, 0.0, 0.0, faults::REQUEST_LOSS);
        }
        return None;
    }
    let t0 = obs_on.then(Instant::now);
    let (outcome, all_up) = sample_masked(backend, inj, req);
    // Only an attempt with every card up records a sampling event.
    if let (Some(t0), true) = (t0, all_up) {
        ledger::scope_record(
            Stage::Sampling,
            NO_SHARD,
            0.0,
            t0.elapsed().as_secs_f64() * 1e6,
            u64::from(attempt),
        );
    }
    Some(outcome)
}

/// Serves one request through the full degradation ladder:
/// breaker gate → retry loop (backoff + hedge) → degraded fallback.
/// The request's priority class governs the breaker's half-open probe:
/// only interactive traffic takes it.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    backend: &Arc<dyn SamplingBackend>,
    inj: &FaultInjector,
    req: &SampleRequest,
    submitted: Instant,
    class: Priority,
    backoff_base: Duration,
    breaker: &mut CircuitBreaker,
    jitter: &ChaosRng,
    acct: &mut ServeAcct,
) -> SampleReply {
    // Hedged attempts draw from a far-away attempt coordinate so their
    // fault decision is decorrelated from the retry ladder's.
    const HEDGE_SALT: u32 = 0x8000_0000;

    // Ladder events land in whatever recording scope the shard
    // installed for this request; without one (observability off) no
    // clocks are read and every record call is a no-op.
    let obs_on = ledger::scope_active();
    let us_since = |t0: Option<Instant>| t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);

    if !breaker.allow_for(class) {
        // Open breaker: don't touch the failing path at all. The
        // fallback still reflects genuinely-down shards, so the answer
        // is as good as retries would have eventually produced.
        acct.fastpaths += 1;
        acct.fallbacks += 1;
        if obs_on {
            ledger::scope_record(Stage::BreakerTrip, NO_SHARD, 0.0, 0.0, 0);
        }
        let t0 = obs_on.then(Instant::now);
        let (outcome, _) = sample_masked(backend, inj, req);
        if obs_on {
            ledger::scope_record(Stage::Fallback, NO_SHARD, 0.0, us_since(t0), 0);
        }
        return SampleReply::from_outcome(outcome, 0, false);
    }

    let mut attempts = 0u32;
    let mut hedged = false;
    loop {
        attempts += 1;
        let t0 = obs_on.then(Instant::now);
        if let Some(outcome) = try_attempt(backend, inj, req, attempts - 1) {
            breaker.record_success();
            return SampleReply::from_outcome(outcome, attempts, hedged);
        }
        acct.faults += 1;
        breaker.record_failure();
        let failed_us = us_since(t0);
        let exhausted = attempts > MAX_RETRIES;
        let over_deadline = submitted.elapsed() >= DEADLINE;
        if exhausted || over_deadline || !breaker.allow_for(class) {
            if obs_on {
                ledger::scope_record(Stage::Retry, NO_SHARD, 0.0, failed_us, attempts as u64);
            }
            break;
        }
        if attempts >= HEDGE_THRESHOLD && !hedged {
            hedged = true;
            acct.hedges += 1;
            let h0 = obs_on.then(Instant::now);
            let outcome = try_attempt(backend, inj, req, HEDGE_SALT + attempts);
            if obs_on {
                ledger::scope_record(Stage::Hedge, NO_SHARD, 0.0, us_since(h0), attempts as u64);
            }
            if let Some(outcome) = outcome {
                breaker.record_success();
                if obs_on {
                    ledger::scope_record(Stage::Retry, NO_SHARD, 0.0, failed_us, attempts as u64);
                }
                return SampleReply::from_outcome(outcome, attempts, true);
            }
            acct.faults += 1;
            breaker.record_failure();
        }
        // Exponential backoff with deterministic jitter in [0.5, 1.5).
        let factor = 1u32 << (attempts - 1).min(10);
        let scale = 0.5 + jitter.uniform(stream::BACKOFF_JITTER, req.seed, attempts as u64);
        let sleep = backoff_base.mul_f64(factor as f64 * scale);
        if obs_on {
            // The failed attempt and the backoff it bought: service time
            // is the attempt, queue time the deliberate wait after it.
            ledger::scope_record(
                Stage::Retry,
                NO_SHARD,
                sleep.as_secs_f64() * 1e6,
                failed_us,
                attempts as u64,
            );
        }
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
    // The ladder ran out: answer from the fallback no loss reaches.
    acct.fallbacks += 1;
    let t0 = obs_on.then(Instant::now);
    let (outcome, _) = sample_masked(backend, inj, req);
    if obs_on {
        ledger::scope_record(
            Stage::Fallback,
            NO_SHARD,
            0.0,
            us_since(t0),
            attempts as u64,
        );
    }
    SampleReply::from_outcome(outcome, attempts, hedged)
}

/// What the worker shards share with the service that started them.
#[derive(Clone)]
struct Shared {
    backend: Arc<dyn SamplingBackend>,
    stats: Arc<Mutex<ServiceStats>>,
    config: ServiceConfig,
    tracer: Option<Tracer>,
    injector: Option<FaultInjector>,
    obs: Option<Observability>,
    /// The shaped front door's controller: the shard that takes an
    /// admitted job tells it that the job left its lane.
    admission: Option<Arc<Mutex<AdmissionController>>>,
}

/// The running service: worker shards over one shared backend.
pub struct SamplingService {
    shared: Shared,
    /// The queue's sending half: one lane per [`Priority`] class (by
    /// [`Priority::index`]) and the bell; `None` once shut down.
    lanes: Option<(Vec<Sender<Job>>, Sender<()>)>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SamplingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplingService")
            .field("config", &self.shared.config)
            .finish()
    }
}

fn shard_loop(shared: Shared, lanes: Vec<Receiver<Job>>, bell: Receiver<()>, shard: u32) {
    let Shared {
        backend,
        stats,
        config: cfg,
        tracer,
        injector,
        obs,
        admission,
    } = shared;
    // One job per bell token, the highest-priority one queued. Tokens
    // received <= tokens sent <= jobs pushed, and every shard takes one
    // job per token, so a job is queued while this token is unmatched.
    // One scan of the lanes can still miss it, when other shards empty
    // the lanes ahead while a job lands in a lane already scanned: the
    // scan then repeats.
    let take = || {
        let job = loop {
            if let Some(job) = lanes.iter().find_map(|lane| lane.try_recv().ok()) {
                break job;
            }
            std::thread::yield_now();
        };
        if let Some(ctrl) = &admission {
            ctrl.lock().expect("admission lock").dequeued(job.class);
        }
        job
    };
    // Faults flow through serve_one only when a non-trivial plan is
    // installed; otherwise the exact batched dispatch below runs,
    // bit-identical to a service started without chaos.
    let chaos = injector
        .as_ref()
        .filter(|inj| !inj.plan().is_zero_fault())
        .cloned();
    let mut breaker = CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN);
    let jitter = ChaosRng::new(JITTER_SEED);
    let panic_after = chaos
        .as_ref()
        .and_then(|inj| inj.plan().worker_panic_after(shard));
    // The shard's private ledger buffer: events accumulate lock-free and
    // merge into the shared ring once per batch.
    let mut lh = obs.as_ref().map(|o| o.ledger().handle());
    let mut dispatch_no = 0u64;
    // A closed queue (senders dropped) ends the shard once drained.
    // Slack-driven batching: a joining job may only *shrink* the idle
    // wait, to the latest instant at which dispatching still leaves
    // `est_service` before that job's deadline. A job with no deadline
    // tolerates the full fixed wait — on deadline-less traffic the two
    // policies close identically.
    let job_close = |job: &Job, fallback: Instant| match (cfg.batch, job.deadline) {
        (BatchPolicy::SlackDriven { est_service }, Some(deadline)) => {
            deadline.checked_sub(est_service).unwrap_or(fallback)
        }
        _ => fallback,
    };
    while bell.recv().is_ok() {
        let first = take();
        let fixed_close = Instant::now() + cfg.batch_deadline;
        let mut close_at = job_close(&first, fixed_close).min(fixed_close);
        let mut jobs = vec![first];
        while jobs.len() < cfg.max_batch {
            // Work-conserving close: what is already queued joins at
            // once; only an empty queue is idled on, until `close_at`.
            let job = match bell.try_recv() {
                Ok(()) => take(),
                Err(_) => {
                    let now = Instant::now();
                    if now >= close_at {
                        break;
                    }
                    match bell.recv_timeout(close_at - now) {
                        Ok(()) => take(),
                        Err(_) => break, // close time hit or queue closed
                    }
                }
            };
            close_at = close_at.min(job_close(&job, fixed_close));
            jobs.push(job);
        }
        dispatch_no += 1;
        if let Some(inj) = &chaos {
            if let Some(us) = inj.plan().queue_stall_us(shard, dispatch_no) {
                inj.note_queue_stall();
                if let Some(h) = &mut lh {
                    for job in &jobs {
                        h.record(job.trace, Stage::Stall, shard, us as f64, 0.0, 0);
                        h.record(
                            job.trace,
                            Stage::Fault,
                            shard,
                            0.0,
                            0.0,
                            faults::QUEUE_STALL,
                        );
                    }
                }
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        let queue_depth = bell.len() as u64;
        let dispatch_start = tracer.as_ref().map(|t| t.wall_us());
        if let Some(h) = &mut lh {
            // Batch admission: the submit→dispatch wait is pure queueing.
            let admitted = Instant::now();
            for job in &jobs {
                let wait_us = admitted
                    .saturating_duration_since(job.submitted)
                    .as_secs_f64()
                    * 1e6;
                h.record(
                    job.trace,
                    Stage::Admission,
                    shard,
                    wait_us,
                    0.0,
                    jobs.len() as u64,
                );
            }
        }
        let mut acct = ServeAcct::default();
        let breaker_opens_before = breaker.opens();
        let replies: Vec<SampleReply> = match &chaos {
            None => {
                // Shared batch work (the fused dispatch and everything
                // the data plane does inside it) attributes to every
                // request in the batch.
                let _scope = obs.as_ref().map(|o| {
                    ledger::enter_scope(o.ledger(), jobs.iter().map(|j| j.trace).collect())
                });
                // Borrowed dispatch: the batch hands the backend
                // references into the queued jobs, not request clones.
                // Each outcome carries its own request's verdict, so a
                // partial block is never labelled exact.
                let reqs: Vec<&SampleRequest> = jobs.iter().map(|j| &j.req).collect();
                backend
                    .sample_many(&reqs)
                    .into_iter()
                    .map(|outcome| SampleReply::from_outcome(outcome, 1, false))
                    .collect()
            }
            Some(inj) => jobs
                .iter()
                .map(|job| {
                    // Per-request scope: the retry ladder's events must
                    // attribute to the one request being served.
                    let _scope = obs
                        .as_ref()
                        .map(|o| ledger::enter_scope(o.ledger(), vec![job.trace]));
                    let reply = serve_one(
                        &backend,
                        inj,
                        &job.req,
                        job.submitted,
                        job.class,
                        cfg.backoff_base,
                        &mut breaker,
                        &jitter,
                        &mut acct,
                    );
                    if reply.degraded {
                        inj.note_degraded_reply();
                    } else {
                        inj.note_exact_reply();
                    }
                    reply
                })
                .collect(),
        };
        if let (Some(tracer), Some(start)) = (&tracer, dispatch_start) {
            tracer.span_args(
                "service",
                "dispatch",
                pids::SERVICE,
                shard,
                start,
                tracer.wall_us() - start,
                &[
                    ("batch", jobs.len() as f64),
                    ("queue_depth", queue_depth as f64),
                ],
            );
        }
        {
            let mut s = stats.lock().expect("stats lock");
            s.dispatches += 1;
            s.requests += jobs.len() as u64;
            s.queue_depth.record(queue_depth);
            s.batch_size.record(jobs.len() as u64);
            s.faults += acct.faults;
            s.hedges += acct.hedges;
            s.fallbacks += acct.fallbacks;
            s.breaker_fastpaths += acct.fastpaths;
            s.breaker_opens += breaker.opens() - breaker_opens_before;
            for reply in &replies {
                if reply.degraded {
                    s.degraded += 1;
                }
                s.retries.record(reply.attempts as u64);
            }
            for (job, reply) in jobs.iter().zip(&replies) {
                let elapsed_us = job.submitted.elapsed().as_micros() as u64;
                s.latency.record(elapsed_us);
                if elapsed_us > SLO_TARGET_US {
                    s.slo_violations += 1;
                }
                if let Some(tracer) = &tracer {
                    // Submit→reply lifecycle, anchored at submit time.
                    tracer.span(
                        "service",
                        "request",
                        pids::SERVICE,
                        shard,
                        tracer.us_of(job.submitted),
                        elapsed_us as f64,
                    );
                }
                if let (Some(o), Some(h)) = (obs.as_ref(), lh.as_mut()) {
                    h.record(
                        job.trace,
                        Stage::SampleDone,
                        shard,
                        0.0,
                        elapsed_us as f64,
                        u64::from(reply.degraded),
                    );
                    if job.finish {
                        // Outermost layer: run the flight-dump/deadline
                        // triggers here. (A wrapping pipeline finishes
                        // the trace at its own end-to-end completion.)
                        h.flush();
                        o.ledger()
                            .finish(job.trace, elapsed_us as f64, reply.degraded);
                    }
                }
            }
        }
        if let Some(h) = &mut lh {
            // Batch boundary: merge this dispatch's events off the hot
            // path in one lock acquisition.
            h.flush();
        }
        for (job, reply) in jobs.into_iter().zip(replies) {
            // A dropped ticket (caller gave up) is not an error.
            let _ = job.reply.send(reply);
        }
        if let Some(after) = panic_after {
            if dispatch_no >= after {
                // Injected worker crash: the shard dies *between* batches
                // so no accepted job is lost; surviving shards keep
                // draining the shared queue.
                chaos
                    .as_ref()
                    .expect("panic implies chaos")
                    .note_worker_panic();
                return;
            }
        }
    }
}

impl SamplingService {
    /// Starts worker shards over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `queue_capacity` or `max_batch` is zero.
    pub fn start(backend: Box<dyn SamplingBackend>, config: ServiceConfig) -> Self {
        Self::start_observed(backend, config, None, None, None)
    }

    /// The instrumented entry point: [`SamplingService::start`] plus
    /// three optional attachments, each `None` in `start`.
    ///
    /// * `tracer` records wall-clock `service`-category spans: one
    ///   `dispatch` span per backend call and one `request` span per
    ///   submit→reply lifecycle, on the shard's thread track.
    /// * `injector` is the chaos entry point: a [`FaultInjector`] whose
    ///   plan schedules worker panics and queue stalls at the service
    ///   layer and whose counters receive the degraded/exact reply
    ///   tallies. A zero-fault plan leaves the exact batched dispatch
    ///   path untouched.
    /// * `obs` is an [`Observability`] bundle: every request gets a
    ///   ledger trace id and the shards record
    ///   enqueue/admission/dispatch/degradation events with queue-wait vs
    ///   service-time split; without one the service runs the exact code
    ///   path it always had. When a chaos injector with a non-trivial
    ///   plan is also installed, the ledger is correlated with the plan's
    ///   seed and digest so flight dumps name the replay coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `queue_capacity` or `max_batch` is zero.
    pub fn start_observed(
        backend: Box<dyn SamplingBackend>,
        config: ServiceConfig,
        tracer: Option<Tracer>,
        injector: Option<FaultInjector>,
        obs: Option<Observability>,
    ) -> Self {
        Self::start_with(backend, config, tracer, injector, obs, None)
    }

    /// [`SamplingService::start_observed`], optionally behind the shaped
    /// front door's `admission` controller: then every lane is unbounded
    /// (the controller bounds them) and a shard that takes a job tells
    /// the controller it was dequeued.
    pub(crate) fn start_with(
        backend: Box<dyn SamplingBackend>,
        config: ServiceConfig,
        tracer: Option<Tracer>,
        injector: Option<FaultInjector>,
        obs: Option<Observability>,
        admission: Option<AdmissionController>,
    ) -> Self {
        assert!(config.workers > 0, "need at least one worker shard");
        assert!(config.queue_capacity > 0, "queue capacity must be non-zero");
        assert!(config.max_batch > 0, "max batch must be non-zero");
        if let Some(tracer) = &tracer {
            tracer.name_process(pids::SERVICE, "sampling-service");
            for shard in 0..config.workers {
                tracer.name_thread(pids::SERVICE, shard as u32, &format!("shard{shard}"));
            }
            tracer.name_thread(pids::SERVICE, config.workers as u32, "clients");
        }
        if let (Some(o), Some(inj)) = (&obs, &injector) {
            let plan = inj.plan();
            if !plan.is_zero_fault() {
                o.ledger().set_chaos(plan.seed(), plan.digest());
            }
        }
        // A plain service enqueues into the interactive lane alone.
        let (lanes, rxs): (Vec<_>, Vec<_>) = Priority::ALL
            .iter()
            .map(|&class| match class {
                Priority::Interactive if admission.is_none() => bounded(config.queue_capacity),
                _ => unbounded(),
            })
            .unzip();
        let (bell, bell_rx) = unbounded();
        let shared = Shared {
            backend: Arc::from(backend),
            stats: Arc::new(Mutex::new(ServiceStats::default())),
            config,
            tracer,
            injector,
            obs,
            admission: admission.map(|ctrl| Arc::new(Mutex::new(ctrl))),
        };
        let workers = (0..config.workers)
            .map(|shard| {
                let (shared, rxs, bell_rx) = (shared.clone(), rxs.clone(), bell_rx.clone());
                std::thread::spawn(move || shard_loop(shared, rxs, bell_rx, shard as u32))
            })
            .collect();
        SamplingService {
            shared,
            lanes: Some((lanes, bell)),
            workers,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> ServiceConfig {
        self.shared.config
    }

    /// The fault injector this service was started with, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.shared.injector.as_ref()
    }

    /// The observability bundle this service was started with, if any.
    /// Outer layers (the inference pipeline) thread their own events
    /// through the same ledger.
    pub fn observability(&self) -> Option<&Observability> {
        self.shared.obs.as_ref()
    }

    /// The shaped front door's admission controller, locked.
    ///
    /// # Panics
    ///
    /// Panics if the service was started without one.
    pub(crate) fn admission(&self) -> MutexGuard<'_, AdmissionController> {
        let ctrl = self.shared.admission.as_ref().expect("admission installed");
        ctrl.lock().expect("admission lock")
    }

    /// Enqueues a request, blocking while the queue is full
    /// (backpressure), and returns a ticket for the result.
    ///
    /// # Panics
    ///
    /// Panics if `req.fanout` is zero or a root is outside the backend's
    /// node range.
    pub fn submit(&self, req: SampleRequest) -> SampleTicket {
        req.assert_well_formed(self.shared.backend.num_nodes());
        self.enqueue(req, Priority::Interactive, None, false, true)
    }

    /// The one enqueue behind every front door. Registers the request
    /// with the tracer and the ledger (its `Enqueue` event, then
    /// `Brownout` when admission `browned_out` its fanout), pushes the
    /// job into its `class` lane and then the job's bell token, and
    /// returns the ticket. `deadline` is relative to this call; it drives
    /// slack-driven batch close. `finish` says whether the reply finishes
    /// the request's ledger trace. Blocks while a bounded lane is full.
    pub(crate) fn enqueue(
        &self,
        req: SampleRequest,
        class: Priority,
        deadline: Option<Duration>,
        browned_out: bool,
        finish: bool,
    ) -> SampleTicket {
        let Shared { tracer, obs, .. } = &self.shared;
        if let Some(tracer) = tracer {
            tracer.instant(
                "service",
                "submit",
                pids::SERVICE,
                self.shared.config.workers as u32,
                tracer.wall_us(),
            );
        }
        let trace = obs.as_ref().map_or(0, |o| {
            let trace = o.ledger().next_trace();
            // Transient handle: buffered events, flushed on drop.
            let mut h = o.ledger().handle();
            let roots = req.roots.len() as u64;
            h.record(trace, Stage::Enqueue, NO_SHARD, 0.0, 0.0, roots);
            if browned_out {
                h.record(
                    trace,
                    Stage::Brownout,
                    NO_SHARD,
                    0.0,
                    0.0,
                    class.index() as u64,
                );
            }
            trace
        });
        let (reply, rx) = bounded(1);
        let submitted = Instant::now();
        let job = Job {
            req,
            reply,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            class,
            trace,
            finish,
        };
        let (lanes, bell) = self.lanes.as_ref().expect("service running");
        lanes[class.index()].send(job).expect("worker shards alive");
        // Job first, then its token: a received token implies a job.
        bell.send(()).expect("worker shards alive");
        SampleTicket { rx, trace }
    }

    /// Submits and waits: the synchronous convenience path.
    pub fn sample(&self, req: SampleRequest) -> SampleBatch {
        self.submit(req).wait()
    }

    /// Submits and waits, keeping the flat block shape.
    pub fn sample_block(&self, req: SampleRequest) -> SampleBlock {
        self.submit(req).wait_block()
    }

    /// Submits and waits, keeping the degradation provenance.
    pub fn sample_reply(&self, req: SampleRequest) -> SampleReply {
        self.submit(req).wait_reply()
    }

    /// Gathers attributes straight through the backend (attribute reads
    /// are already batched by the caller's fetch list). Cluster-backed
    /// backends answer through the coalesced row fetch, so repeated hubs
    /// surface in `attr_coalesce_*` telemetry.
    pub fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
        self.shared.backend.gather_attributes(nodes)
    }

    /// Gathers attributes in deduplicated row form (see
    /// [`SamplingBackend::gather_attr_rows`]); the inference pipeline's
    /// gather stage feeds these rows and the slot index straight into
    /// layer-0 aggregation. Returns the attribute width.
    pub fn gather_attr_rows(
        &self,
        nodes: &[NodeId],
        rows: &mut Vec<f32>,
        slot_of: &mut Vec<u32>,
    ) -> usize {
        self.shared.backend.gather_attr_rows(nodes, rows, slot_of)
    }

    /// The sampling SLO's burn rate ([`ServiceStats::burn_rate`]), read
    /// under the stats lock without cloning the stats.
    pub(crate) fn burn_rate(&self) -> f64 {
        self.shared.stats.lock().expect("stats lock").burn_rate()
    }

    /// A snapshot of service-level stats, with the backend's own
    /// accounting folded in.
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.shared.stats.lock().expect("stats lock").clone();
        s.backend = self.shared.backend.stats();
        s.cache = self.shared.backend.cache_snapshot();
        s
    }

    /// The backend being served (for decorator introspection in tests).
    pub fn backend(&self) -> &dyn SamplingBackend {
        &*self.shared.backend
    }

    /// Stops the shards after draining queued requests.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Closing the queue lets shards drain and exit.
        drop(self.lanes.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SamplingService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use crossbeam::channel::unbounded;
    use lsdgnn_chaos::{FaultPlan, FaultStats, ScenarioSpec};
    use lsdgnn_graph::{generators, AttributeStore};

    fn service(workers: usize) -> SamplingService {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, 8, 31);
        SamplingService::start(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    fn req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: (0..8).map(NodeId).collect(),
            hops: 2,
            fanout: 4,
            seed,
        }
    }

    /// A fault-injected service over a 4-partition CPU cluster.
    fn chaos_service(spec: ScenarioSpec, config: ServiceConfig) -> SamplingService {
        observed_chaos_service(spec, config, None)
    }

    /// [`chaos_service`] with an observability bundle.
    fn observed_chaos_service(
        spec: ScenarioSpec,
        config: ServiceConfig,
        obs: Option<Observability>,
    ) -> SamplingService {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, 8, 31);
        let plan = FaultPlan::build(7, spec).unwrap();
        let injector = FaultInjector::new(plan);
        let backend = Box::new(CpuBackend::new(&g, &a, 4));
        SamplingService::start_observed(backend, config, None, Some(injector), obs)
    }

    #[test]
    fn served_results_match_direct_backend_calls() {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, 8, 31);
        let direct = CpuBackend::new(&g, &a, 2);
        let svc = service(2);
        for seed in 0..8 {
            assert_eq!(svc.sample(req(seed)), direct.sample_neighbors(&req(seed)));
        }
        svc.shutdown();
    }

    #[test]
    fn zero_fanout_is_refused_at_submit_and_the_worker_survives() {
        // One worker: had the request reached it, the division by zero
        // in the sampler would leave nobody to serve the next one.
        let svc = service(1);
        let bad = SampleRequest {
            fanout: 0,
            ..req(1)
        };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.submit(bad)));
        assert!(refused.is_err(), "submit must refuse a zero fanout");
        let block = svc.submit(req(2)).wait_block();
        assert_eq!(block.num_hops(), 2);
        assert_eq!(svc.stats().requests, 1);
        svc.shutdown();
    }

    #[test]
    fn out_of_range_root_is_refused_at_submit_and_the_worker_survives() {
        // One worker over a 500-node graph: had root 500 reached it, the
        // out-of-bounds index in the expansion would leave nobody to
        // serve the next request.
        let svc = service(1);
        assert_eq!(svc.backend().num_nodes(), 500);
        let bad = SampleRequest {
            roots: vec![NodeId(3), NodeId(500)],
            ..req(1)
        };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.submit(bad)));
        assert!(refused.is_err(), "submit must refuse a root past the range");
        let edge = SampleRequest {
            roots: vec![NodeId(499)],
            ..req(2)
        };
        assert_eq!(svc.submit(edge).wait_block().roots, [NodeId(499)]);
        assert_eq!(svc.stats().requests, 1);
        svc.shutdown();
    }

    #[test]
    fn concurrent_submissions_all_complete_with_stats() {
        let svc = service(3);
        let tickets: Vec<_> = (0..40).map(|s| svc.submit(req(s))).collect();
        let batches: Vec<_> = tickets.into_iter().map(SampleTicket::wait).collect();
        assert_eq!(batches.len(), 40);
        // Per-seed determinism holds through the pool: re-ask one.
        assert_eq!(svc.sample(req(7)), batches[7]);
        let s = svc.stats();
        assert_eq!(s.requests, 41);
        assert!(s.dispatches >= 1 && s.dispatches <= 41);
        assert_eq!(s.latency.count(), 41);
        assert!(s.latency_p99_us() >= s.latency.percentile(0.5));
        assert!(s.backend.nodes_expanded > 0);
        assert_eq!(s.degraded, 0, "no faults: nothing degrades");
        assert_eq!(s.degraded_ratio(), 0.0);
        svc.shutdown();
    }

    /// Four submitter threads against three shards and a two-slot queue,
    /// so submitters block on a full lane: every ticket gets exactly one
    /// reply, equal to a direct backend call.
    #[test]
    fn blocked_submitters_from_four_threads_get_exact_replies() {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, 8, 31);
        let direct = CpuBackend::new(&g, &a, 2);
        let svc = SamplingService::start(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig {
                workers: 3,
                queue_capacity: 2,
                max_batch: 4,
                ..ServiceConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (svc, direct) = (&svc, &direct);
                scope.spawn(move || {
                    let seeds: Vec<u64> = (0..40).map(|i| t * 1_000 + i).collect();
                    let tickets: Vec<_> = seeds.iter().map(|&s| svc.submit(req(s))).collect();
                    for (s, ticket) in seeds.into_iter().zip(tickets) {
                        assert_eq!(ticket.wait(), direct.sample_neighbors(&req(s)), "seed {s}");
                    }
                });
            }
        });
        assert_eq!(svc.stats().requests, 160);
        svc.shutdown();
    }

    #[test]
    fn deadline_coalescing_batches_queued_requests() {
        // One worker, long deadline: a burst should coalesce.
        let g = generators::power_law(300, 8, 32);
        let a = AttributeStore::synthetic(300, 8, 32);
        let svc = SamplingService::start(
            Box::new(CpuBackend::new(&g, &a, 1)),
            ServiceConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 8,
                batch_deadline: Duration::from_millis(20),
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..16).map(|s| svc.submit(req(s))).collect();
        for t in tickets {
            t.wait();
        }
        let s = svc.stats();
        assert_eq!(s.requests, 16);
        assert!(
            s.dispatches < 16,
            "no coalescing happened: {} dispatches",
            s.dispatches
        );
        assert!(s.batch_size.max() > 1);
        svc.shutdown();
    }

    /// A backend double whose dispatches block until the test releases
    /// them: batch formation is asserted from what was queued while a
    /// dispatch was held, never from a clock.
    struct GateBackend<F> {
        inner: CpuBackend,
        /// Called with each dispatch's requests as it enters the backend.
        entered: F,
        /// One token lets one dispatch through.
        release: Receiver<()>,
    }

    impl<F: Fn(&[&SampleRequest]) + Send + Sync> SamplingBackend for GateBackend<F> {
        fn sample_block(&self, req: &SampleRequest) -> SampleBlock {
            self.inner.sample_block(req)
        }
        fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
            self.inner.gather_attributes(nodes)
        }
        fn stats(&self) -> RequestStats {
            self.inner.stats()
        }
        fn sample_many(&self, reqs: &[&SampleRequest]) -> Vec<SampleOutcome> {
            (self.entered)(reqs);
            self.release.recv().expect("test releases");
            self.inner.sample_many(reqs)
        }
    }

    /// A [`GateBackend`] over a 300-node graph reporting each dispatch
    /// through `entered`, and the sender that releases dispatches.
    pub(crate) fn gate_backend(
        entered: impl Fn(&[&SampleRequest]) + Send + Sync + 'static,
    ) -> (Box<dyn SamplingBackend>, Sender<()>) {
        let g = generators::power_law(300, 8, 32);
        let a = AttributeStore::synthetic(300, 8, 32);
        let (release_tx, release) = unbounded();
        let backend = GateBackend {
            inner: CpuBackend::new(&g, &a, 1),
            entered,
            release,
        };
        (Box::new(backend), release_tx)
    }

    /// A one-worker service over a [`GateBackend`], with the channel
    /// reporting each dispatch's batch size and the one releasing it.
    pub(crate) fn gated(
        config: ServiceConfig,
        injector: Option<FaultInjector>,
    ) -> (SamplingService, Receiver<usize>, Sender<()>) {
        let (entered, entered_rx) = unbounded();
        let (backend, release_tx) =
            gate_backend(move |reqs| entered.send(reqs.len()).expect("test listens"));
        let config = ServiceConfig {
            workers: 1,
            ..config
        };
        let svc = SamplingService::start_observed(backend, config, None, injector, None);
        (svc, entered_rx, release_tx)
    }

    /// Holds dispatch 1 (one request), queues `n` more behind it, lets
    /// everything through; returns the batch size of every dispatch and
    /// the replies in submission order.
    fn dispatch_sizes_of_a_held_burst(
        config: ServiceConfig,
        n: usize,
    ) -> (Vec<usize>, Vec<SampleReply>) {
        let (svc, entered, release) = gated(config, None);
        let first = svc.submit(req(0));
        assert_eq!(entered.recv().unwrap(), 1, "dispatch 1 is held");
        let queued: Vec<_> = (1..=n as u64).map(|s| svc.submit(req(s))).collect();
        (0..=n).for_each(|_| release.send(()).unwrap());
        let replies: Vec<_> = std::iter::once(first)
            .chain(queued)
            .map(SampleTicket::wait_reply)
            .collect();
        let dispatches = svc.stats().dispatches;
        // Shutdown drops the backend, which ends the `entered` stream.
        svc.shutdown();
        let sizes: Vec<usize> = entered.iter().collect();
        assert_eq!(dispatches, 1 + sizes.len() as u64);
        (sizes, replies)
    }

    #[test]
    fn queued_requests_join_the_next_batch_without_a_timer() {
        // The default never idles on the batch timer.
        assert!(ServiceConfig::default().batch_deadline.is_zero());
        let unbatched = ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let explicit_zero = ServiceConfig {
            batch_deadline: Duration::ZERO,
            max_batch: 8,
            ..ServiceConfig::default()
        };
        for config in [explicit_zero, ServiceConfig::default()] {
            for n in [1, 5, config.max_batch, 3 * config.max_batch + 2] {
                let (sizes, replies) = dispatch_sizes_of_a_held_burst(config, n);
                // Dispatch 2 carries everything queued, up to max_batch,
                // and the rest follows in full batches.
                assert_eq!(sizes[0], n.min(config.max_batch), "n={n}");
                assert_eq!(sizes.len(), n.div_ceil(config.max_batch), "n={n}");
                assert_eq!(sizes.iter().sum::<usize>(), n);
                // Batching changes latency, never results.
                let (singles, unbatched_replies) = dispatch_sizes_of_a_held_burst(unbatched, n);
                assert_eq!(singles, vec![1; n]);
                assert_eq!(replies, unbatched_replies, "n={n}");
            }
        }
    }

    #[test]
    fn slack_driven_close_dispatches_tight_deadlines_immediately() {
        // Same long idle wait in both arms; the slack arm's requests
        // carry deadlines with no slack left, so a batch dispatches the
        // moment its queue is drained instead of sitting out the timer
        // for company.
        const TIMER: Duration = Duration::from_millis(100);
        // Returns whether dispatch 2 entered the backend inside half the
        // timer, and the burst's wall time.
        let run = |policy| {
            let (svc, entered, release) = gated(
                ServiceConfig {
                    // Larger than the burst so the fixed arm cannot close
                    // early on batch size and must sit out the timer.
                    max_batch: 16,
                    batch_deadline: TIMER,
                    batch: policy,
                    ..ServiceConfig::default()
                },
                None,
            );
            let t0 = Instant::now();
            // Through `enqueue` with a deadline, as the shaped door submits.
            let tight = |s| {
                let deadline = Some(Duration::from_millis(1));
                svc.enqueue(req(s), Priority::Interactive, deadline, false, true)
            };
            let first = tight(0);
            assert_eq!(entered.recv().unwrap(), 1, "dispatch 1 is held");
            let queued: Vec<_> = (1..=8).map(tight).collect();
            release.send(()).unwrap();
            // Joining what is queued costs no wait under either policy;
            // the timer, where it applies, starts once the queue is empty.
            let early = entered.recv_timeout(TIMER / 2);
            let size = early.or_else(|_| entered.recv()).unwrap();
            assert_eq!(size, 8, "the queued burst is one batch");
            release.send(()).unwrap();
            std::iter::once(first).chain(queued).for_each(|t| {
                t.wait();
            });
            let elapsed = t0.elapsed();
            assert_eq!(svc.stats().dispatches, 2);
            svc.shutdown();
            (early.is_ok(), elapsed)
        };
        let (fixed_early, fixed_elapsed) = run(BatchPolicy::FixedDeadline);
        assert!(!fixed_early, "the fixed arm idles for company");
        assert!(fixed_elapsed >= TIMER, "{fixed_elapsed:?}");
        let (slack_early, slack_elapsed) = run(BatchPolicy::SlackDriven {
            est_service: Duration::from_millis(5),
        });
        assert!(slack_early, "a zero-slack batch dispatches once drained");
        assert!(
            slack_elapsed < TIMER,
            "slack close must not sit out the growth timer ({slack_elapsed:?})"
        );
    }

    #[test]
    fn slack_policy_matches_fixed_on_deadline_less_traffic() {
        // Requests without deadlines contribute the fixed wait, so the
        // slack policy still coalesces a queued burst.
        let g = generators::power_law(300, 8, 32);
        let a = AttributeStore::synthetic(300, 8, 32);
        let svc = SamplingService::start(
            Box::new(CpuBackend::new(&g, &a, 1)),
            ServiceConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 8,
                batch_deadline: Duration::from_millis(20),
                batch: BatchPolicy::SlackDriven {
                    est_service: Duration::from_millis(5),
                },
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..16).map(|s| svc.submit(req(s))).collect();
        for t in tickets {
            t.wait();
        }
        let s = svc.stats();
        assert_eq!(s.requests, 16);
        assert!(
            s.dispatches < 16,
            "deadline-less traffic still coalesces: {} dispatches",
            s.dispatches
        );
        assert!(s.batch_size.max() > 1);
        svc.shutdown();
    }

    #[test]
    fn drop_shuts_the_pool_down() {
        let svc = service(2);
        svc.sample(req(1));
        drop(svc); // must not hang or leak threads
    }

    #[test]
    fn stats_register_as_metric_source() {
        let svc = service(2);
        for s in 0..4 {
            svc.sample(req(s));
        }
        let mut reg = lsdgnn_telemetry::Registry::new();
        reg.register("service", &[("backend", "cpu")], Box::new(svc.stats()));
        let snap = reg.snapshot();
        assert_eq!(snap.get("service/requests").unwrap().as_f64(), 4.0);
        let lat = snap
            .get("service/latency_us")
            .and_then(|v| v.as_histogram().copied())
            .expect("latency histogram exported");
        assert_eq!(lat.count, 4);
        assert!(lat.p99 >= lat.p50);
        assert!(
            snap.get("service/backend/nodes_expanded").unwrap().as_f64() > 0.0,
            "backend stats nest under the service scope"
        );
        assert_eq!(snap.get("service/degraded").unwrap().as_f64(), 0.0);
        assert!(snap.get("service/retries").is_some());
        assert_eq!(snap.get("service/breaker_opens").unwrap().as_f64(), 0.0);
        svc.shutdown();
    }

    #[test]
    fn traced_service_records_lifecycle_spans() {
        let g = generators::power_law(300, 8, 33);
        let a = AttributeStore::synthetic(300, 8, 33);
        let tracer = Tracer::new();
        let svc = SamplingService::start_observed(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig::default(),
            Some(tracer.clone()),
            None,
            None,
        );
        for s in 0..3 {
            svc.sample(req(s));
        }
        svc.shutdown();
        let events = tracer.events();
        let requests = events
            .iter()
            .filter(|e| e.ph == 'X' && e.name == "request" && e.cat == "service")
            .count();
        assert_eq!(requests, 3);
        assert!(
            events.iter().any(|e| e.ph == 'X' && e.name == "dispatch"),
            "dispatch spans present"
        );
        assert!(
            events.iter().any(|e| e.ph == 'i' && e.name == "submit"),
            "submit instants present"
        );
    }

    #[test]
    fn zero_fault_injector_changes_nothing() {
        let svc = chaos_service(ScenarioSpec::none(), ServiceConfig::default());
        let plain = service(2);
        for s in 0..6 {
            let reply = svc.sample_reply(req(s));
            assert!(!reply.degraded);
            assert_eq!(reply.attempts, 1);
            assert_eq!(reply.block.to_batch(), plain.sample(req(s)));
        }
        let st = svc.stats();
        assert_eq!(st.faults, 0);
        assert_eq!(st.fallbacks, 0);
        assert_eq!(svc.injector().unwrap().stats(), FaultStats::default());
        svc.shutdown();
        plain.shutdown();
    }

    /// A zero-fault plan keeps the batched dispatch: requests queued
    /// behind a held dispatch reach the backend's `sample_many` together,
    /// where its coalescing runs, as on a service without an injector.
    #[test]
    fn zero_fault_plan_keeps_the_batched_dispatch() {
        let injector = FaultInjector::new(FaultPlan::zero(99));
        let (svc, entered, release) = gated(ServiceConfig::default(), Some(injector.clone()));
        let held = Duration::from_secs(30);
        let first = svc.submit(req(0));
        assert_eq!(entered.recv_timeout(held), Ok(1), "dispatch 1 is held");
        let queued: Vec<_> = (1..=4).map(|s| svc.submit(req(s))).collect();
        (0..2).for_each(|_| release.send(()).unwrap());
        assert_eq!(
            entered.recv_timeout(held),
            Ok(4),
            "the queued four dispatch together"
        );
        for ticket in std::iter::once(first).chain(queued) {
            assert_eq!(ticket.wait_reply().attempts, 1);
        }
        svc.shutdown();
        assert_eq!(injector.stats(), FaultStats::default());
    }

    #[test]
    fn request_loss_is_retried_into_answers() {
        let svc = chaos_service(
            ScenarioSpec::none().with_request_loss(0.4),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let replies: Vec<_> = (0..32).map(|s| svc.sample_reply(req(s))).collect();
        let st = svc.stats();
        assert_eq!(st.requests, 32, "every request answered");
        assert!(st.faults > 0, "40% loss must fail some attempts");
        // Each lost attempt is counted once by the plan and once by the
        // ladder.
        assert_eq!(svc.injector().unwrap().stats().requests_dropped, st.faults);
        assert!(
            replies.iter().any(|r| r.attempts > 1),
            "some request needed a retry"
        );
        // Retried requests still produce the exact per-seed answer.
        for (s, r) in replies.iter().enumerate() {
            if !r.degraded {
                assert_eq!(
                    r.block,
                    svc.backend().sample_block(&req(s as u64)),
                    "seed {s}"
                );
            }
        }
        svc.shutdown();
    }

    /// Without a fault injector the service answers through the batched
    /// dispatch. A partition that is down must still degrade the replies
    /// it cut short: each reply carries the verdict an unmasked sample
    /// of its request alone reports, however the batches formed — and an
    /// inference pipeline on top reports the loss in its recall.
    #[test]
    fn batched_replies_carry_each_requests_own_verdict() {
        let g = generators::power_law(400, 8, 21);
        let a = AttributeStore::synthetic(400, 8, 21);
        let crashed = || {
            let b = CpuBackend::new(&g, &a, 4);
            assert!(b.fail_shard(2));
            b
        };
        let direct = crashed();
        let probe = SampleRequest {
            roots: (0..8).map(NodeId).collect(),
            hops: 2,
            fanout: 5,
            seed: 3,
        };
        let want = direct.sample_excluding(&probe, &[]);
        assert!(want.degraded && want.unreachable > 0);

        let svc = SamplingService::start(Box::new(crashed()), ServiceConfig::default());
        let reply = svc.sample_reply(probe.clone());
        assert_eq!(reply.block, want.block);
        assert_eq!(
            (reply.degraded, reply.unreachable),
            (true, want.unreachable)
        );
        // One-hop requests from single roots: some touch partition 2,
        // some do not, and they share batches.
        let reqs: Vec<SampleRequest> = (0..24)
            .map(|v| SampleRequest {
                roots: vec![NodeId(v * 11)],
                hops: 1,
                fanout: 2,
                seed: v,
            })
            .collect();
        let tickets: Vec<SampleTicket> = reqs.iter().map(|r| svc.submit(r.clone())).collect();
        let mut degraded = 1;
        for (r, t) in reqs.iter().zip(tickets) {
            let reply = t.wait_reply();
            let alone = direct.sample_excluding(r, &[]);
            assert_eq!(reply.block, alone.block, "seed {}", r.seed);
            assert_eq!(
                (reply.degraded, reply.unreachable),
                (alone.degraded, alone.unreachable),
                "seed {}",
                r.seed
            );
            degraded += u64::from(reply.degraded);
        }
        assert!(1 < degraded && degraded < 25, "a mix of verdicts");
        assert_eq!(svc.stats().degraded, degraded);
        svc.shutdown();

        // The pipeline samples expand-only; the verdict is the same.
        let model = lsdgnn_nn::SageModel::new(&[8, 8, 4], 77);
        let pipe = crate::inference::InferenceService::start(
            SamplingService::start(Box::new(crashed()), ServiceConfig::default()),
            model,
            crate::inference::InferenceConfig::default(),
        );
        let reply = pipe.infer(probe);
        assert!(reply.degraded);
        assert_eq!(reply.unreachable, want.unreachable);
        assert!(reply.recall < 1.0, "the loss shows in the recall");
    }

    #[test]
    fn card_failure_yields_degraded_replies_not_errors() {
        let svc = chaos_service(
            ScenarioSpec::none().with_card_failure(1, 8),
            ServiceConfig::default(),
        );
        let replies: Vec<SampleReply> = (0..24).map(|s| svc.sample_reply(req(s))).collect();
        for (s, reply) in replies.iter().enumerate() {
            // Card 1 is up before tick 8 and down from it on.
            assert_eq!(reply.degraded, s >= 8, "seed {s}");
            assert_eq!(reply.unreachable > 0, reply.degraded, "seed {s}");
        }
        // Deterministic: the same request degrades identically again.
        assert_eq!(svc.sample_reply(req(12)), replies[12]);
        let st = svc.stats();
        assert_eq!(st.degraded, 17);
        assert!(st.degraded_ratio() > 0.0);
        let inj_stats = svc.injector().unwrap().stats();
        assert_eq!(inj_stats.degraded_replies, 17);
        assert_eq!(inj_stats.cards_downed, 1, "a card is counted down once");
        svc.shutdown();
    }

    #[test]
    fn total_loss_falls_back_to_degraded_or_fallback_replies() {
        // 100% request loss: the retry ladder always runs dry, every
        // reply comes from the fallback path — and still arrives.
        let svc = chaos_service(
            ScenarioSpec::none().with_request_loss(1.0),
            ServiceConfig {
                workers: 1,
                backoff_base: Duration::from_micros(1),
                ..ServiceConfig::default()
            },
        );
        for s in 0..8 {
            let reply = svc.sample_reply(req(s));
            // Fallback bypasses the lossy transport; with no cards down
            // the answer is exact.
            assert!(!reply.degraded);
            assert_eq!(reply.block, svc.backend().sample_block(&req(s)));
        }
        let st = svc.stats();
        assert_eq!(st.fallbacks, 8);
        assert!(st.hedges > 0, "hedges fire before the ladder runs dry");
        assert!(
            st.breaker_opens > 0,
            "sustained failure must trip the breaker"
        );
        assert!(st.breaker_fastpaths > 0, "open breaker short-circuits");
        svc.shutdown();
    }

    /// Every attempt lost and card 2 down from tick 0: the fallback
    /// escapes the loss but not the down card, so every reply arrives,
    /// degraded.
    #[test]
    fn total_loss_with_a_down_card_falls_back_degraded() {
        let svc = chaos_service(
            ScenarioSpec::none()
                .with_request_loss(1.0)
                .with_card_failure(2, 0),
            ServiceConfig {
                workers: 1,
                backoff_base: Duration::from_micros(1),
                ..ServiceConfig::default()
            },
        );
        for s in 0..16 {
            let reply = svc.sample_reply(req(s));
            assert!(reply.degraded && reply.unreachable > 0, "seed {s}");
        }
        let st = svc.stats();
        assert_eq!((st.degraded, st.fallbacks), (16, 16));
        let inj = svc.injector().unwrap().stats();
        assert_eq!(inj.requests_dropped, st.faults);
        assert_eq!((inj.cards_downed, inj.degraded_replies), (1, 16));
        svc.shutdown();
    }

    #[test]
    fn injected_worker_panic_does_not_lose_requests() {
        // Shard 0 dies after 2 dispatches; shard 1 keeps serving.
        let svc = chaos_service(
            ScenarioSpec::none().with_worker_panic(0, 2),
            ServiceConfig {
                workers: 2,
                max_batch: 1,
                batch_deadline: Duration::ZERO,
                ..ServiceConfig::default()
            },
        );
        // Which shard takes a job is the scheduler's choice, so serve
        // one request at a time until shard 0 has had its two
        // dispatches, then a few more that only shard 1 can answer.
        let panicked = || svc.injector().unwrap().stats().worker_panics > 0;
        let mut served = 0;
        while !panicked() {
            assert!(served < 10_000, "shard 0 never took two dispatches");
            let _ = svc.sample_reply(req(served));
            served += 1;
        }
        for _ in 0..8 {
            let _ = svc.sample_reply(req(served));
            served += 1;
        }
        let st = svc.stats();
        assert_eq!(st.requests, served, "the surviving shard answered them all");
        assert_eq!(svc.injector().unwrap().stats().worker_panics, 1);
        svc.shutdown();
    }

    /// The whole fault path, frozen: request loss, a card going down
    /// mid-run and a straggling card on one sequential worker. Every
    /// reply's `(digest, degraded, unreachable, attempts, hedged)`, the
    /// injector's tallies and the ledger's fault-path events are pinned
    /// to the values the service produced when request loss, stragglers
    /// and card masks still lived in a backend decorator.
    #[test]
    fn fault_path_replies_and_tallies_are_frozen() {
        let obs = Observability::default();
        let svc = observed_chaos_service(
            ScenarioSpec::none()
                .with_request_loss(0.3)
                .with_card_failure(1, 8)
                .with_straggler(3, 2.0, 20),
            ServiceConfig {
                workers: 1,
                backoff_base: Duration::from_micros(1),
                ..ServiceConfig::default()
            },
            Some(obs.clone()),
        );
        let replies: Vec<(u64, bool, u64, u32, bool)> = (0..24)
            .map(|s| {
                let r = svc.sample_reply(req(s));
                (
                    r.block.digest(),
                    r.degraded,
                    r.unreachable,
                    r.attempts,
                    r.hedged,
                )
            })
            .collect();
        let stats = svc.injector().unwrap().stats();
        svc.shutdown();
        // Fault-path ledger events by kind (sampling attempts by attempt
        // number, faults by code), clocks left out.
        let snap = obs.ledger().snapshot();
        assert_eq!(snap.evicted, 0);
        let mut events = std::collections::BTreeMap::<String, u64>::new();
        for e in &snap.events {
            let key = match e.stage {
                Stage::Sampling => format!("sampling/{}", e.detail),
                Stage::Fault => format!("fault/{}/{}", faults::name(e.detail), e.shard),
                Stage::Retry | Stage::Hedge | Stage::Fallback | Stage::BreakerTrip => {
                    format!("{}/{}", e.stage.name(), e.detail)
                }
                _ => continue,
            };
            *events.entry(key).or_default() += 1;
        }
        const REPLIES: [(u64, bool, u64, u32, bool); 24] = [
            (0xb8dd6c8cb5686be3, false, 0, 1, false),
            (0x13d5811d30a81884, false, 0, 1, false),
            (0xb2448fbde27a8af8, false, 0, 2, false),
            (0x713d3797a09eba96, false, 0, 2, true),
            (0x7f370666f29e4f66, false, 0, 1, false),
            (0x5ddcb978327f93fa, false, 0, 1, false),
            (0x7619b997bb91c8ae, false, 0, 1, false),
            (0x2c5fcc27a0410e9f, false, 0, 2, false),
            (0x515d7df60d2c79c5, true, 32, 1, false),
            (0x525d1423d79c7918, true, 36, 1, false),
            (0x98b3a36db2128000, true, 27, 2, false),
            (0x4ceef1a59caa7a78, true, 28, 1, false),
            (0x4903b0cb7d4856aa, true, 29, 1, false),
            (0x5563b0a5f75f5522, true, 40, 1, false),
            (0x5484bfa9754f18b7, true, 30, 1, false),
            (0x98fd9d7ee3ce7697, true, 29, 1, false),
            (0x303d74099aca1b21, true, 38, 1, false),
            (0xadbfc1c581e3ffbc, true, 37, 1, false),
            (0x1830cade30021d0d, true, 33, 1, false),
            (0x0fe1522b7df414ee, true, 21, 2, false),
            (0xa48e1d77ae8fa0b3, true, 39, 1, false),
            (0xa77a10f1ebd848b9, true, 27, 1, false),
            (0x7da31595ab8f20b7, true, 36, 2, false),
            (0x5784949863c2fde2, true, 34, 2, false),
        ];
        assert_eq!(replies, REPLIES);
        assert_eq!(
            stats,
            FaultStats {
                requests_dropped: 8,
                straggler_delays: 11,
                straggler_delay_us: 425,
                cards_downed: 1,
                degraded_replies: 16,
                exact_replies: 8,
                ..Default::default()
            }
        );
        let want: Vec<(String, u64)> = [
            ("fault/card_down/1", 16),
            ("fault/request_loss/4294967295", 8),
            ("fault/straggler/3", 11),
            ("hedge/2", 1),
            ("retry/1", 7),
            ("retry/2", 1),
            ("sampling/0", 5),
            ("sampling/1", 2),
            ("sampling/2147483650", 1),
        ]
        .into_iter()
        .map(|(k, n)| (k.to_string(), n))
        .collect();
        assert_eq!(events.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn queue_stall_delays_but_answers() {
        let svc = chaos_service(
            ScenarioSpec::none().with_queue_stall(0, 1, 2_000),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        for s in 0..4 {
            let _ = svc.sample_reply(req(s));
        }
        assert!(svc.injector().unwrap().stats().queue_stalls >= 1);
        svc.shutdown();
    }

    /// The shared 4-partition backend one ladder attempt runs against.
    fn attempt_backend() -> Arc<dyn SamplingBackend> {
        let g = generators::power_law(400, 8, 21);
        let a = AttributeStore::synthetic(400, 8, 21);
        Arc::new(CpuBackend::new(&g, &a, 4))
    }

    fn attempt_req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: (0..8).map(NodeId).collect(),
            hops: 2,
            fanout: 5,
            seed,
        }
    }

    fn attempt_injector(spec: ScenarioSpec) -> FaultInjector {
        FaultInjector::new(FaultPlan::build(99, spec).unwrap())
    }

    #[test]
    fn zero_fault_plan_is_transparent() {
        let (bare, backend) = (attempt_backend(), attempt_backend());
        let inj = attempt_injector(ScenarioSpec::none());
        for s in 0..6 {
            let outcome = try_attempt(&backend, &inj, &attempt_req(s), 0).unwrap();
            assert!(!outcome.degraded);
            assert_eq!(outcome.block, bare.sample_block(&attempt_req(s)));
        }
        assert_eq!(inj.stats().requests_dropped, 0);
    }

    #[test]
    fn request_loss_fails_some_attempts_and_retries_recover() {
        let backend = attempt_backend();
        let inj = attempt_injector(ScenarioSpec::none().with_request_loss(0.5));
        let mut dropped = 0;
        for s in 0..64 {
            if try_attempt(&backend, &inj, &attempt_req(s), 0).is_none() {
                dropped += 1;
                // Retries draw fresh coordinates; one of the next few
                // succeeds with probability 1 - 0.5^n.
                let recovered =
                    (1..12).any(|a| try_attempt(&backend, &inj, &attempt_req(s), a).is_some());
                assert!(recovered, "seed {s} never recovered");
            }
        }
        assert!(dropped > 10, "50% loss must drop a fair share: {dropped}");
        // The recovery probes above also count their own failed attempts.
        assert!(inj.stats().requests_dropped >= dropped);
    }

    #[test]
    fn card_failure_degrades_requests_past_its_tick() {
        let backend = attempt_backend();
        let inj = attempt_injector(ScenarioSpec::none().with_card_failure(1, 100));
        let before = try_attempt(&backend, &inj, &attempt_req(50), 0).unwrap();
        assert!(!before.degraded, "card still up at tick 50");
        let after = try_attempt(&backend, &inj, &attempt_req(150), 0).unwrap();
        assert!(after.degraded, "card 1 down at tick 150");
        assert!(after.unreachable > 0);
        assert!(inj.stats().cards_downed >= 1);
        // Deterministic: the same request degrades identically again.
        assert_eq!(
            try_attempt(&backend, &inj, &attempt_req(150), 0).unwrap(),
            after
        );
    }

    #[test]
    fn fallback_bypasses_request_loss_but_not_down_cards() {
        let backend = attempt_backend();
        let inj = attempt_injector(
            ScenarioSpec::none()
                .with_request_loss(1.0)
                .with_card_failure(2, 0),
        );
        // Every attempt is swallowed...
        assert_eq!(try_attempt(&backend, &inj, &attempt_req(9), 0), None);
        // ...but the fallback still answers, degraded by the dead card.
        let (outcome, all_up) = sample_masked(&backend, &inj, &attempt_req(9));
        assert!(!all_up);
        assert!(outcome.degraded);
        assert!(outcome.unreachable > 0);
    }
}

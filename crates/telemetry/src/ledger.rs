//! Request-scoped causal observability: the [`RequestLedger`].
//!
//! Aggregate histograms (the [`crate::metrics`] layer) answer *how slow*;
//! the ledger answers *why*. Every served request gets a trace id at
//! submission, and each stage it passes through — enqueue, batch
//! admission, per-hop sampling, per-shard remote legs, the coalesced
//! gather, per-layer compute, and every retry/hedge/breaker event of the
//! degradation ladder — appends a [`LedgerEvent`] carrying a
//! **queue-wait vs service-time split**, so tail latency decomposes into
//! "waited for a batch" vs "the shard was slow".
//!
//! Recording is off the hot path by construction: threads buffer events
//! in a private [`LedgerHandle`] (one `Vec` push per event, no locks)
//! and merge into the shared store at explicit flush points. The shared
//! store is a bounded ring: when full, the *oldest* events evict first,
//! so the ledger is an always-on flight recorder rather than a
//! grows-forever log.
//!
//! On top of the raw events:
//!
//! * [`LedgerSnapshot::blame`] — the tail-attribution report: requests
//!   above a latency quantile (plus every degraded request) have their
//!   end-to-end latency decomposed into per-stage and per-shard blame,
//!   with injected faults tallied by layer ([`BlameReport`] is a
//!   [`MetricSource`] and renders to JSON).
//! * [`FlightDump`] — when a request finishes degraded or breaches its
//!   deadline, the last N of its events are dumped together with the
//!   active chaos seed and fault-plan digest, so the exact tail sample
//!   replays byte-identically from the seed.
//!
//! Lateness against an SLO is not kept here: the serving layers count
//! it in their own stats, so it does not depend on a ledger.
//!
//! Determinism: [`LedgerSnapshot`] orders events canonically (trace,
//! timestamp, stage rank), so two runs that record the same event set —
//! regardless of thread interleaving — produce
//! byte-identical snapshots and equal [`LedgerSnapshot::digest`]s.

use crate::json::Json;
use crate::metrics::{MetricSource, Scope};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shard value for events with no shard/partition context.
pub const NO_SHARD: u32 = u32::MAX;

/// The pipeline stage (or degradation-ladder rung) an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Request accepted into the service queue (`detail` = root count).
    Enqueue,
    /// Pulled off the queue into a coalesced batch; `queue_us` is the
    /// submit→dispatch wait, `detail` the batch size.
    Admission,
    /// The admission controller rejected the request (`detail` = reject
    /// code: 1 = rate limit, 2 = class queue full).
    Reject,
    /// Brownout load shedding dropped the request before it queued
    /// (`detail` = priority-class index).
    Shed,
    /// The request was admitted under brownout with degraded fanout
    /// (`detail` = priority-class index).
    Brownout,
    /// Injected queue stall before dispatch (`queue_us` = stall time).
    Stall,
    /// One backend sampling call (`detail` = batch size or attempt).
    Sampling,
    /// One hop of frontier expansion (`detail` = hop index).
    SampleHop,
    /// A hot-set cache consult that served hits, short-circuiting remote
    /// legs (`detail` = nodes served from cache; `service_us` covers the
    /// consult-and-copy, the time that *replaces* the skipped legs).
    CacheHit,
    /// One remote neighbor fetch leg (`shard` = partition).
    RemoteLeg,
    /// A failed attempt in the retry ladder (`detail` = attempt,
    /// `queue_us` = backoff slept after it).
    Retry,
    /// A hedged re-dispatch.
    Hedge,
    /// An open circuit breaker short-circuited the request.
    BreakerTrip,
    /// The degraded fallback answered after the ladder ran out.
    Fallback,
    /// An injected fault was observed (`detail` = [`faults`] code).
    Fault,
    /// One request's coalesced attribute gather (`queue_us` = the wait
    /// for its sample reply, `service_us` = the fetch, `detail` =
    /// distinct rows fetched).
    Gather,
    /// One remote attribute-fetch leg (`shard` = partition).
    GatherLeg,
    /// One GraphSAGE layer forward (`detail` = layer index; no queue
    /// time: the worker that gathered the rows computes on them).
    ComputeLayer,
    /// Sampling finished (`service_us` = submit→reply latency,
    /// `detail` bit 0 = degraded).
    SampleDone,
    /// The request finished end-to-end (`service_us` = total latency,
    /// `detail` bit 0 = degraded, bit 1 = deadline breach).
    Done,
}

impl Stage {
    /// Every stage, in causal-rank order.
    pub const ALL: [Stage; 20] = [
        Stage::Enqueue,
        Stage::Admission,
        Stage::Reject,
        Stage::Shed,
        Stage::Brownout,
        Stage::Stall,
        Stage::Sampling,
        Stage::SampleHop,
        Stage::CacheHit,
        Stage::RemoteLeg,
        Stage::Retry,
        Stage::Hedge,
        Stage::BreakerTrip,
        Stage::Fallback,
        Stage::Fault,
        Stage::Gather,
        Stage::GatherLeg,
        Stage::ComputeLayer,
        Stage::SampleDone,
        Stage::Done,
    ];

    /// Stable display name (the blame table's row key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enqueue => "enqueue",
            Stage::Admission => "admission",
            Stage::Reject => "reject",
            Stage::Shed => "shed",
            Stage::Brownout => "brownout",
            Stage::Stall => "stall",
            Stage::Sampling => "sampling",
            Stage::SampleHop => "sample_hop",
            Stage::CacheHit => "cache_hit",
            Stage::RemoteLeg => "remote_leg",
            Stage::Retry => "retry",
            Stage::Hedge => "hedge",
            Stage::BreakerTrip => "breaker_trip",
            Stage::Fallback => "fallback",
            Stage::Fault => "fault",
            Stage::Gather => "gather",
            Stage::GatherLeg => "gather_leg",
            Stage::ComputeLayer => "compute_layer",
            Stage::SampleDone => "sample_done",
            Stage::Done => "done",
        }
    }

    /// Position in the canonical pipeline order ([`Stage::ALL`]) — the
    /// tie-break the snapshot's deterministic event sort uses.
    pub fn rank(self) -> u8 {
        Stage::ALL.iter().position(|&s| s == self).unwrap_or(0) as u8
    }
}

/// Fault-layer codes carried in [`Stage::Fault`] events' `detail`, so
/// the blame report can name the injected fault layer.
pub mod faults {
    /// A dispatch attempt was dropped (the MoF-loss analogue).
    pub const REQUEST_LOSS: u64 = 1;
    /// A card/partition was down when the request needed it.
    pub const CARD_DOWN: u64 = 2;
    /// A straggling card delayed the attempt.
    pub const STRAGGLER: u64 = 3;
    /// The worker's queue was stalled before dispatch.
    pub const QUEUE_STALL: u64 = 4;
    /// The worker shard was scheduled to panic.
    pub const WORKER_PANIC: u64 = 5;

    /// Display name of a fault code.
    pub fn name(code: u64) -> &'static str {
        match code {
            REQUEST_LOSS => "request_loss",
            CARD_DOWN => "card_down",
            STRAGGLER => "straggler",
            QUEUE_STALL => "queue_stall",
            WORKER_PANIC => "worker_panic",
            _ => "unknown",
        }
    }
}

/// One causally-linked span event of a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEvent {
    /// The request's trace id (assigned at submission, never 0).
    pub trace: u64,
    /// Timestamp in microseconds since the ledger's epoch.
    pub at_us: f64,
    /// Which stage of the pipeline this event describes.
    pub stage: Stage,
    /// Shard / partition / worker context, or [`NO_SHARD`].
    pub shard: u32,
    /// Time spent *waiting* (queue, backoff, stall) in microseconds.
    pub queue_us: f64,
    /// Time spent *being served* in microseconds.
    pub service_us: f64,
    /// Stage-specific payload (hop, layer, attempt, batch size, fault
    /// code, or the degraded/breach bits of a completion event).
    pub detail: u64,
}

impl LedgerEvent {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("trace".to_string(), Json::Num(self.trace as f64)),
            ("at_us".to_string(), Json::Num(self.at_us)),
            (
                "stage".to_string(),
                Json::Str(self.stage.name().to_string()),
            ),
            (
                "shard".to_string(),
                Json::Num(if self.shard == NO_SHARD {
                    -1.0
                } else {
                    self.shard as f64
                }),
            ),
            ("queue_us".to_string(), Json::Num(self.queue_us)),
            ("service_us".to_string(), Json::Num(self.service_us)),
            ("detail".to_string(), Json::Num(self.detail as f64)),
        ])
    }
}

/// Sizing and trigger policy of a [`RequestLedger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerConfig {
    /// Bounded ring capacity of the shared event store; the oldest
    /// events evict first when full (flight-recorder semantics).
    pub capacity: usize,
    /// Last-N events captured into a [`FlightDump`].
    pub flight_tail: usize,
    /// Most dumps retained (later triggers only count).
    pub flight_capacity: usize,
    /// Per-request deadline in microseconds; a finish above it triggers
    /// a flight dump even when the reply was exact.
    pub deadline_us: f64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            capacity: 1 << 16,
            flight_tail: 32,
            flight_capacity: 16,
            deadline_us: f64::INFINITY,
        }
    }
}

/// Why a [`FlightDump`] was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpReason {
    /// The request finished with a degraded (partial) answer.
    Degraded,
    /// The request's end-to-end latency exceeded the deadline.
    DeadlineBreach,
}

impl DumpReason {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            DumpReason::Degraded => "degraded",
            DumpReason::DeadlineBreach => "deadline_breach",
        }
    }
}

/// The last-N structured events of a request that finished degraded or
/// breached its deadline, correlated with the chaos seed that was
/// active — the tuple `(seed, request seed)` replays the tail sample
/// byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The finishing request's trace id.
    pub trace: u64,
    /// What triggered the dump.
    pub reason: DumpReason,
    /// End-to-end latency at finish, microseconds.
    pub total_us: f64,
    /// The reply was degraded.
    pub degraded: bool,
    /// The active [`FaultPlan`](https://docs.rs) seed, when chaos was on.
    pub chaos_seed: Option<u64>,
    /// The active fault plan's digest (replay identity check).
    pub plan_digest: Option<u64>,
    /// The request's last events still in the ring, oldest first.
    pub events: Vec<LedgerEvent>,
}

impl FlightDump {
    /// Renders the dump for the artifact.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| match v {
            Some(x) => Json::Str(format!("{x:#018x}")),
            None => Json::Bool(false),
        };
        Json::Obj(vec![
            ("trace".to_string(), Json::Num(self.trace as f64)),
            (
                "reason".to_string(),
                Json::Str(self.reason.name().to_string()),
            ),
            ("total_us".to_string(), Json::Num(self.total_us)),
            ("degraded".to_string(), Json::Bool(self.degraded)),
            ("chaos_seed".to_string(), opt(self.chaos_seed)),
            ("plan_digest".to_string(), opt(self.plan_digest)),
            (
                "events".to_string(),
                Json::Arr(self.events.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

#[derive(Debug, Default)]
struct Store {
    events: VecDeque<LedgerEvent>,
    evicted: u64,
    dumps: Vec<FlightDump>,
    dumps_suppressed: u64,
    finished: u64,
    degraded_finishes: u64,
    deadline_breaches: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_trace: AtomicU64,
    cfg: LedgerConfig,
    store: Mutex<Store>,
    /// `(chaos seed, plan digest)` for flight-dump correlation.
    chaos: Mutex<Option<(u64, u64)>>,
}

/// The shared, cloneable request ledger. Cheap to clone (an `Arc`);
/// every recording thread takes a private [`LedgerHandle`] and flushes
/// at stage boundaries.
#[derive(Debug, Clone)]
pub struct RequestLedger {
    inner: Arc<Inner>,
}

impl Default for RequestLedger {
    fn default() -> Self {
        RequestLedger::new(LedgerConfig::default())
    }
}

impl RequestLedger {
    /// Creates a ledger with the given sizing/trigger policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(cfg: LedgerConfig) -> Self {
        assert!(cfg.capacity > 0, "ledger capacity must be non-zero");
        RequestLedger {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_trace: AtomicU64::new(1),
                cfg,
                store: Mutex::new(Store::default()),
                chaos: Mutex::new(None),
            }),
        }
    }

    /// Assigns the next trace id (monotonic, never 0 — 0 means
    /// "untraced" throughout the serving stack).
    pub fn next_trace(&self) -> u64 {
        self.inner.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since this ledger's epoch.
    pub fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// The configured policy.
    pub fn config(&self) -> LedgerConfig {
        self.inner.cfg
    }

    /// Correlates subsequent flight dumps with an active fault plan:
    /// `seed` is the replay identity, `plan_digest` the integrity check.
    pub fn set_chaos(&self, seed: u64, plan_digest: u64) {
        *self.inner.chaos.lock().expect("chaos lock") = Some((seed, plan_digest));
    }

    /// The chaos correlation, if one was installed.
    pub fn chaos(&self) -> Option<(u64, u64)> {
        *self.inner.chaos.lock().expect("chaos lock")
    }

    /// A private per-thread event buffer; flush at stage boundaries.
    pub fn handle(&self) -> LedgerHandle {
        LedgerHandle {
            ledger: self.clone(),
            buf: Vec::new(),
        }
    }

    /// Events evicted from the bounded ring so far.
    pub fn evicted(&self) -> u64 {
        self.store().evicted
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.inner.store.lock().expect("ledger store lock")
    }

    fn absorb(&self, buf: &mut Vec<LedgerEvent>) {
        if buf.is_empty() {
            return;
        }
        let cap = self.inner.cfg.capacity;
        let mut s = self.store();
        for ev in buf.drain(..) {
            if s.events.len() >= cap {
                s.events.pop_front();
                s.evicted += 1;
            }
            s.events.push_back(ev);
        }
    }

    /// Registers a request's completion: counts it, and when the reply
    /// was degraded or the latency breached the configured deadline,
    /// captures a [`FlightDump`] of the trace's last events together
    /// with the active chaos correlation.
    ///
    /// The caller must flush the trace's events (a
    /// [`LedgerHandle::finish`] does both) before calling this.
    pub fn finish(&self, trace: u64, total_us: f64, degraded: bool) {
        let breach = total_us > self.inner.cfg.deadline_us;
        let chaos = self.chaos();
        let mut s = self.store();
        s.finished += 1;
        if degraded {
            s.degraded_finishes += 1;
        }
        if breach {
            s.deadline_breaches += 1;
        }
        if !(degraded || breach) {
            return;
        }
        if s.dumps.len() >= self.inner.cfg.flight_capacity {
            s.dumps_suppressed += 1;
            return;
        }
        let tail = self.inner.cfg.flight_tail;
        let mut events: Vec<LedgerEvent> = s
            .events
            .iter()
            .filter(|e| e.trace == trace)
            .copied()
            .collect();
        if events.len() > tail {
            events.drain(..events.len() - tail);
        }
        s.dumps.push(FlightDump {
            trace,
            reason: if degraded {
                DumpReason::Degraded
            } else {
                DumpReason::DeadlineBreach
            },
            total_us,
            degraded,
            chaos_seed: chaos.map(|(s, _)| s),
            plan_digest: chaos.map(|(_, d)| d),
            events,
        });
    }

    /// A canonically-ordered, self-contained copy of everything recorded
    /// so far. Ordering is (trace, timestamp, stage rank, shard, detail)
    /// — independent of which thread flushed first, so equal event sets
    /// snapshot byte-identically.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let chaos = self.chaos();
        let s = self.store();
        let mut events: Vec<LedgerEvent> = s.events.iter().copied().collect();
        drop_sorted(&mut events);
        LedgerSnapshot {
            events,
            dumps: s.dumps.clone(),
            evicted: s.evicted,
            finished: s.finished,
            degraded_finishes: s.degraded_finishes,
            deadline_breaches: s.deadline_breaches,
            dumps_suppressed: s.dumps_suppressed,
            chaos,
        }
    }
}

fn drop_sorted(events: &mut [LedgerEvent]) {
    events.sort_by(|a, b| {
        a.trace
            .cmp(&b.trace)
            .then(a.at_us.total_cmp(&b.at_us))
            .then(a.stage.rank().cmp(&b.stage.rank()))
            .then(a.shard.cmp(&b.shard))
            .then(a.detail.cmp(&b.detail))
            .then(a.queue_us.total_cmp(&b.queue_us))
            .then(a.service_us.total_cmp(&b.service_us))
    });
}

/// A thread-private event buffer over a [`RequestLedger`]. Recording is
/// one `Vec` push; the shared store is only touched on
/// [`LedgerHandle::flush`] (call it at batch/stage boundaries) or drop.
#[derive(Debug)]
pub struct LedgerHandle {
    ledger: RequestLedger,
    buf: Vec<LedgerEvent>,
}

impl LedgerHandle {
    /// Records an event stamped with the current ledger clock.
    pub fn record(
        &mut self,
        trace: u64,
        stage: Stage,
        shard: u32,
        queue_us: f64,
        service_us: f64,
        detail: u64,
    ) {
        let at_us = self.ledger.now_us();
        self.record_at(at_us, trace, stage, shard, queue_us, service_us, detail);
    }

    /// Records an event with an explicit timestamp (deterministic
    /// replay/merge tests use synthetic clocks).
    #[allow(clippy::too_many_arguments)]
    pub fn record_at(
        &mut self,
        at_us: f64,
        trace: u64,
        stage: Stage,
        shard: u32,
        queue_us: f64,
        service_us: f64,
        detail: u64,
    ) {
        self.buf.push(LedgerEvent {
            trace,
            at_us,
            stage,
            shard,
            queue_us,
            service_us,
            detail,
        });
    }

    /// Merges the buffered events into the shared ring.
    pub fn flush(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        self.ledger.absorb(&mut buf);
        self.buf = buf;
    }

    /// Records the terminal [`Stage::Done`] event, flushes, and runs the
    /// ledger's finish triggers (flight dump on degraded/breach).
    pub fn finish(&mut self, trace: u64, total_us: f64, degraded: bool) {
        let breach = total_us > self.ledger.config().deadline_us;
        let detail = u64::from(degraded) | (u64::from(breach) << 1);
        self.record(trace, Stage::Done, NO_SHARD, 0.0, total_us, detail);
        self.flush();
        self.ledger.finish(trace, total_us, degraded);
    }

    /// The ledger this handle feeds.
    pub fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }
}

impl Drop for LedgerHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A canonically-ordered copy of a ledger's state.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSnapshot {
    /// All retained events, in (trace, time, stage) order.
    pub events: Vec<LedgerEvent>,
    /// Captured flight dumps, oldest first.
    pub dumps: Vec<FlightDump>,
    /// Ring evictions (events lost to the bound).
    pub evicted: u64,
    /// Requests that ran their finish trigger.
    pub finished: u64,
    /// Finishes with a degraded reply.
    pub degraded_finishes: u64,
    /// Finishes over the configured deadline.
    pub deadline_breaches: u64,
    /// Dump triggers suppressed by the dump capacity.
    pub dumps_suppressed: u64,
    /// The chaos correlation active at snapshot time.
    pub chaos: Option<(u64, u64)>,
}

impl LedgerSnapshot {
    /// FNV-1a over the canonical event encoding: equal event sets —
    /// however they were interleaved or fanned out — digest equal.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.events.len() * 41);
        for e in &self.events {
            bytes.extend_from_slice(&e.trace.to_le_bytes());
            bytes.push(e.stage.rank());
            bytes.extend_from_slice(&e.shard.to_le_bytes());
            bytes.extend_from_slice(&e.at_us.to_bits().to_le_bytes());
            bytes.extend_from_slice(&e.queue_us.to_bits().to_le_bytes());
            bytes.extend_from_slice(&e.service_us.to_bits().to_le_bytes());
            bytes.extend_from_slice(&e.detail.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// The events of one trace, in causal order.
    pub fn events_for(&self, trace: u64) -> Vec<LedgerEvent> {
        self.events
            .iter()
            .filter(|e| e.trace == trace)
            .copied()
            .collect()
    }

    /// Builds the tail-attribution report: every request whose
    /// end-to-end latency is at or above the `quantile` of all finished
    /// requests — plus every degraded request — has its recorded stage
    /// time decomposed into per-stage / per-shard / per-fault blame.
    ///
    /// End-to-end totals come from [`Stage::Done`] events, falling back
    /// to [`Stage::SampleDone`] for sampling-only services.
    pub fn blame(&self, quantile: f64) -> BlameReport {
        let q = quantile.clamp(0.0, 1.0);
        let done: Vec<&LedgerEvent> = {
            let e2e: Vec<&LedgerEvent> = self
                .events
                .iter()
                .filter(|e| e.stage == Stage::Done)
                .collect();
            if e2e.is_empty() {
                self.events
                    .iter()
                    .filter(|e| e.stage == Stage::SampleDone)
                    .collect()
            } else {
                e2e
            }
        };
        let mut totals: Vec<f64> = done.iter().map(|e| e.service_us).collect();
        totals.sort_by(f64::total_cmp);
        let threshold_us = if totals.is_empty() {
            0.0
        } else {
            let idx = ((totals.len() as f64 * q).ceil() as usize)
                .saturating_sub(1)
                .min(totals.len() - 1);
            totals[idx]
        };
        let mut tail: Vec<u64> = Vec::new();
        let mut degraded_traces = 0u64;
        for e in &done {
            let degraded = e.detail & 1 != 0;
            if degraded {
                degraded_traces += 1;
            }
            if (e.service_us >= threshold_us || degraded) && !tail.contains(&e.trace) {
                tail.push(e.trace);
            }
        }
        let in_tail = |t: u64| tail.contains(&t);

        let mut stages: Vec<StageBlame> = Vec::new();
        let mut shards: Vec<ShardBlame> = Vec::new();
        let mut fault_counts: Vec<FaultBlame> = Vec::new();
        for e in &self.events {
            if !in_tail(e.trace) {
                continue;
            }
            if matches!(e.stage, Stage::Done | Stage::SampleDone) {
                continue;
            }
            match stages.iter_mut().find(|s| s.stage == e.stage) {
                Some(s) => {
                    s.queue_us += e.queue_us;
                    s.service_us += e.service_us;
                    s.events += 1;
                }
                None => stages.push(StageBlame {
                    stage: e.stage,
                    queue_us: e.queue_us,
                    service_us: e.service_us,
                    events: 1,
                    share: 0.0,
                }),
            }
            if e.shard != NO_SHARD {
                let us = e.queue_us + e.service_us;
                match shards.iter_mut().find(|s| s.shard == e.shard) {
                    Some(s) => {
                        s.blame_us += us;
                        s.events += 1;
                    }
                    None => shards.push(ShardBlame {
                        shard: e.shard,
                        blame_us: us,
                        events: 1,
                    }),
                }
            }
            if e.stage == Stage::Fault {
                match fault_counts.iter_mut().find(|f| f.code == e.detail) {
                    Some(f) => f.count += 1,
                    None => fault_counts.push(FaultBlame {
                        code: e.detail,
                        count: 1,
                    }),
                }
            }
        }
        let total_blame: f64 = stages.iter().map(|s| s.queue_us + s.service_us).sum();
        for s in &mut stages {
            s.share = if total_blame > 0.0 {
                (s.queue_us + s.service_us) / total_blame
            } else {
                0.0
            };
        }
        stages.sort_by(|a, b| {
            (b.queue_us + b.service_us)
                .total_cmp(&(a.queue_us + a.service_us))
                .then(a.stage.rank().cmp(&b.stage.rank()))
        });
        shards.sort_by(|a, b| {
            b.blame_us
                .total_cmp(&a.blame_us)
                .then(a.shard.cmp(&b.shard))
        });
        fault_counts.sort_by(|a, b| b.count.cmp(&a.count).then(a.code.cmp(&b.code)));

        BlameReport {
            quantile: q,
            threshold_us,
            traces: done.len() as u64,
            tail_traces: tail.len() as u64,
            degraded_traces,
            stages,
            shards,
            faults: fault_counts,
        }
    }
}

/// One stage's share of the tail's recorded time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBlame {
    /// Which stage.
    pub stage: Stage,
    /// Queue-wait microseconds attributed to the tail.
    pub queue_us: f64,
    /// Service-time microseconds attributed to the tail.
    pub service_us: f64,
    /// Events aggregated.
    pub events: u64,
    /// Fraction of all attributed time this stage carries.
    pub share: f64,
}

/// One shard's share of the tail's recorded time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBlame {
    /// Which shard/partition.
    pub shard: u32,
    /// Microseconds (queue + service) attributed to it.
    pub blame_us: f64,
    /// Events aggregated.
    pub events: u64,
}

/// Tally of one injected-fault layer across the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBlame {
    /// The [`faults`] code.
    pub code: u64,
    /// Fault events observed in tail traces.
    pub count: u64,
}

/// The tail-attribution report: per-stage / per-shard / per-fault
/// decomposition of the latency tail (plus all degraded requests).
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// The quantile the tail was cut at.
    pub quantile: f64,
    /// Latency threshold (µs) of the cut.
    pub threshold_us: f64,
    /// Finished requests considered.
    pub traces: u64,
    /// Requests in the tail (above threshold, or degraded).
    pub tail_traces: u64,
    /// Degraded requests among them.
    pub degraded_traces: u64,
    /// Per-stage blame, most-blamed first.
    pub stages: Vec<StageBlame>,
    /// Per-shard blame, most-blamed first.
    pub shards: Vec<ShardBlame>,
    /// Injected-fault tallies, most frequent first.
    pub faults: Vec<FaultBlame>,
}

impl BlameReport {
    /// The most-blamed stage's name, if any time was attributed.
    pub fn top_stage(&self) -> Option<&'static str> {
        self.stages.first().map(|s| s.stage.name())
    }

    /// The most-blamed shard, if any sharded time was attributed.
    pub fn top_shard(&self) -> Option<u32> {
        self.shards.first().map(|s| s.shard)
    }

    /// The most frequent injected-fault layer across the tail, if any
    /// fault events were recorded — the "who did it" answer for an
    /// injected fault.
    pub fn top_fault(&self) -> Option<&'static str> {
        self.faults.first().map(|f| faults::name(f.code))
    }

    /// Renders the report for the artifact.
    pub fn to_json(&self) -> Json {
        let opt_str = |v: Option<&'static str>| match v {
            Some(s) => Json::Str(s.to_string()),
            None => Json::Bool(false),
        };
        Json::Obj(vec![
            ("quantile".to_string(), Json::Num(self.quantile)),
            ("threshold_us".to_string(), Json::Num(self.threshold_us)),
            ("traces".to_string(), Json::Num(self.traces as f64)),
            (
                "tail_traces".to_string(),
                Json::Num(self.tail_traces as f64),
            ),
            (
                "degraded_traces".to_string(),
                Json::Num(self.degraded_traces as f64),
            ),
            ("top_stage".to_string(), opt_str(self.top_stage())),
            ("top_fault".to_string(), opt_str(self.top_fault())),
            (
                "top_shard".to_string(),
                match self.top_shard() {
                    Some(s) => Json::Num(s as f64),
                    None => Json::Bool(false),
                },
            ),
            (
                "stages".to_string(),
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("stage".to_string(), Json::Str(s.stage.name().to_string())),
                                ("queue_us".to_string(), Json::Num(s.queue_us)),
                                ("service_us".to_string(), Json::Num(s.service_us)),
                                ("events".to_string(), Json::Num(s.events as f64)),
                                ("share".to_string(), Json::Num(s.share)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shards".to_string(),
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("shard".to_string(), Json::Num(s.shard as f64)),
                                ("blame_us".to_string(), Json::Num(s.blame_us)),
                                ("events".to_string(), Json::Num(s.events as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "faults".to_string(),
                Json::Arr(
                    self.faults
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                (
                                    "fault".to_string(),
                                    Json::Str(faults::name(f.code).to_string()),
                                ),
                                ("count".to_string(), Json::Num(f.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl MetricSource for BlameReport {
    fn collect(&self, out: &mut Scope<'_>) {
        out.counter("traces", self.traces);
        out.counter("tail_traces", self.tail_traces);
        out.counter("degraded_traces", self.degraded_traces);
        out.gauge("threshold_us", self.threshold_us);
        for s in &self.stages {
            let mut nested = out.nested(s.stage.name());
            nested.gauge("queue_us", s.queue_us);
            nested.gauge("service_us", s.service_us);
            nested.gauge("share", s.share);
            nested.counter("events", s.events);
        }
        for f in &self.faults {
            let mut nested = out.nested("fault");
            nested.counter(faults::name(f.code), f.count);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Thread-local recording scope: deep layers (cluster data plane, chaos
// wrappers) record against whatever request(s) the serving layer
// installed, without threading a handle through every signature.
// ---------------------------------------------------------------------

struct ScopeState {
    handle: LedgerHandle,
    traces: Vec<u64>,
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// Guard of an active recording scope (see [`enter_scope`]); restores
/// the previous scope and flushes on drop.
pub struct ActiveScope {
    prev: Option<ScopeState>,
}

/// Installs a recording scope on this thread: until the guard drops,
/// [`scope_record`] appends events for every trace in `traces` (a
/// coalesced batch attributes shared work to each request in it).
pub fn enter_scope(ledger: &RequestLedger, traces: Vec<u64>) -> ActiveScope {
    let prev = SCOPE.with(|s| {
        s.borrow_mut().replace(ScopeState {
            handle: ledger.handle(),
            traces,
        })
    });
    ActiveScope { prev }
}

impl Drop for ActiveScope {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            let mut slot = s.borrow_mut();
            // The departing scope's handle flushes on drop here.
            *slot = self.prev.take();
        });
    }
}

/// Whether a recording scope is installed on this thread. Deep layers
/// gate their `Instant::now()` calls on this, so the disabled path pays
/// one thread-local read and nothing else.
pub fn scope_active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// Records one event for every trace of the active scope; a no-op
/// without a scope.
pub fn scope_record(stage: Stage, shard: u32, queue_us: f64, service_us: f64, detail: u64) {
    SCOPE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            let at_us = state.handle.ledger().now_us();
            for i in 0..state.traces.len() {
                let trace = state.traces[i];
                state
                    .handle
                    .record_at(at_us, trace, stage, shard, queue_us, service_us, detail);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, at: f64, stage: Stage) -> (u64, f64, Stage) {
        (trace, at, stage)
    }

    #[test]
    fn trace_ids_are_monotonic_and_nonzero() {
        let ledger = RequestLedger::default();
        let a = ledger.next_trace();
        let b = ledger.next_trace();
        assert!(a >= 1);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn snapshot_order_is_canonical_across_flush_interleavings() {
        let make = |order_swapped: bool| {
            let ledger = RequestLedger::default();
            let mut h1 = ledger.handle();
            let mut h2 = ledger.handle();
            for (t, at, st) in [
                ev(1, 10.0, Stage::Enqueue),
                ev(1, 20.0, Stage::Admission),
                ev(2, 15.0, Stage::Enqueue),
            ] {
                h1.record_at(at, t, st, NO_SHARD, 0.0, 0.0, 0);
            }
            for (t, at, st) in [ev(2, 25.0, Stage::Admission), ev(1, 30.0, Stage::Done)] {
                h2.record_at(at, t, st, NO_SHARD, 0.0, 0.0, 0);
            }
            if order_swapped {
                h2.flush();
                h1.flush();
            } else {
                h1.flush();
                h2.flush();
            }
            ledger.snapshot()
        };
        let a = make(false);
        let b = make(true);
        assert_eq!(a.events, b.events, "flush order must not matter");
        assert_eq!(a.digest(), b.digest());
        // Canonical order: trace-major, time-minor.
        let traces: Vec<u64> = a.events.iter().map(|e| e.trace).collect();
        assert_eq!(traces, vec![1, 1, 1, 2, 2]);
    }

    #[test]
    fn ring_evicts_oldest_first_and_counts() {
        let ledger = RequestLedger::new(LedgerConfig {
            capacity: 3,
            ..LedgerConfig::default()
        });
        let mut h = ledger.handle();
        for i in 0..5u64 {
            h.record_at(i as f64, i + 1, Stage::Enqueue, NO_SHARD, 0.0, 0.0, i);
        }
        h.flush();
        let snap = ledger.snapshot();
        assert_eq!(snap.events.len(), 3, "count never exceeds the cap");
        assert_eq!(snap.evicted, 2);
        let survivors: Vec<u64> = snap.events.iter().map(|e| e.trace).collect();
        assert_eq!(survivors, vec![3, 4, 5], "oldest events dropped first");
    }

    #[test]
    fn degraded_finish_captures_flight_dump_with_chaos_seed() {
        let ledger = RequestLedger::new(LedgerConfig {
            flight_tail: 2,
            ..LedgerConfig::default()
        });
        ledger.set_chaos(42, 0xdead_beef);
        let mut h = ledger.handle();
        for at in [1.0, 2.0, 3.0] {
            h.record_at(at, 7, Stage::SampleHop, 1, 0.0, 5.0, 0);
        }
        h.finish(7, 900.0, true);
        let snap = ledger.snapshot();
        assert_eq!(snap.degraded_finishes, 1);
        assert_eq!(snap.dumps.len(), 1);
        let dump = &snap.dumps[0];
        assert_eq!(dump.trace, 7);
        assert_eq!(dump.reason, DumpReason::Degraded);
        assert_eq!(dump.chaos_seed, Some(42));
        assert_eq!(dump.plan_digest, Some(0xdead_beef));
        // Last N only, oldest first, plus nothing from other traces.
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].at_us, 3.0);
        assert_eq!(dump.events[1].stage, Stage::Done);
        let rendered = dump.to_json().render();
        assert!(rendered.contains("\"chaos_seed\""));
    }

    #[test]
    fn deadline_breach_triggers_dump_without_degradation() {
        let ledger = RequestLedger::new(LedgerConfig {
            deadline_us: 100.0,
            ..LedgerConfig::default()
        });
        let mut h = ledger.handle();
        h.finish(1, 50.0, false); // under deadline: no dump
        h.finish(2, 500.0, false); // breach
        let snap = ledger.snapshot();
        assert_eq!(snap.finished, 2);
        assert_eq!(snap.deadline_breaches, 1);
        assert_eq!(snap.dumps.len(), 1);
        assert_eq!(snap.dumps[0].reason, DumpReason::DeadlineBreach);
        assert_eq!(snap.dumps[0].chaos_seed, None);
    }

    #[test]
    fn dump_capacity_suppresses_not_grows() {
        let ledger = RequestLedger::new(LedgerConfig {
            flight_capacity: 1,
            ..LedgerConfig::default()
        });
        let mut h = ledger.handle();
        h.finish(1, 10.0, true);
        h.finish(2, 10.0, true);
        let snap = ledger.snapshot();
        assert_eq!(snap.dumps.len(), 1);
        assert_eq!(snap.dumps_suppressed, 1);
        assert_eq!(snap.degraded_finishes, 2, "counting is never suppressed");
    }

    #[test]
    fn blame_report_attributes_the_dominant_stage_and_fault() {
        let ledger = RequestLedger::default();
        let mut h = ledger.handle();
        // Trace 1: fast and clean. Trace 2: slow, retry-dominated, with
        // an injected request-loss fault.
        h.record_at(1.0, 1, Stage::Admission, 0, 5.0, 0.0, 1);
        h.record_at(2.0, 1, Stage::Sampling, 0, 0.0, 10.0, 1);
        h.record_at(3.0, 1, Stage::Done, NO_SHARD, 0.0, 20.0, 0);
        h.record_at(1.0, 2, Stage::Admission, 0, 5.0, 0.0, 1);
        h.record_at(
            2.0,
            2,
            Stage::Fault,
            NO_SHARD,
            0.0,
            0.0,
            faults::REQUEST_LOSS,
        );
        h.record_at(3.0, 2, Stage::Retry, NO_SHARD, 400.0, 100.0, 1);
        h.record_at(4.0, 2, Stage::Sampling, 1, 0.0, 30.0, 1);
        h.record_at(5.0, 2, Stage::Done, NO_SHARD, 0.0, 600.0, 0);
        h.flush();
        let report = ledger.snapshot().blame(0.9);
        assert_eq!(report.traces, 2);
        assert_eq!(report.tail_traces, 1, "only the slow trace is tail");
        assert_eq!(report.top_stage(), Some("retry"));
        assert_eq!(report.top_fault(), Some("request_loss"));
        assert_eq!(report.top_shard(), Some(1));
        let total_share: f64 = report.stages.iter().map(|s| s.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        let rendered = report.to_json().render();
        assert!(rendered.contains("\"top_fault\":\"request_loss\""));
    }

    #[test]
    fn blame_includes_degraded_requests_below_the_threshold() {
        let ledger = RequestLedger::default();
        let mut h = ledger.handle();
        // The degraded request is the *fastest* — blame must still see it.
        h.record_at(1.0, 1, Stage::Fault, 1, 0.0, 0.0, faults::CARD_DOWN);
        h.record_at(2.0, 1, Stage::Fallback, NO_SHARD, 0.0, 5.0, 0);
        h.record_at(3.0, 1, Stage::Done, NO_SHARD, 0.0, 10.0, 1);
        for t in 2..=4u64 {
            h.record_at(1.0, t, Stage::Sampling, 0, 0.0, 50.0, 1);
            h.record_at(2.0, t, Stage::Done, NO_SHARD, 0.0, 100.0 + t as f64, 0);
        }
        h.flush();
        let report = ledger.snapshot().blame(0.99);
        assert_eq!(report.degraded_traces, 1);
        assert!(report.tail_traces >= 2, "tail = top quantile + degraded");
        assert_eq!(report.top_fault(), Some("card_down"));
    }

    #[test]
    fn blame_falls_back_to_sample_done_without_e2e_events() {
        let ledger = RequestLedger::default();
        let mut h = ledger.handle();
        h.record_at(1.0, 1, Stage::Sampling, 0, 0.0, 9.0, 1);
        h.record_at(2.0, 1, Stage::SampleDone, NO_SHARD, 0.0, 9.0, 0);
        h.flush();
        let report = ledger.snapshot().blame(0.5);
        assert_eq!(report.traces, 1);
        assert_eq!(report.top_stage(), Some("sampling"));
    }

    #[test]
    fn scope_records_replicate_to_every_batched_trace() {
        let ledger = RequestLedger::default();
        assert!(!scope_active());
        {
            let _scope = enter_scope(&ledger, vec![3, 4]);
            assert!(scope_active());
            scope_record(Stage::SampleHop, NO_SHARD, 0.0, 7.0, 0);
            scope_record(Stage::RemoteLeg, 1, 0.0, 3.0, 0);
        }
        assert!(!scope_active());
        scope_record(Stage::SampleHop, NO_SHARD, 0.0, 99.0, 0); // no-op
        let snap = ledger.snapshot();
        assert_eq!(snap.events.len(), 4, "2 events x 2 traces, no strays");
        assert_eq!(snap.events_for(3).len(), 2);
        assert_eq!(snap.events_for(4).len(), 2);
    }

    #[test]
    fn nested_scopes_restore_the_outer_scope() {
        let ledger = RequestLedger::default();
        let _outer = enter_scope(&ledger, vec![1]);
        {
            let _inner = enter_scope(&ledger, vec![2]);
            scope_record(Stage::Sampling, NO_SHARD, 0.0, 1.0, 0);
        }
        scope_record(Stage::Sampling, NO_SHARD, 0.0, 2.0, 0);
        drop(_outer);
        let snap = ledger.snapshot();
        assert_eq!(snap.events_for(2).len(), 1);
        assert_eq!(snap.events_for(1).len(), 1);
        assert_eq!(snap.events_for(1)[0].service_us, 2.0);
    }

    #[test]
    fn concurrent_handles_merge_to_one_canonical_snapshot() {
        let ledger = RequestLedger::default();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let ledger = ledger.clone();
                s.spawn(move || {
                    let mut h = ledger.handle();
                    for i in 0..16u64 {
                        let trace = w * 16 + i + 1;
                        h.record_at(i as f64, trace, Stage::Sampling, w as u32, 1.0, 2.0, i);
                    }
                });
            }
        });
        let snap = ledger.snapshot();
        assert_eq!(snap.events.len(), 64);
        // A second identical population digests identically.
        let ledger2 = RequestLedger::default();
        let mut h = ledger2.handle();
        for w in (0..4u64).rev() {
            for i in 0..16u64 {
                h.record_at(
                    i as f64,
                    w * 16 + i + 1,
                    Stage::Sampling,
                    w as u32,
                    1.0,
                    2.0,
                    i,
                );
            }
        }
        h.flush();
        assert_eq!(snap.digest(), ledger2.snapshot().digest());
    }

    #[test]
    fn handle_finish_records_done_and_flushes() {
        let ledger = RequestLedger::new(LedgerConfig {
            deadline_us: 100.0,
            ..LedgerConfig::default()
        });
        let mut h = ledger.handle();
        h.finish(5, 250.0, false);
        let snap = ledger.snapshot();
        let done = snap.events_for(5);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].stage, Stage::Done);
        assert_eq!(done[0].service_us, 250.0);
        assert_eq!(done[0].detail, 0b10, "breach bit set, degraded bit clear");
    }
}

//! Multi-tenant admission control and priority lanes: the overload
//! half of the robustness story (the chaos layer handles *faults*;
//! this module handles *too much load*).
//!
//! The paper's FaaS DSE sizes cards per archetype against a cost model
//! but assumes the offered load is what the provisioning planned for.
//! Under bursty open-loop traffic ([`crate::traffic`]) a fixed-capacity
//! [`SamplingService`] queues unboundedly and blows every SLO at once.
//! The [`ShapedService`] wrapper in this module puts three defenses in
//! front of the same service, each *strictly opt-in* — the unlimited
//! configuration forwards every request untouched and is digest-identical
//! to the unshaped service:
//!
//! 1. **Per-tenant token buckets** — a tenant that exceeds its contracted
//!    rate gets an explicit [`Verdict::Reject`] with a `retry_after_us`
//!    hint instead of silently queueing behind everyone else. The bucket
//!    is checked *first*, in virtual time supplied by the caller, so
//!    rate-limit decisions are a pure function of the arrival sequence —
//!    that is what the `admission_property` proptest pins as "bucket
//!    arithmetic".
//! 2. **Brownout load shedding** — driven by the sampling SLO's burn
//!    rate, which the service counts in its own stats
//!    ([`ServiceStats::burn_rate`], fed through
//!    [`AdmissionController::set_burn`]), observed or not:
//!    once the error budget burns faster than contracted, best-effort
//!    traffic is shed outright; burn harder and admitted requests are
//!    degraded to a reduced fanout (an approximate sample now beats an
//!    exact sample after the deadline — the same trade the
//!    service's degraded fallback makes under faults).
//! 3. **Bounded per-class queues with priority lanes** — admitted
//!    requests wait in one of three lanes (interactive / batch /
//!    best-effort) of the service's own queue, which its worker shards
//!    drain strictly in priority order at dispatch; a full lane is an
//!    explicit [`Verdict::Reject`] with [`RejectReason::QueueFull`],
//!    never a blocked submitter or unbounded memory.
//!
//! Every decision is recorded in the [`RequestLedger`] as a `Stage`
//! event (`reject` / `shed` / `brownout`), so blame reports name
//! *admission* — not just faults — when requests die at the front door.
//!
//! [`RequestLedger`]: lsdgnn_telemetry::RequestLedger

use crate::backend::{SampleRequest, SamplingBackend};
use crate::obs::Observability;
use crate::service::{SampleTicket, SamplingService, ServiceConfig, ServiceStats};
use lsdgnn_telemetry::ledger::{Stage, NO_SHARD};
use lsdgnn_telemetry::{MetricSource, Scope};
use std::time::Duration;

/// Request priority class, in descending order of importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// A user is waiting on the answer (recommendation, fraud check).
    Interactive,
    /// Deadline-tolerant bulk work (nightly embedding refresh).
    Batch,
    /// Opportunistic traffic: first to be shed under overload.
    BestEffort,
}

/// Number of priority classes (lane count).
pub const CLASSES: usize = 3;

impl Priority {
    /// All classes, highest priority first (lane drain order).
    pub const ALL: [Priority; CLASSES] =
        [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Stable lane index (0 = interactive).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best-effort",
        }
    }
}

/// Token-bucket parameters of one tenant's admission contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketConfig {
    /// Sustained admission rate (tokens refill at this rate).
    pub rate_per_sec: f64,
    /// Bucket depth: the burst admitted above the sustained rate.
    pub burst: f64,
}

impl BucketConfig {
    /// A bucket that never rejects (the no-shaping contract).
    pub fn unlimited() -> Self {
        BucketConfig {
            rate_per_sec: 1e15,
            burst: 1e15,
        }
    }
}

/// A classic token bucket in caller-supplied virtual time.
///
/// Public so tests can replay the exact arithmetic the controller runs:
/// the rejected count of a trace is `try_take` failures over the same
/// `(arrival time, config)` sequence — no float-drift between the
/// controller and its oracle.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    last_us: u64,
}

impl TokenBucket {
    /// A full bucket (a tenant starts with its whole burst allowance).
    pub fn new(cfg: &BucketConfig) -> Self {
        TokenBucket {
            tokens: cfg.burst,
            last_us: 0,
        }
    }

    /// Refills for the elapsed virtual time and takes one token, or
    /// reports how long (µs) until a token will be available. Time may
    /// arrive slightly out of order (concurrent submitters); refill is
    /// computed against the high-water mark so the decision sequence
    /// stays deterministic for a fixed arrival order.
    pub fn try_take(&mut self, cfg: &BucketConfig, now_us: u64) -> Result<(), u64> {
        let dt_s = now_us.saturating_sub(self.last_us) as f64 / 1e6;
        self.last_us = self.last_us.max(now_us);
        self.tokens = (self.tokens + dt_s * cfg.rate_per_sec).min(cfg.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if cfg.rate_per_sec > 0.0 {
            let wait_us = ((1.0 - self.tokens) / cfg.rate_per_sec * 1e6).ceil() as u64;
            Err(wait_us.max(1))
        } else {
            Err(u64::MAX)
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// One tenant's admission contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Tenant name (label in metrics and bench tables).
    pub name: String,
    /// The tenant's token bucket.
    pub bucket: BucketConfig,
}

/// Burn-rate-driven brownout: `Some(BrownoutConfig)` in
/// [`AdmissionConfig::brownout`] turns it on. How aggressively it sheds
/// as the SLO error budget burns is fixed by its three constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig;

impl BrownoutConfig {
    /// Burn rate at which best-effort traffic is shed (1.0 = burning
    /// exactly at budget).
    pub const SHED_BURN: f64 = 1.0;
    /// Burn rate at which admitted requests are additionally degraded
    /// to a reduced fanout.
    pub const DEGRADE_BURN: f64 = 2.0;
    /// Fanout divisor applied to brownout-degraded requests.
    pub const FANOUT_DIV: usize = 2;
}

/// Full admission policy: tenant contracts, lane bounds, brownout.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Per-tenant contracts; a request's `tenant` indexes this list.
    pub tenants: Vec<TenantConfig>,
    /// Per-class lane bounds (admitted-but-not-yet-dispatched requests).
    pub queue_bounds: [usize; CLASSES],
    /// Brownout policy; `None` disables burn-driven shedding.
    pub brownout: Option<BrownoutConfig>,
}

impl AdmissionConfig {
    /// The no-shaping policy: unlimited buckets, unbounded lanes, no
    /// brownout. A [`ShapedService`] with this config admits everything
    /// and is digest-identical to the unshaped service.
    pub fn unlimited(tenants: usize) -> Self {
        AdmissionConfig {
            tenants: (0..tenants)
                .map(|t| TenantConfig {
                    name: format!("tenant{t}"),
                    bucket: BucketConfig::unlimited(),
                })
                .collect(),
            queue_bounds: [usize::MAX; CLASSES],
            brownout: None,
        }
    }
}

/// Why a request was rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty.
    RateLimit,
    /// The priority class's lane is full.
    QueueFull,
}

impl RejectReason {
    /// Ledger `detail` code (matches the `Stage::Reject` docs).
    pub fn code(self) -> u64 {
        match self {
            RejectReason::RateLimit => 1,
            RejectReason::QueueFull => 2,
        }
    }

    /// Human-readable reason.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::RateLimit => "rate-limit",
            RejectReason::QueueFull => "queue-full",
        }
    }
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted into its class lane; `degrade_fanout` marks a brownout
    /// admit that should sample at reduced fanout.
    Admit { degrade_fanout: bool },
    /// Explicitly rejected — the client should retry after the hint.
    Reject {
        /// Why.
        reason: RejectReason,
        /// Earliest useful retry, µs from now (virtual time).
        retry_after_us: u64,
    },
    /// Dropped by brownout load shedding (no retry hint: the system is
    /// telling this class to go away until the budget recovers).
    Shed,
}

/// Per-class admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Requests admitted (including brownout-degraded admits).
    pub accepted: u64,
    /// Requests rejected (rate limit or full lane).
    pub rejected: u64,
    /// Requests dropped by brownout shedding.
    pub shed: u64,
    /// Admits degraded to reduced fanout by brownout.
    pub brownout: u64,
}

/// A snapshot of the controller's accounting, exportable as a
/// [`MetricSource`]: `admission_{accepted,rejected,shed,brownout}`
/// per tenant per class, plus global reject-reason and lane-occupancy
/// counters.
#[derive(Debug, Clone, Default)]
pub struct AdmissionStats {
    /// Per-tenant, per-class counters (tenant order = config order).
    pub tenants: Vec<(String, [ClassCounters; CLASSES])>,
    /// Rejections whose reason was an empty token bucket.
    pub rate_limited: u64,
    /// Rejections whose reason was a full lane.
    pub queue_full: u64,
    /// High-water lane occupancy per class.
    pub max_queue: [u64; CLASSES],
    /// Configured lane bounds (for bound-respected assertions).
    pub queue_bounds: [usize; CLASSES],
}

impl AdmissionStats {
    /// Sums one counter kind across tenants for a class.
    fn class_total(&self, class: Priority, pick: fn(&ClassCounters) -> u64) -> u64 {
        self.tenants
            .iter()
            .map(|(_, c)| pick(&c[class.index()]))
            .sum()
    }

    /// Total admitted across tenants for a class.
    pub fn accepted(&self, class: Priority) -> u64 {
        self.class_total(class, |c| c.accepted)
    }

    /// Total rejected across tenants for a class.
    pub fn rejected(&self, class: Priority) -> u64 {
        self.class_total(class, |c| c.rejected)
    }

    /// Total shed across tenants for a class.
    pub fn shed(&self, class: Priority) -> u64 {
        self.class_total(class, |c| c.shed)
    }

    /// Total brownout-degraded admits across tenants for a class.
    pub fn brownout(&self, class: Priority) -> u64 {
        self.class_total(class, |c| c.brownout)
    }

    /// True when no lane's high-water mark ever exceeded its bound.
    pub fn bounds_respected(&self) -> bool {
        self.max_queue
            .iter()
            .zip(self.queue_bounds)
            .all(|(&hw, bound)| hw as usize <= bound)
    }
}

impl MetricSource for AdmissionStats {
    fn collect(&self, out: &mut Scope<'_>) {
        out.counter("admission_rate_limited", self.rate_limited);
        out.counter("admission_queue_full", self.queue_full);
        for class in Priority::ALL {
            out.gauge(
                &format!("lane_max_depth_{}", class.name()),
                self.max_queue[class.index()] as f64,
            );
        }
        for (tenant, classes) in &self.tenants {
            let mut t = out.nested(tenant);
            for class in Priority::ALL {
                let c = &classes[class.index()];
                let mut s = t.nested(class.name());
                s.counter("admission_accepted", c.accepted);
                s.counter("admission_rejected", c.rejected);
                s.counter("admission_shed", c.shed);
                s.counter("admission_brownout", c.brownout);
            }
        }
    }
}

/// The decision core: token buckets + brownout level + lane bounds.
///
/// Deliberately *pure* — virtual time comes from the caller, the SLO
/// burn rate is fed via [`AdmissionController::set_burn`], and no clock
/// or lock is touched inside. [`ShapedService`] drives it with wall-or-
/// trace time and the burn rate of its service's stats
/// ([`ServiceStats::burn_rate`]); the `faas` autoscaler drives the same
/// type with simulated time and a simulated burn rate.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    buckets: Vec<TokenBucket>,
    queue_len: [usize; CLASSES],
    burn: f64,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// Builds the controller from a policy.
    ///
    /// # Panics
    ///
    /// Panics if the config names no tenants.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(
            !cfg.tenants.is_empty(),
            "admission needs at least one tenant"
        );
        let buckets = cfg
            .tenants
            .iter()
            .map(|t| TokenBucket::new(&t.bucket))
            .collect();
        let stats = AdmissionStats {
            tenants: cfg
                .tenants
                .iter()
                .map(|t| (t.name.clone(), [ClassCounters::default(); CLASSES]))
                .collect(),
            queue_bounds: cfg.queue_bounds,
            ..AdmissionStats::default()
        };
        AdmissionController {
            cfg,
            buckets,
            queue_len: [0; CLASSES],
            burn: 0.0,
            stats,
        }
    }

    /// Feeds the current SLO burn rate (violation rate / budget); the
    /// brownout ladder reads this on every decision.
    pub fn set_burn(&mut self, burn: f64) {
        self.burn = burn;
    }

    /// Current brownout level: 0 = none, 1 = shed best-effort,
    /// 2 = also degrade admitted fanout.
    pub fn brownout_level(&self) -> u8 {
        if self.cfg.brownout.is_none() {
            0
        } else if self.burn >= BrownoutConfig::DEGRADE_BURN {
            2
        } else if self.burn >= BrownoutConfig::SHED_BURN {
            1
        } else {
            0
        }
    }

    /// Decides one request's fate. Order matters and is part of the
    /// contract: (1) token bucket — so rate-limit verdicts are a pure
    /// function of the tenant's arrival times; (2) brownout shedding;
    /// (3) lane bound. Exactly one counter is bumped per call.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn decide(&mut self, tenant: usize, class: Priority, now_us: u64) -> Verdict {
        let bucket_cfg = self.cfg.tenants[tenant].bucket;
        let bucket = self.buckets[tenant].try_take(&bucket_cfg, now_us);
        let level = self.brownout_level();
        let lane = class.index();
        if let Err(retry_after_us) = bucket {
            self.stats.tenants[tenant].1[lane].rejected += 1;
            self.stats.rate_limited += 1;
            return Verdict::Reject {
                reason: RejectReason::RateLimit,
                retry_after_us,
            };
        }
        if level >= 1 && class == Priority::BestEffort {
            self.stats.tenants[tenant].1[lane].shed += 1;
            return Verdict::Shed;
        }
        if self.queue_len[lane] >= self.cfg.queue_bounds[lane] {
            self.stats.tenants[tenant].1[lane].rejected += 1;
            self.stats.queue_full += 1;
            // A full lane clears at the service rate; the bucket refill
            // interval is the natural pacing hint we have on hand.
            let retry_after_us = if bucket_cfg.rate_per_sec > 0.0 {
                ((1.0 / bucket_cfg.rate_per_sec) * 1e6).ceil() as u64
            } else {
                1_000
            };
            return Verdict::Reject {
                reason: RejectReason::QueueFull,
                retry_after_us: retry_after_us.max(1),
            };
        }
        self.queue_len[lane] += 1;
        self.stats.max_queue[lane] = self.stats.max_queue[lane].max(self.queue_len[lane] as u64);
        let counters = &mut self.stats.tenants[tenant].1[lane];
        counters.accepted += 1;
        let degrade_fanout = level >= 2;
        if degrade_fanout {
            counters.brownout += 1;
        }
        Verdict::Admit { degrade_fanout }
    }

    /// A request left its lane (a worker shard took it for dispatch).
    pub fn dequeued(&mut self, class: Priority) {
        let lane = class.index();
        debug_assert!(self.queue_len[lane] > 0, "dequeue from an empty lane");
        self.queue_len[lane] = self.queue_len[lane].saturating_sub(1);
    }

    /// Current lane occupancy.
    pub fn queue_len(&self, class: Priority) -> usize {
        self.queue_len[class.index()]
    }

    /// The policy this controller enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Snapshot of the accounting.
    pub fn stats(&self) -> AdmissionStats {
        self.stats.clone()
    }
}

/// A request as the shaped front door sees it: payload + tenancy +
/// class + deadline.
#[derive(Debug, Clone)]
pub struct ShapedRequest {
    /// The sampling payload.
    pub req: SampleRequest,
    /// Index into [`AdmissionConfig::tenants`].
    pub tenant: usize,
    /// Priority class (lane).
    pub class: Priority,
    /// Relative deadline from submission. Accepted, no effect; deleted
    /// with ROADMAP item 2(b) once `benchmark/` stops naming it.
    pub deadline: Duration,
}

/// What [`ShapedService::submit`] hands back: exactly one terminal
/// outcome per submission (the proptest's conservation law).
#[derive(Debug)]
pub enum SubmitVerdict {
    /// Admitted: wait on the ticket for the (possibly degraded) reply.
    Admitted(SampleTicket),
    /// Rejected with an explicit retry hint — nothing was queued.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Earliest useful retry, µs.
        retry_after_us: u64,
    },
    /// Dropped by brownout shedding — nothing was queued.
    Shed,
}

/// [`SamplingService`] behind admission control and priority lanes.
///
/// [`ShapedService::submit`] asks the [`AdmissionController`] and puts an
/// admitted job straight into its class lane of the service's own queue,
/// which the worker shards drain strictly interactive → batch →
/// best-effort at dispatch, so under overload the wait lands on the
/// lowest class first. The lanes are unbounded channels; their bounds
/// are the controller's (a job counts until a shard takes it), so a full
/// lane refuses rather than blocks. Every admission decision is both
/// counted and — with observability installed — recorded in the
/// request ledger.
pub struct ShapedService {
    inner: SamplingService,
    /// Length of the policy's tenant list, checked before the lock is
    /// taken so a bad index never panics inside it.
    tenants: usize,
    /// Whether the policy has brownout on: only then does admission read
    /// the sampling SLO's burn rate from the service's stats.
    brownout: bool,
}

impl std::fmt::Debug for ShapedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapedService")
            .field("config", &self.inner.config())
            .finish()
    }
}

impl ShapedService {
    /// Starts the service behind its admission controller.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized service config or an empty tenant list.
    pub fn start(
        backend: Box<dyn SamplingBackend>,
        config: ServiceConfig,
        admission: AdmissionConfig,
        obs: Option<Observability>,
    ) -> Self {
        let tenants = admission.tenants.len();
        let brownout = admission.brownout.is_some();
        let ctrl = AdmissionController::new(admission);
        ShapedService {
            inner: SamplingService::start_with(backend, config, None, None, obs, Some(ctrl)),
            tenants,
            brownout,
        }
    }

    /// Submits one request through admission at virtual time `now_us`
    /// (callers replaying a trace pass the arrival timestamp; wall-clock
    /// callers pass any monotonic µs reading). Returns exactly one
    /// terminal verdict; only `Admitted` occupies any queue.
    ///
    /// # Panics
    ///
    /// Panics if `sr.req.fanout` is zero, a root is outside the
    /// backend's node range or `sr.tenant` is outside the tenant list.
    pub fn submit(&self, sr: ShapedRequest, now_us: u64) -> SubmitVerdict {
        sr.req.assert_well_formed(self.inner.backend().num_nodes());
        assert!(
            sr.tenant < self.tenants,
            "tenant {} of {}",
            sr.tenant,
            self.tenants
        );
        let burn = if self.brownout {
            self.inner.burn_rate()
        } else {
            0.0
        };
        let verdict = {
            let mut ctrl = self.inner.admission();
            ctrl.set_burn(burn);
            ctrl.decide(sr.tenant, sr.class, now_us)
        };
        match verdict {
            Verdict::Reject {
                reason,
                retry_after_us,
            } => {
                self.record_refusal(Stage::Reject, reason.code());
                SubmitVerdict::Rejected {
                    reason,
                    retry_after_us,
                }
            }
            Verdict::Shed => {
                self.record_refusal(Stage::Shed, sr.class.index() as u64);
                SubmitVerdict::Shed
            }
            Verdict::Admit { degrade_fanout } => {
                let mut req = sr.req;
                if degrade_fanout {
                    req.fanout = (req.fanout / BrownoutConfig::FANOUT_DIV).max(1);
                }
                let ticket = self.inner.enqueue(req, sr.class, degrade_fanout, true);
                SubmitVerdict::Admitted(ticket)
            }
        }
    }

    /// Ledger event for a refused request: it never got a service trace,
    /// so it gets a fresh one holding only the refusal stage.
    fn record_refusal(&self, stage: Stage, detail: u64) {
        if let Some(o) = self.observability() {
            let trace = o.ledger().next_trace();
            let mut h = o.ledger().handle();
            h.record(trace, stage, NO_SHARD, 0.0, 0.0, detail);
        }
    }

    /// Inner service stats.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Admission accounting snapshot.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.inner.admission().stats()
    }

    /// The observability bundle, if installed.
    pub fn observability(&self) -> Option<&Observability> {
        self.inner.observability()
    }

    /// Drains the lanes, then stops the shards.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use lsdgnn_graph::{generators, AttributeStore, NodeId};

    fn req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: (0..6).map(NodeId).collect(),
            hops: 2,
            fanout: 4,
            seed,
        }
    }

    fn shaped(admission: AdmissionConfig) -> ShapedService {
        let g = generators::power_law(400, 8, 17);
        let a = AttributeStore::synthetic(400, 8, 17);
        ShapedService::start(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig::default(),
            admission,
            None,
        )
    }

    fn shaped_req(seed: u64, tenant: usize, class: Priority) -> ShapedRequest {
        ShapedRequest {
            req: req(seed),
            tenant,
            class,
            deadline: Duration::from_millis(50),
        }
    }

    #[test]
    fn unlimited_config_admits_everything_with_exact_replies() {
        let svc = shaped(AdmissionConfig::unlimited(1));
        let g = generators::power_law(400, 8, 17);
        let a = AttributeStore::synthetic(400, 8, 17);
        let direct = CpuBackend::new(&g, &a, 2);
        for seed in 0..6 {
            match svc.submit(shaped_req(seed, 0, Priority::Interactive), seed * 100) {
                SubmitVerdict::Admitted(t) => {
                    assert_eq!(t.wait(), direct.sample_neighbors(&req(seed)));
                }
                other => panic!("unlimited config must admit, got {other:?}"),
            }
        }
        let st = svc.admission_stats();
        assert_eq!(st.accepted(Priority::Interactive), 6);
        assert_eq!(st.rejected(Priority::Interactive), 0);
        assert!(st.bounds_respected());
        svc.shutdown();
    }

    #[test]
    fn out_of_range_tenant_is_refused_at_submit_and_admission_survives() {
        let svc = shaped(AdmissionConfig::unlimited(1));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.submit(shaped_req(1, 99, Priority::Interactive), 0)
        }));
        assert!(refused.is_err(), "tenant 99 of 1 must be refused");
        // Had the refusal poisoned the admission lock, this would panic.
        match svc.submit(shaped_req(2, 0, Priority::Interactive), 10) {
            SubmitVerdict::Admitted(t) => assert_eq!(t.wait_block().num_hops(), 2),
            other => panic!("a valid tenant must be admitted, got {other:?}"),
        }
        let st = svc.admission_stats();
        assert_eq!(st.accepted(Priority::Interactive), 1);
        assert_eq!(st.rejected(Priority::Interactive), 0);
        svc.shutdown();
    }

    #[test]
    fn empty_bucket_rejects_with_retry_hint() {
        let mut cfg = AdmissionConfig::unlimited(1);
        cfg.tenants[0].bucket = BucketConfig {
            rate_per_sec: 10.0,
            burst: 2.0,
        };
        let svc = shaped(cfg);
        // Burst of 2 admitted at t=0, the third rejected ~100ms out.
        let mut verdicts = Vec::new();
        for seed in 0..3 {
            verdicts.push(svc.submit(shaped_req(seed, 0, Priority::Interactive), 0));
        }
        assert!(matches!(verdicts[0], SubmitVerdict::Admitted(_)));
        assert!(matches!(verdicts[1], SubmitVerdict::Admitted(_)));
        match &verdicts[2] {
            SubmitVerdict::Rejected {
                reason,
                retry_after_us,
            } => {
                assert_eq!(*reason, RejectReason::RateLimit);
                assert_eq!(*retry_after_us, 100_000, "1 token at 10/s = 100ms");
            }
            other => panic!("third burst request must be rate-limited, got {other:?}"),
        }
        // Virtual time heals the bucket.
        assert!(matches!(
            svc.submit(shaped_req(9, 0, Priority::Interactive), 150_000),
            SubmitVerdict::Admitted(_)
        ));
        let st = svc.admission_stats();
        assert_eq!(st.rate_limited, 1);
        assert_eq!(st.rejected(Priority::Interactive), 1);
        svc.shutdown();
    }

    #[test]
    fn brownout_sheds_best_effort_then_degrades_fanout() {
        let mut ctrl = AdmissionController::new(AdmissionConfig {
            brownout: Some(BrownoutConfig),
            ..AdmissionConfig::unlimited(1)
        });
        // Budget intact: everything admitted exactly.
        assert_eq!(
            ctrl.decide(0, Priority::BestEffort, 0),
            Verdict::Admit {
                degrade_fanout: false
            }
        );
        ctrl.dequeued(Priority::BestEffort);
        // Burning at budget: best-effort shed, others exact.
        ctrl.set_burn(1.0);
        assert_eq!(ctrl.brownout_level(), 1);
        assert_eq!(ctrl.decide(0, Priority::BestEffort, 1), Verdict::Shed);
        assert_eq!(
            ctrl.decide(0, Priority::Interactive, 2),
            Verdict::Admit {
                degrade_fanout: false
            }
        );
        ctrl.dequeued(Priority::Interactive);
        // Burning at 2x budget: survivors degraded.
        ctrl.set_burn(2.5);
        assert_eq!(ctrl.brownout_level(), 2);
        assert_eq!(
            ctrl.decide(0, Priority::Interactive, 3),
            Verdict::Admit {
                degrade_fanout: true
            }
        );
        let st = ctrl.stats();
        assert_eq!(st.shed(Priority::BestEffort), 1);
        assert_eq!(st.brownout(Priority::Interactive), 1);
    }

    #[test]
    fn lane_bound_rejects_queue_full() {
        let mut ctrl = AdmissionController::new(AdmissionConfig {
            queue_bounds: [1, 1, 1],
            ..AdmissionConfig::unlimited(1)
        });
        assert!(matches!(
            ctrl.decide(0, Priority::Batch, 0),
            Verdict::Admit { .. }
        ));
        match ctrl.decide(0, Priority::Batch, 1) {
            Verdict::Reject { reason, .. } => assert_eq!(reason, RejectReason::QueueFull),
            other => panic!("full lane must reject, got {other:?}"),
        }
        // Other lanes are unaffected.
        assert!(matches!(
            ctrl.decide(0, Priority::Interactive, 2),
            Verdict::Admit { .. }
        ));
        ctrl.dequeued(Priority::Batch);
        assert!(matches!(
            ctrl.decide(0, Priority::Batch, 3),
            Verdict::Admit { .. }
        ));
        let st = ctrl.stats();
        assert_eq!(st.queue_full, 1);
        assert_eq!(st.max_queue, [1, 1, 0], "best-effort lane saw no traffic");
        assert!(st.bounds_respected());
    }

    #[test]
    fn stats_export_per_tenant_per_class_counters() {
        let mut cfg = AdmissionConfig::unlimited(2);
        cfg.tenants[1].bucket = BucketConfig {
            rate_per_sec: 1.0,
            burst: 1.0,
        };
        let mut ctrl = AdmissionController::new(cfg);
        assert!(matches!(
            ctrl.decide(0, Priority::Interactive, 0),
            Verdict::Admit { .. }
        ));
        assert!(matches!(
            ctrl.decide(1, Priority::Batch, 0),
            Verdict::Admit { .. }
        ));
        assert!(matches!(
            ctrl.decide(1, Priority::Batch, 0),
            Verdict::Reject { .. }
        ));
        let mut reg = lsdgnn_telemetry::Registry::new();
        reg.register("admission", &[], Box::new(ctrl.stats()));
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("admission/tenant0/interactive/admission_accepted")
                .unwrap()
                .as_f64(),
            1.0
        );
        assert_eq!(
            snap.get("admission/tenant1/batch/admission_rejected")
                .unwrap()
                .as_f64(),
            1.0
        );
        assert_eq!(
            snap.get("admission/admission_rate_limited")
                .unwrap()
                .as_f64(),
            1.0
        );
        assert_eq!(
            snap.get("admission/tenant1/best-effort/admission_shed")
                .unwrap()
                .as_f64(),
            0.0
        );
    }

    #[test]
    fn ledger_records_refusal_stages() {
        let obs = Observability::default();
        let mut cfg = AdmissionConfig::unlimited(1);
        cfg.tenants[0].bucket = BucketConfig {
            rate_per_sec: 1.0,
            burst: 1.0,
        };
        let g = generators::power_law(400, 8, 17);
        let a = AttributeStore::synthetic(400, 8, 17);
        let svc = ShapedService::start(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig::default(),
            cfg,
            Some(obs.clone()),
        );
        match svc.submit(shaped_req(0, 0, Priority::Interactive), 0) {
            SubmitVerdict::Admitted(t) => {
                t.wait_reply();
            }
            other => panic!("first request admitted, got {other:?}"),
        }
        assert!(matches!(
            svc.submit(shaped_req(1, 0, Priority::Interactive), 0),
            SubmitVerdict::Rejected { .. }
        ));
        svc.shutdown();
        let snap = obs.ledger().snapshot();
        assert!(
            snap.events.iter().any(|e| e.stage == Stage::Reject),
            "refusals must land in the ledger"
        );
    }

    /// Admits `sr` at time 0 or fails the test.
    fn admit(svc: &ShapedService, sr: ShapedRequest) -> SampleTicket {
        match svc.submit(sr, 0) {
            SubmitVerdict::Admitted(ticket) => ticket,
            other => panic!("must admit, got {other:?}"),
        }
    }

    /// The service counts its own late replies, so brownout needs no
    /// ledger: one reply held past the 50 ms SLO burns the budget, and
    /// the next best-effort request is shed.
    #[test]
    fn brownout_sheds_without_observability_once_replies_are_late() {
        let (backend, release) = crate::service::tests::gate_backend(|_| {});
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let admission = AdmissionConfig {
            brownout: Some(BrownoutConfig),
            ..AdmissionConfig::unlimited(1)
        };
        let svc = ShapedService::start(backend, config, admission, None);
        let late = admit(&svc, shaped_req(0, 0, Priority::Interactive));
        std::thread::sleep(Duration::from_millis(60));
        // The held dispatch, and one to spare should a request be admitted.
        (0..2).for_each(|_| release.send(()).unwrap());
        late.wait_reply();
        let stats = svc.stats();
        assert_eq!(stats.slo_violations, 1);
        assert!((stats.burn_rate() - 100.0).abs() < 1e-9, "1 of 1 late");
        let verdict = svc.submit(shaped_req(1, 0, Priority::BestEffort), 0);
        assert!(matches!(verdict, SubmitVerdict::Shed), "got {verdict:?}");
        svc.shutdown();
    }

    /// Jobs queued behind a held dispatch leave their lanes in priority
    /// order, whatever order they arrived in. The arrivals are spaced
    /// out so that a relay forwarding each job into a FIFO as it arrives
    /// would be seen here; the order asserted does not depend on timing.
    #[test]
    fn strict_priority_holds_at_dispatch() {
        let (seeds_tx, seeds) = crossbeam::channel::unbounded();
        let (backend, release) = crate::service::tests::gate_backend(move |reqs| {
            let batch: Vec<u64> = reqs.iter().map(|r| r.seed).collect();
            seeds_tx.send(batch).expect("test listens");
        });
        let config = ServiceConfig {
            workers: 1,
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let svc = ShapedService::start(backend, config, AdmissionConfig::unlimited(1), None);
        let held = admit(&svc, shaped_req(0, 0, Priority::Interactive));
        assert_eq!(seeds.recv().unwrap(), [0], "dispatch 1 is held");
        let queued: Vec<_> = [
            (1, Priority::BestEffort),
            (2, Priority::Batch),
            (3, Priority::Interactive),
        ]
        .into_iter()
        .map(|(seed, class)| {
            std::thread::sleep(Duration::from_millis(5));
            admit(&svc, shaped_req(seed, 0, class))
        })
        .collect();
        (0..4).for_each(|_| release.send(()).unwrap());
        std::iter::once(held).chain(queued).for_each(|t| {
            t.wait_reply();
        });
        // Shutdown drops the backend, which ends the `seeds` stream.
        svc.shutdown();
        let order: Vec<Vec<u64>> = seeds.iter().collect();
        assert_eq!(order, [[3], [2], [1]], "interactive, batch, best-effort");
    }

    /// Four submitter threads send all three classes into three shards:
    /// every ticket gets exactly one reply, equal to a direct backend
    /// call, and once drained every lane's occupancy is back to zero.
    #[test]
    fn concurrent_classes_drain_to_empty_lanes_with_exact_replies() {
        const PER_THREAD: u64 = 60;
        let g = generators::power_law(400, 8, 17);
        let a = AttributeStore::synthetic(400, 8, 17);
        let direct = CpuBackend::new(&g, &a, 2);
        let svc = ShapedService::start(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig {
                workers: 3,
                max_batch: 4,
                ..ServiceConfig::default()
            },
            AdmissionConfig {
                // Finite, but no lane can hold more than every request.
                queue_bounds: [4 * PER_THREAD as usize; CLASSES],
                ..AdmissionConfig::unlimited(4)
            },
            None,
        );
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (svc, direct) = (&svc, &direct);
                scope.spawn(move || {
                    let seeds: Vec<u64> = (0..PER_THREAD).map(|i| t * 1_000 + i).collect();
                    let tickets: Vec<_> = seeds
                        .iter()
                        .map(|&s| {
                            let class = Priority::ALL[(s % CLASSES as u64) as usize];
                            admit(svc, shaped_req(s, t as usize, class))
                        })
                        .collect();
                    for (s, ticket) in seeds.into_iter().zip(tickets) {
                        assert_eq!(ticket.wait(), direct.sample_neighbors(&req(s)), "seed {s}");
                    }
                });
            }
        });
        for class in Priority::ALL {
            assert_eq!(
                svc.inner.admission().queue_len(class),
                0,
                "{}",
                class.name()
            );
        }
        let st = svc.admission_stats();
        let accepted: u64 = Priority::ALL.iter().map(|&p| st.accepted(p)).sum();
        assert_eq!(accepted, 4 * PER_THREAD);
        assert_eq!(st.queue_full + st.rate_limited, 0);
        assert!(st.bounds_respected());
        assert_eq!(svc.stats().requests, 4 * PER_THREAD);
        svc.shutdown();
    }
}

//! [`ChaosBackend`]: deterministic fault injection wrapped around any
//! [`SamplingBackend`].
//!
//! The decorator consults a [`lsdgnn_chaos::FaultPlan`] on every
//! fallible attempt and translates scheduled faults into the backend
//! vocabulary the serving layer already degrades around:
//!
//! * **request loss** — the attempt returns [`BackendError::Injected`];
//!   the loss decision is a pure function of `(plan seed, request seed,
//!   attempt)`, so a retry can succeed where the first try vanished.
//! * **card failure at time T** — requests whose *virtual tick* is past
//!   T see those cards excluded via
//!   [`SamplingBackend::sample_excluding`], yielding a partial, degraded
//!   outcome.
//! * **stragglers** — the serving card's scheduled slowdown becomes a
//!   real `thread::sleep`, stretching latency without touching results.
//!
//! Virtual time: a request's tick is its `seed`. The bench harness
//! assigns seeds as per-request sequence numbers, so "card 2 dies at
//! tick 300" means requests 300+ lose card 2 — regardless of thread
//! interleaving, worker count, or wall-clock noise. That is what makes a
//! chaos run replayable byte for byte.

use crate::backend::{BackendError, SampleOutcome, SampleRequest, SamplingBackend};
use crate::cluster::RequestStats;
use lsdgnn_chaos::FaultInjector;
use lsdgnn_graph::NodeId;
use lsdgnn_sampler::SampleBlock;
use lsdgnn_telemetry::ledger::{self, faults, Stage, NO_SHARD};
use std::time::Duration;

/// A fault-injecting decorator over any sampling backend.
pub struct ChaosBackend {
    inner: Box<dyn SamplingBackend>,
    injector: FaultInjector,
}

impl std::fmt::Debug for ChaosBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosBackend")
            .field("plan_digest", &self.injector.plan().digest())
            .finish()
    }
}

impl ChaosBackend {
    /// Wraps `inner`, injecting the faults `injector`'s plan schedules.
    pub fn new(inner: Box<dyn SamplingBackend>, injector: FaultInjector) -> Self {
        ChaosBackend { inner, injector }
    }

    /// The injector (shared counters + plan) driving this backend.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Cards the plan has down at virtual tick `now`.
    fn downs_at(&self, now: u64) -> Vec<u32> {
        (0..self.inner.shards())
            .filter(|&c| self.injector.plan().card_down(c, now))
            .collect()
    }

    /// Sleeps out the serving card's scheduled straggler delay, if any.
    fn straggle(&self, req: &SampleRequest) {
        let card = (req.seed % self.inner.shards().max(1) as u64) as u32;
        let delay_us = self.injector.straggler_delay_us(card, req.seed);
        if delay_us > 0 {
            if ledger::scope_active() {
                ledger::scope_record(Stage::Fault, card, delay_us as f64, 0.0, faults::STRAGGLER);
            }
            std::thread::sleep(Duration::from_micros(delay_us));
        }
    }
}

impl SamplingBackend for ChaosBackend {
    /// The fault-free path stays fault-free: parity tests compare this
    /// against the bare backend.
    fn sample_block(&self, req: &SampleRequest) -> SampleBlock {
        self.inner.sample_block(req)
    }

    /// The batched dispatch a zero-fault service takes: forwarded whole,
    /// so the inner backend coalesces across the batch as it would bare.
    fn sample_many(&self, reqs: &[&SampleRequest]) -> Vec<SampleOutcome> {
        self.inner.sample_many(reqs)
    }

    fn recycle(&self, block: SampleBlock) {
        self.inner.recycle(block);
    }

    fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
        self.inner.gather_attributes(nodes)
    }

    fn gather_attr_rows(
        &self,
        nodes: &[NodeId],
        rows: &mut Vec<f32>,
        slot_of: &mut Vec<u32>,
    ) -> usize {
        self.inner.gather_attr_rows(nodes, rows, slot_of)
    }

    fn stats(&self) -> RequestStats {
        self.inner.stats()
    }

    fn try_sample(&self, req: &SampleRequest, attempt: u32) -> Result<SampleOutcome, BackendError> {
        self.straggle(req);
        if self.injector.drop_request(req.seed, attempt) {
            if ledger::scope_active() {
                ledger::scope_record(Stage::Fault, NO_SHARD, 0.0, 0.0, faults::REQUEST_LOSS);
            }
            return Err(BackendError::Injected);
        }
        let now = req.seed;
        let downs = self.downs_at(now);
        if downs.is_empty() {
            self.inner.try_sample(req, attempt)
        } else {
            self.injector.note_cards_down(&downs);
            if ledger::scope_active() {
                for &card in &downs {
                    ledger::scope_record(Stage::Fault, card, 0.0, 0.0, faults::CARD_DOWN);
                }
            }
            Ok(self.inner.sample_excluding(req, &downs))
        }
    }

    /// The fallback path: immune to request loss (it models local
    /// recomputation, not another trip over the faulty transport) but
    /// still honest about down cards — they stay excluded.
    fn sample_excluding(&self, req: &SampleRequest, excluded: &[u32]) -> SampleOutcome {
        let mut downs = self.downs_at(req.seed);
        if ledger::scope_active() {
            for &card in &downs {
                ledger::scope_record(Stage::Fault, card, 0.0, 0.0, faults::CARD_DOWN);
            }
        }
        for &e in excluded {
            if !downs.contains(&e) {
                downs.push(e);
            }
        }
        downs.sort_unstable();
        if !downs.is_empty() {
            self.injector.note_cards_down(&downs);
        }
        self.inner.sample_excluding(req, &downs)
    }

    fn fail_shard(&self, shard: u32) -> bool {
        self.inner.fail_shard(shard)
    }

    fn shards(&self) -> u32 {
        self.inner.shards()
    }

    fn num_nodes(&self) -> u64 {
        self.inner.num_nodes()
    }

    fn cache_snapshot(&self) -> Option<crate::hot_cache::CacheSnapshot> {
        self.inner.cache_snapshot()
    }

    fn defer_attr_fetch(&self) {
        self.inner.defer_attr_fetch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use lsdgnn_chaos::{FaultPlan, ScenarioSpec};
    use lsdgnn_graph::{generators, AttributeStore};

    fn cpu() -> Box<dyn SamplingBackend> {
        let g = generators::power_law(400, 8, 21);
        let a = AttributeStore::synthetic(400, 8, 21);
        Box::new(CpuBackend::new(&g, &a, 4))
    }

    fn req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: (0..8).map(NodeId).collect(),
            hops: 2,
            fanout: 5,
            seed,
        }
    }

    fn chaos(spec: ScenarioSpec) -> ChaosBackend {
        let plan = FaultPlan::build(99, spec).unwrap();
        ChaosBackend::new(cpu(), FaultInjector::new(plan))
    }

    #[test]
    fn zero_fault_plan_is_transparent() {
        let bare = cpu();
        let wrapped = chaos(ScenarioSpec::none());
        for s in 0..6 {
            let outcome = wrapped.try_sample(&req(s), 0).unwrap();
            assert!(!outcome.degraded);
            assert_eq!(outcome.block, bare.sample_block(&req(s)));
        }
        assert_eq!(wrapped.injector().stats().requests_dropped, 0);
    }

    #[test]
    fn zero_fault_batch_coalesces_like_the_bare_backend() {
        // Four overlapping requests (the same roots, different seeds):
        // a batch dispatch over the chaos wrapper must reach the inner
        // backend's coalescing path, not run one request at a time.
        let bare = cpu();
        let wrapped = chaos(ScenarioSpec::none());
        let reqs: Vec<SampleRequest> = (0..4).map(req).collect();
        let refs: Vec<&SampleRequest> = reqs.iter().collect();
        assert_eq!(wrapped.sample_many(&refs), bare.sample_many(&refs));
        let (w, b) = (wrapped.stats(), bare.stats());
        assert_eq!(w.remote_requests, b.remote_requests);
        assert_eq!(w.coalesce_hits, b.coalesce_hits);
        assert!(b.coalesce_hits > 0, "overlapping frontiers must coalesce");
    }

    #[test]
    fn request_loss_fails_some_attempts_and_retries_recover() {
        let b = chaos(ScenarioSpec::none().with_request_loss(0.5));
        let mut dropped = 0;
        for s in 0..64 {
            match b.try_sample(&req(s), 0) {
                Ok(_) => {}
                Err(BackendError::Injected) => {
                    dropped += 1;
                    // Retries draw fresh coordinates; one of the next few
                    // succeeds with probability 1 - 0.5^n.
                    let recovered = (1..12).any(|a| b.try_sample(&req(s), a).is_ok());
                    assert!(recovered, "seed {s} never recovered");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(dropped > 10, "50% loss must drop a fair share: {dropped}");
        // The recovery probes above also count their own failed attempts.
        assert!(b.injector().stats().requests_dropped >= dropped);
    }

    #[test]
    fn card_failure_degrades_requests_past_its_tick() {
        let b = chaos(ScenarioSpec::none().with_card_failure(1, 100));
        let before = b.try_sample(&req(50), 0).unwrap();
        assert!(!before.degraded, "card still up at tick 50");
        let after = b.try_sample(&req(150), 0).unwrap();
        assert!(after.degraded, "card 1 down at tick 150");
        assert!(after.unreachable > 0);
        assert!(b.injector().stats().cards_downed >= 1);
        // Deterministic: the same request degrades identically again.
        assert_eq!(b.try_sample(&req(150), 0).unwrap(), after);
    }

    #[test]
    fn fallback_bypasses_request_loss_but_not_down_cards() {
        let b = chaos(
            ScenarioSpec::none()
                .with_request_loss(1.0)
                .with_card_failure(2, 0),
        );
        // Every try_sample attempt is swallowed...
        assert_eq!(b.try_sample(&req(9), 0), Err(BackendError::Injected));
        // ...but the fallback still answers, degraded by the dead card.
        let outcome = b.sample_excluding(&req(9), &[]);
        assert!(outcome.degraded);
        assert!(outcome.unreachable > 0);
    }
}

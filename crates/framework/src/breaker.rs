//! A per-shard circuit breaker: the serving layer's guard against
//! hammering a backend that keeps failing.
//!
//! Classic three-state machine. **Closed**: requests flow; consecutive
//! failures are counted and `threshold` of them trip the breaker.
//! **Open**: the fault path is skipped entirely — requests go straight to
//! the degraded fallback — for `cooldown` dispatch decisions. **Half
//! open**: a single probe request is let through; success closes the
//! breaker, failure re-opens it.
//!
//! Cooldown is measured in *dispatch decisions*, not wall-clock time: the
//! breaker's trajectory is then a pure function of the success/failure
//! sequence it observes, which keeps chaos runs replayable.
//!
//! # Priority lanes
//!
//! With multi-tenant shaping ([`crate::admission`]) in front, the probe
//! is a scarce recovery resource and must not be burned by traffic
//! nobody is waiting on. [`CircuitBreaker::allow_for`] therefore reserves
//! it for [`Priority::Interactive`] traffic: batch and best-effort
//! requests never probe — while the breaker is open or half-open they go
//! straight to the degraded fallback.
//!
//! The class-less [`CircuitBreaker::allow`] is interactive by definition
//! (the pre-lanes serving path).

use crate::admission::Priority;

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, failures are counted.
    Closed,
    /// Tripped: the fault path is skipped until the cooldown elapses.
    Open,
    /// Probing: one request is allowed through to test recovery.
    HalfOpen,
}

/// A deterministic closed/open/half-open circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    threshold: u32,
    cooldown: u32,
    /// Whether the current half-open episode's probe is still unspent.
    probe_left: bool,
    failures: u32,
    waited: u32,
    opens: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker tripping after `threshold` consecutive
    /// failures and staying open for `cooldown` dispatch decisions, with
    /// a single probe per half-open episode.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (a breaker that trips on nothing).
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        assert!(threshold > 0, "threshold must be non-zero");
        CircuitBreaker {
            state: BreakerState::Closed,
            threshold,
            cooldown,
            probe_left: false,
            failures: 0,
            waited: 0,
            opens: 0,
        }
    }

    /// One dispatch decision: may this request take the normal (fault-
    /// prone) path? `false` means go straight to the degraded fallback.
    /// Interactive by definition — see [`CircuitBreaker::allow_for`].
    pub fn allow(&mut self) -> bool {
        self.allow_for(Priority::Interactive)
    }

    /// One dispatch decision for a request of the given priority class.
    /// While open, each call counts toward the cooldown regardless of
    /// class (the trajectory stays a pure function of the decision
    /// sequence); once it elapses the breaker half-opens with one probe,
    /// which only interactive traffic may take.
    pub fn allow_for(&mut self, class: Priority) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => self.take_probe(class),
            BreakerState::Open => {
                self.waited += 1;
                if self.waited >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.probe_left = true;
                    self.take_probe(class)
                } else {
                    false
                }
            }
        }
    }

    /// Consumes the half-open probe if it is unspent and this class is
    /// entitled to it: only interactive traffic probes.
    fn take_probe(&mut self, class: Priority) -> bool {
        let entitled = self.probe_left && class == Priority::Interactive;
        if entitled {
            self.probe_left = false;
        }
        entitled
    }

    /// The guarded path succeeded: a half-open probe (or any success)
    /// closes the breaker and clears the failure count.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.failures = 0;
    }

    /// The guarded path failed. Enough consecutive failures while closed
    /// — or any failure of a half-open probe — (re)opens the breaker.
    pub fn record_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.failures = 0;
        self.waited = 0;
        self.probe_left = false;
        self.opens += 1;
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open (including re-opens from a
    /// failed probe).
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, 4);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut b = CircuitBreaker::new(2, 4);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn open_breaker_blocks_until_cooldown_then_probes() {
        let mut b = CircuitBreaker::new(1, 3);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow(), "cooldown elapsed: half-open probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let trip = |outcome_ok: bool| {
            let mut b = CircuitBreaker::new(1, 1);
            b.record_failure();
            assert!(b.allow(), "cooldown of 1 admits the next probe");
            if outcome_ok {
                b.record_success();
                assert_eq!(b.state(), BreakerState::Closed);
            } else {
                b.record_failure();
                assert_eq!(b.state(), BreakerState::Open);
                assert_eq!(b.opens(), 2);
            }
        };
        trip(true);
        trip(false);
    }

    #[test]
    fn same_observation_sequence_same_trajectory() {
        let drive = || {
            let mut b = CircuitBreaker::new(2, 2);
            let mut trace = Vec::new();
            for i in 0..32u32 {
                if b.allow() {
                    if i % 3 == 0 {
                        b.record_success();
                    } else {
                        b.record_failure();
                    }
                }
                trace.push((b.state(), b.opens()));
            }
            trace
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threshold_panics() {
        let _ = CircuitBreaker::new(0, 1);
    }

    /// Opens a breaker and burns the cooldown with best-effort decisions
    /// (which count toward it but never probe).
    fn half_open() -> CircuitBreaker {
        let mut b = CircuitBreaker::new(1, 1);
        b.record_failure();
        assert!(
            !b.allow_for(Priority::BestEffort),
            "best-effort advanced the cooldown but must not probe"
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b
    }

    #[test]
    fn best_effort_never_consumes_the_probe_quota() {
        let mut b = half_open();
        for _ in 0..4 {
            assert!(!b.allow_for(Priority::BestEffort));
        }
        assert!(
            b.allow_for(Priority::Interactive),
            "the probe is intact for interactive"
        );
    }

    #[test]
    fn batch_leaves_the_last_probe_for_interactive() {
        // The one probe of an episode is the last: batch never takes it.
        let mut b = half_open();
        for _ in 0..4 {
            assert!(!b.allow_for(Priority::Batch), "batch never probes");
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(
            b.allow_for(Priority::Interactive),
            "interactive takes the probe"
        );
        assert!(
            !b.allow_for(Priority::Interactive),
            "one probe per episode until its outcome is recorded"
        );
        // Batch never probes, not even as the first decision after a
        // cooldown: an open breaker it half-opens keeps the probe.
        let mut b = CircuitBreaker::new(1, 1);
        b.record_failure();
        assert!(!b.allow_for(Priority::Batch), "batch half-opens, no probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow_for(Priority::Interactive));
    }

    #[test]
    fn probe_quota_resets_per_half_open_episode() {
        let mut b = half_open();
        assert!(b.allow_for(Priority::Interactive));
        b.record_failure(); // probe failed: re-open, probe spent
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert!(
            b.allow_for(Priority::Interactive),
            "cooldown 1: next decision probes, a fresh episode"
        );
        assert!(!b.allow_for(Priority::Interactive), "and only once");
    }

    #[test]
    fn default_quota_matches_the_legacy_single_probe_breaker() {
        // The class-less path is interactive: one probe per episode.
        let mut b = CircuitBreaker::new(1, 2);
        b.record_failure();
        assert!(!b.allow());
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(), "the episode's one probe is spent");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }
}

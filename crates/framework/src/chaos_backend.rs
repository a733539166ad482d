#[cfg(test)]
mod tests {
    use crate::backend::{CpuBackend, SampleRequest, SamplingBackend};
    use crate::service::{sample_masked, try_attempt};
    use lsdgnn_chaos::{FaultInjector, FaultPlan, ScenarioSpec};
    use lsdgnn_graph::{generators, AttributeStore, NodeId};
    use std::sync::Arc;

    fn cpu() -> Arc<dyn SamplingBackend> {
        let g = generators::power_law(400, 8, 21);
        let a = AttributeStore::synthetic(400, 8, 21);
        Arc::new(CpuBackend::new(&g, &a, 4))
    }

    fn req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: (0..8).map(NodeId).collect(),
            hops: 2,
            fanout: 5,
            seed,
        }
    }

    fn injector(spec: ScenarioSpec) -> FaultInjector {
        FaultInjector::new(FaultPlan::build(99, spec).unwrap())
    }

    #[test]
    fn zero_fault_plan_is_transparent() {
        let (bare, backend) = (cpu(), cpu());
        let inj = injector(ScenarioSpec::none());
        for s in 0..6 {
            let outcome = try_attempt(&backend, &inj, &req(s), 0).unwrap();
            assert!(!outcome.degraded);
            assert_eq!(outcome.block, bare.sample_block(&req(s)));
        }
        assert_eq!(inj.stats().requests_dropped, 0);
    }

    #[test]
    fn request_loss_fails_some_attempts_and_retries_recover() {
        let backend = cpu();
        let inj = injector(ScenarioSpec::none().with_request_loss(0.5));
        let mut dropped = 0;
        for s in 0..64 {
            if try_attempt(&backend, &inj, &req(s), 0).is_none() {
                dropped += 1;
                // Retries draw fresh coordinates; one of the next few
                // succeeds with probability 1 - 0.5^n.
                let recovered = (1..12).any(|a| try_attempt(&backend, &inj, &req(s), a).is_some());
                assert!(recovered, "seed {s} never recovered");
            }
        }
        assert!(dropped > 10, "50% loss must drop a fair share: {dropped}");
        // The recovery probes above also count their own failed attempts.
        assert!(inj.stats().requests_dropped >= dropped);
    }

    #[test]
    fn card_failure_degrades_requests_past_its_tick() {
        let backend = cpu();
        let inj = injector(ScenarioSpec::none().with_card_failure(1, 100));
        let before = try_attempt(&backend, &inj, &req(50), 0).unwrap();
        assert!(!before.degraded, "card still up at tick 50");
        let after = try_attempt(&backend, &inj, &req(150), 0).unwrap();
        assert!(after.degraded, "card 1 down at tick 150");
        assert!(after.unreachable > 0);
        assert!(inj.stats().cards_downed >= 1);
        // Deterministic: the same request degrades identically again.
        assert_eq!(try_attempt(&backend, &inj, &req(150), 0).unwrap(), after);
    }

    #[test]
    fn fallback_bypasses_request_loss_but_not_down_cards() {
        let backend = cpu();
        let inj = injector(
            ScenarioSpec::none()
                .with_request_loss(1.0)
                .with_card_failure(2, 0),
        );
        // Every attempt is swallowed...
        assert_eq!(try_attempt(&backend, &inj, &req(9), 0), None);
        // ...but the fallback still answers, degraded by the dead card.
        let (outcome, all_up) = sample_masked(&backend, &inj, &req(9));
        assert!(!all_up);
        assert!(outcome.degraded);
        assert!(outcome.unreachable > 0);
    }
}

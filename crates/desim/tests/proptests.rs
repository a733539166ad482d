//! Property-based tests for the simulation kernel's timing primitives,
//! including the differential test that replays random event programs
//! on the calendar-queue kernel and the heap-based reference kernel.

mod reference;

use lsdgnn_desim::{BandwidthResource, DetRng, Server, Simulation, Time};
use proptest::prelude::*;
use reference::ReferenceSimulation;
use std::cell::RefCell;
use std::rc::Rc;

/// One step of a random kernel program.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delay` ticks ahead; if `chain` is set, the
    /// event schedules a child that far ahead when it fires.
    Schedule { delay: u64, chain: Option<u64> },
    /// Cancel the `victim % handles.len()`-th handle issued so far.
    Cancel { victim: usize },
    /// Fire a single event.
    Step,
    /// Run until `now + dt`.
    RunUntil { dt: u64 },
    /// Drain the calendar.
    Run,
}

/// Raw generated tuple decoded into an [`Op`]: a weighted kind selector
/// plus two (shift, mantissa) delay encodings spanning the wheel's
/// levels and the overflow heap (`mantissa << shift` reaches ~5e14
/// ticks, far beyond the wheel span).
type RawOp = ((u8, usize), (u32, u64), (u32, u64));

fn decode_op(((kind, victim), (s1, m1), (s2, m2)): RawOp) -> Op {
    let delay = m1 << s1;
    match kind {
        0..=3 => Op::Schedule { delay, chain: None },
        4..=5 => Op::Schedule {
            delay,
            chain: Some(m2 << s2),
        },
        6..=7 => Op::Cancel { victim },
        8 => Op::Step,
        9 => Op::RunUntil { dt: delay },
        _ => Op::Run,
    }
}

/// Everything observable about one program execution: the fired-event
/// log (label, firing time), cancel outcomes, run_until counts, and the
/// final clock/counters.
#[derive(Debug, PartialEq, Eq)]
struct KernelTrace {
    fired: Vec<(u64, u64)>,
    cancels: Vec<bool>,
    ran_until: Vec<u64>,
    now: u64,
    processed: u64,
    pending: usize,
}

/// The common kernel surface the differential test drives.
trait Kernel: Default {
    type Handle: Copy;
    fn schedule_logged(
        &mut self,
        delay: Time,
        label: u64,
        chain: Option<u64>,
        log: Rc<RefCell<Vec<(u64, u64)>>>,
    ) -> Self::Handle;
    fn cancel_handle(&mut self, h: Self::Handle) -> bool;
    fn step_one(&mut self) -> bool;
    fn run_all(&mut self);
    fn run_to(&mut self, horizon: Time) -> u64;
    fn clock(&self) -> Time;
    fn processed_count(&self) -> u64;
    fn pending_count(&self) -> usize;
}

impl Kernel for Simulation {
    type Handle = lsdgnn_desim::EventHandle;
    fn schedule_logged(
        &mut self,
        delay: Time,
        label: u64,
        chain: Option<u64>,
        log: Rc<RefCell<Vec<(u64, u64)>>>,
    ) -> Self::Handle {
        self.schedule(delay, move |sim: &mut Simulation| {
            log.borrow_mut().push((label, sim.now().as_ticks()));
            if let Some(d) = chain {
                let log = log.clone();
                sim.schedule(Time::from_ticks(d), move |sim: &mut Simulation| {
                    log.borrow_mut()
                        .push((label | CHAIN_BIT, sim.now().as_ticks()));
                });
            }
        })
    }
    fn cancel_handle(&mut self, h: Self::Handle) -> bool {
        self.cancel(h)
    }
    fn step_one(&mut self) -> bool {
        self.step()
    }
    fn run_all(&mut self) {
        self.run()
    }
    fn run_to(&mut self, horizon: Time) -> u64 {
        self.run_until(horizon)
    }
    fn clock(&self) -> Time {
        self.now()
    }
    fn processed_count(&self) -> u64 {
        self.events_processed()
    }
    fn pending_count(&self) -> usize {
        self.events_pending()
    }
}

impl Kernel for ReferenceSimulation {
    type Handle = reference::ReferenceHandle;
    fn schedule_logged(
        &mut self,
        delay: Time,
        label: u64,
        chain: Option<u64>,
        log: Rc<RefCell<Vec<(u64, u64)>>>,
    ) -> Self::Handle {
        self.schedule(delay, move |sim: &mut ReferenceSimulation| {
            log.borrow_mut().push((label, sim.now().as_ticks()));
            if let Some(d) = chain {
                let log = log.clone();
                sim.schedule(Time::from_ticks(d), move |sim: &mut ReferenceSimulation| {
                    log.borrow_mut()
                        .push((label | CHAIN_BIT, sim.now().as_ticks()));
                });
            }
        })
    }
    fn cancel_handle(&mut self, h: Self::Handle) -> bool {
        self.cancel(h)
    }
    fn step_one(&mut self) -> bool {
        self.step()
    }
    fn run_all(&mut self) {
        self.run()
    }
    fn run_to(&mut self, horizon: Time) -> u64 {
        self.run_until(horizon)
    }
    fn clock(&self) -> Time {
        self.now()
    }
    fn processed_count(&self) -> u64 {
        self.events_processed()
    }
    fn pending_count(&self) -> usize {
        self.events_pending()
    }
}

const CHAIN_BIT: u64 = 1 << 63;

fn replay<K: Kernel>(ops: &[Op]) -> KernelTrace {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = K::default();
    let mut handles = Vec::new();
    let mut cancels = Vec::new();
    let mut ran_until = Vec::new();
    for (label, op) in ops.iter().enumerate() {
        match *op {
            Op::Schedule { delay, chain } => handles.push(sim.schedule_logged(
                Time::from_ticks(delay),
                label as u64,
                chain,
                log.clone(),
            )),
            Op::Cancel { victim } => {
                if !handles.is_empty() {
                    let h = handles[victim % handles.len()];
                    cancels.push(sim.cancel_handle(h));
                }
            }
            Op::Step => {
                sim.step_one();
            }
            Op::RunUntil { dt } => {
                ran_until.push(sim.run_to(sim.clock() + Time::from_ticks(dt)));
            }
            Op::Run => sim.run_all(),
        }
    }
    // Drain whatever is left so the full firing order is compared.
    sim.run_all();
    let fired = log.borrow().clone();
    KernelTrace {
        fired,
        cancels,
        ran_until,
        now: sim.clock().as_ticks(),
        processed: sim.processed_count(),
        pending: sim.pending_count(),
    }
}

proptest! {
    /// Differential test: the calendar-queue kernel and the heap-based
    /// reference kernel observe identical behaviour — same event firing
    /// order (including FIFO tie-breaks), same clock, same
    /// processed/pending counters, same cancel and run_until results —
    /// on random programs of schedule/cancel/step/run_until/run.
    #[test]
    fn calendar_kernel_matches_reference_heap(
        raw in proptest::collection::vec(
            ((0u8..11, any::<usize>()), (0u32..40, 0u64..1024), (0u32..40, 0u64..1024)),
            1..80,
        ),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        let calendar = replay::<Simulation>(&ops);
        let reference = replay::<ReferenceSimulation>(&ops);
        prop_assert_eq!(calendar, reference);
    }

    /// A bandwidth resource serializes transfers: bookings never overlap
    /// and always start at or after the request time.
    #[test]
    fn bandwidth_bookings_never_overlap(
        arrivals in proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..50),
        gbps in 1u32..200,
    ) {
        let mut bw = BandwidthResource::from_gbytes_per_sec(gbps as f64);
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut prev_finish = Time::ZERO;
        let mut total_bytes = 0u64;
        for (at, bytes) in sorted {
            let now = Time::from_nanos(at);
            let (start, finish) = bw.acquire(now, bytes);
            prop_assert!(start >= now);
            prop_assert!(start >= prev_finish);
            prop_assert!(finish >= start);
            prop_assert_eq!(finish - start, bw.service_time(bytes));
            prev_finish = finish;
            total_bytes += bytes;
        }
        prop_assert_eq!(bw.bytes_moved(), total_bytes);
    }

    /// A k-server pool never runs more than k jobs concurrently.
    #[test]
    fn server_pool_respects_parallelism(
        jobs in proptest::collection::vec((0u64..1_000, 1u64..500), 1..60),
        servers in 1usize..8,
    ) {
        let mut pool = Server::new(servers);
        let mut intervals = Vec::new();
        let mut sorted = jobs.clone();
        sorted.sort();
        for (at, dur) in sorted {
            let (start, finish) = pool.acquire(Time::from_nanos(at), Time::from_nanos(dur));
            prop_assert!(start >= Time::from_nanos(at));
            intervals.push((start, finish));
        }
        // Check max overlap at every interval start.
        for &(s, _) in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|&&(a, b)| a <= s && s < b)
                .count();
            prop_assert!(overlapping <= servers, "{overlapping} jobs overlap with {servers} servers");
        }
    }

    /// The event calendar executes everything exactly once, in
    /// non-decreasing time order.
    #[test]
    fn calendar_runs_everything_in_order(delays in proptest::collection::vec(0u64..100_000, 1..200)) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for &d in &delays {
            let fired = fired.clone();
            sim.schedule(Time::from_ticks(d), move |sim| {
                fired.borrow_mut().push(sim.now().as_ticks());
            });
        }
        sim.run();
        let fired = fired.borrow();
        prop_assert_eq!(fired.len(), delays.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
        let mut expect = delays.clone();
        expect.sort_unstable();
        let mut got = fired.clone();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// DetRng's bounded draw is always in range.
    #[test]
    fn rng_bounded_draws(seed in 0u64..10_000, bound in 1u64..1_000_000) {
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}

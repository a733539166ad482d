//! The event-calendar simulation kernel.

use crate::arena::{EventArena, EventHandle, Payload};
use crate::calendar::{CalendarQueue, EventKey};
use crate::time::Time;
use lsdgnn_telemetry::{ticks_to_us, Tracer};

/// How often (in processed events) an attached tracer samples the
/// calendar depth. The check is `is_multiple_of`, so any non-zero value
/// works; a power of two keeps it a cheap masked compare in practice.
const TRACE_SAMPLE_EVERY: u64 = 1024;

/// Discrete-event simulation kernel.
///
/// Events are one-shot closures ordered by timestamp (FIFO among equal
/// timestamps, so causality between same-cycle events is deterministic).
/// Closures receive `&mut Simulation` and typically capture the model state
/// as `Rc<RefCell<...>>` handles.
///
/// Internally the calendar is a hierarchical bucketed time wheel with an
/// overflow heap (see [`calendar`](crate::calendar)), and closures live
/// in a slab arena with inline storage for small captures (see
/// [`arena`](crate::arena)) — `schedule` → fire is allocation-free in
/// steady state. The pre-optimization heap kernel survives as the
/// differential-test model of `tests/proptests.rs`
/// (`tests/reference/mod.rs`).
///
/// # Example
///
/// ```
/// use lsdgnn_desim::{Simulation, Time};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let hits = Rc::new(Cell::new(0));
/// let mut sim = Simulation::new();
/// for i in 0..4 {
///     let hits = hits.clone();
///     sim.schedule(Time::from_ticks(i * 10), move |_| hits.set(hits.get() + 1));
/// }
/// sim.run();
/// assert_eq!(hits.get(), 4);
/// ```
///
/// Scheduling returns an [`EventHandle`] that can revoke the event while
/// it is still pending:
///
/// ```
/// use lsdgnn_desim::{Simulation, Time};
///
/// let mut sim = Simulation::new();
/// let timeout = sim.schedule(Time::from_nanos(100), |_| panic!("timed out"));
/// assert!(sim.cancel(timeout));
/// sim.run(); // no panic: the timeout was revoked
/// ```
pub struct Simulation {
    now: Time,
    seq: u64,
    processed: u64,
    calendar: CalendarQueue,
    arena: EventArena,
    tracer: Option<(Tracer, u32)>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.arena.live())
            .field("processed", &self.processed)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            now: Time::ZERO,
            seq: 0,
            processed: 0,
            calendar: CalendarQueue::new(),
            arena: EventArena::new(),
            tracer: None,
        }
    }

    /// Attaches a tracer: the kernel periodically emits a `calendar`
    /// counter track (pending/processed events) under `pid` in
    /// simulated-time microseconds.
    pub fn attach_tracer(&mut self, tracer: Tracer, pid: u32) {
        tracer.name_process(pid, "desim-kernel");
        self.tracer = Some((tracer, pid));
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending (cancelled events excluded).
    pub fn events_pending(&self) -> usize {
        self.arena.live()
    }

    /// Schedules `f` to run `delay` after the current time.
    ///
    /// The returned handle can [`cancel`](Self::cancel) the event while
    /// it is pending; simply dropping the handle does nothing.
    pub fn schedule<F>(&mut self, delay: Time, f: F) -> EventHandle
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` at an absolute timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at<F>(&mut self, at: Time, f: F) -> EventHandle
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        let handle = self.arena.insert(Payload::new(f));
        self.calendar.push(EventKey { at, seq, handle });
        handle
    }

    /// Revokes a pending event: its closure is dropped unrun and it no
    /// longer counts as pending or processed. Returns `true` if the
    /// event was still pending, `false` for a stale handle (already
    /// fired or already cancelled). The calendar entry is tombstoned and
    /// skipped lazily.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.arena.take(handle) {
            Some(payload) => {
                payload.discard();
                // The calendar key stays behind as a lazy tombstone, so
                // the queue always holds at least one key per live event.
                debug_assert!(self.calendar.keys() >= self.arena.live());
                true
            }
            None => false,
        }
    }

    /// Pops the next *live* event, skipping cancelled tombstones.
    fn pop_live(&mut self) -> Option<(Time, Payload)> {
        while let Some(EventKey { at, handle, .. }) = self.calendar.pop() {
            if let Some(payload) = self.arena.take(handle) {
                return Some((at, payload));
            }
        }
        None
    }

    /// Advances the clock and runs one popped event — the single fire
    /// path shared by `step`, `run`, `run_until` and `run_bounded`, so
    /// every entry point samples the tracer identically.
    fn fire(&mut self, at: Time, payload: Payload) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        if self.processed.is_multiple_of(TRACE_SAMPLE_EVERY) {
            if let Some((tracer, pid)) = &self.tracer {
                tracer.counter(
                    "calendar",
                    *pid,
                    ticks_to_us(self.now.as_ticks()),
                    &[("pending", self.arena.live() as f64)],
                );
            }
        }
        payload.run(self);
    }

    /// Emits the span a traced bulk run records.
    fn trace_run_span(&self, name: &str, start: Time, before: u64) {
        if let Some((tracer, pid)) = &self.tracer {
            let ts = ticks_to_us(start.as_ticks());
            tracer.span_args(
                "desim",
                name,
                *pid,
                0,
                ts,
                ticks_to_us(self.now.as_ticks()) - ts,
                &[("events", (self.processed - before) as f64)],
            );
        }
    }

    /// Runs a single event; returns `false` if the calendar is empty.
    pub fn step(&mut self) -> bool {
        match self.pop_live() {
            Some((at, payload)) => {
                self.fire(at, payload);
                true
            }
            None => false,
        }
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self) {
        let (start, before) = (self.now, self.processed);
        while self.step() {}
        self.trace_run_span("run", start, before);
    }

    /// Runs until the calendar drains or the next event would pass
    /// `horizon`; events strictly after the horizon stay pending.
    ///
    /// A tracer-attached run records the same `calendar` counter samples
    /// as [`run`](Self::run) plus a `run_until` span.
    ///
    /// Returns the number of events executed.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        let (start, before) = (self.now, self.processed);
        while let Some(at) = self.calendar.peek_at() {
            if at > horizon {
                break;
            }
            // The head may be a cancelled tombstone; popping resolves it
            // without advancing the clock.
            if let Some(EventKey { at, handle, .. }) = self.calendar.pop() {
                if let Some(payload) = self.arena.take(handle) {
                    self.fire(at, payload);
                }
            }
        }
        if self.now < horizon {
            self.now = horizon;
        }
        if self.processed > before {
            // Skipped for empty windows so polling callers (the service
            // path calls run_until in a loop) don't flood the trace.
            self.trace_run_span("run_until", start, before);
        }
        self.processed - before
    }

    /// Runs at most `limit` events (a runaway-model backstop).
    ///
    /// Returns the number executed.
    pub fn run_bounded(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for (i, t) in [30u64, 10, 20].iter().enumerate() {
            let order = order.clone();
            sim.schedule(Time::from_ticks(*t), move |_| order.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..8 {
            let order = order.clone();
            sim.schedule(Time::from_ticks(5), move |_| order.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let depth = Rc::new(RefCell::new(0u32));
        fn chain(sim: &mut Simulation, depth: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            sim.schedule(Time::from_ticks(1), move |sim| {
                *depth.borrow_mut() += 1;
                chain(sim, depth.clone(), left - 1);
            });
        }
        let mut sim = Simulation::new();
        chain(&mut sim, depth.clone(), 100);
        sim.run();
        assert_eq!(*depth.borrow(), 100);
        assert_eq!(sim.now(), Time::from_ticks(100));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new();
        let hit = Rc::new(RefCell::new(0));
        for t in [10u64, 20, 30, 40] {
            let hit = hit.clone();
            sim.schedule(Time::from_ticks(t), move |_| *hit.borrow_mut() += 1);
        }
        let ran = sim.run_until(Time::from_ticks(25));
        assert_eq!(ran, 2);
        assert_eq!(*hit.borrow(), 2);
        assert_eq!(sim.now(), Time::from_ticks(25));
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(*hit.borrow(), 4);
    }

    #[test]
    fn run_bounded_limits_events() {
        let mut sim = Simulation::new();
        for t in 0..10u64 {
            sim.schedule(Time::from_ticks(t), |_| {});
        }
        assert_eq!(sim.run_bounded(4), 4);
        assert_eq!(sim.events_pending(), 6);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule(Time::from_ticks(10), |sim| {
            sim.schedule_at(Time::from_ticks(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn debug_is_nonempty() {
        let sim = Simulation::new();
        assert!(!format!("{sim:?}").is_empty());
    }

    #[test]
    fn cancelled_events_never_fire() {
        let hits = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let mut handles = Vec::new();
        for i in 0..6u64 {
            let hits = hits.clone();
            handles.push(sim.schedule(Time::from_ticks(i * 10), move |_| {
                hits.borrow_mut().push(i);
            }));
        }
        assert!(sim.cancel(handles[1]));
        assert!(sim.cancel(handles[4]));
        assert!(!sim.cancel(handles[4]), "double cancel reports stale");
        assert_eq!(sim.events_pending(), 4);
        sim.run();
        assert_eq!(*hits.borrow(), vec![0, 2, 3, 5]);
        assert_eq!(sim.events_processed(), 4);
        assert!(!sim.cancel(handles[0]), "fired handles are stale");
    }

    #[test]
    fn cancelled_head_does_not_leak_past_run_until_horizon() {
        let hit = Rc::new(RefCell::new(0u32));
        let mut sim = Simulation::new();
        let hit2 = hit.clone();
        let h = sim.schedule(Time::from_ticks(5), move |_| *hit2.borrow_mut() += 1);
        let hit2 = hit.clone();
        sim.schedule(Time::from_ticks(50), move |_| *hit2.borrow_mut() += 1);
        sim.cancel(h);
        // The tombstone at t=5 must not cause the t=50 event to fire
        // inside a t=10 horizon.
        assert_eq!(sim.run_until(Time::from_ticks(10)), 0);
        assert_eq!(*hit.borrow(), 0);
        assert_eq!(sim.now(), Time::from_ticks(10));
        sim.run();
        assert_eq!(*hit.borrow(), 1);
    }

    #[test]
    fn scheduling_after_run_until_parks_clock_correctly() {
        // run_until advances `now` past the wheel cursor; scheduling
        // relative to the parked clock must still order correctly.
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let o = order.clone();
        sim.schedule(Time::from_millis(2), move |_| o.borrow_mut().push("far"));
        sim.run_until(Time::from_micros(10));
        let o = order.clone();
        sim.schedule(Time::from_micros(1), move |_| o.borrow_mut().push("near"));
        sim.run();
        assert_eq!(*order.borrow(), vec!["near", "far"]);
    }

    #[test]
    fn attached_tracer_records_the_run() {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        sim.attach_tracer(tracer.clone(), 1);
        for t in 0..10u64 {
            sim.schedule(Time::from_ticks(t), |_| {});
        }
        sim.run();
        let events = tracer.events();
        let run = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "run")
            .expect("run span recorded");
        assert_eq!(run.cat, "desim");
        assert_eq!(run.args, vec![("events".to_string(), 10.0)]);
    }

    #[test]
    fn run_until_records_span_and_counter_samples() {
        let tracer = Tracer::new();
        let mut sim = Simulation::new();
        sim.attach_tracer(tracer.clone(), 1);
        for t in 0..3000u64 {
            sim.schedule(Time::from_ticks(t), |_| {});
        }
        sim.run_until(Time::from_ticks(5_000));
        let events = tracer.events();
        let span = events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "run_until")
            .expect("run_until span recorded");
        assert_eq!(span.cat, "desim");
        assert_eq!(span.args, vec![("events".to_string(), 3000.0)]);
        let counters = events.iter().filter(|e| e.ph == 'C').count();
        assert_eq!(counters, 2, "3000 events at 1/1024 sampling");
    }
}

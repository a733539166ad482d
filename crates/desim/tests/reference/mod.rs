//! The pre-calendar-queue event kernel, kept as an obviously-correct
//! reference model.
//!
//! [`ReferenceSimulation`] is the original `BinaryHeap<Reverse<_>>`
//! kernel with one `Box<dyn FnOnce>` per event. Its one job is
//! differential testing: the property tests in `tests/proptests.rs`
//! replay random schedule/cancel/run programs on both kernels and
//! require identical firing order, clocks and counts.
//!
//! It intentionally stays simple (a sorted heap is its own proof of
//! time ordering) and is not used by any hardware model.

use lsdgnn_desim::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;

type EventFn = Box<dyn FnOnce(&mut ReferenceSimulation)>;

struct Scheduled {
    at: Time,
    seq: u64,
    f: EventFn,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A cancellation handle into a [`ReferenceSimulation`]: just the
/// event's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReferenceHandle(u64);

/// The heap-based reference kernel. Same observable semantics as
/// [`Simulation`](lsdgnn_desim::Simulation): time order, FIFO among equal
/// timestamps, panic on scheduling into the past, lazy cancellation.
#[derive(Default)]
pub struct ReferenceSimulation {
    now: Time,
    seq: u64,
    processed: u64,
    calendar: BinaryHeap<Reverse<Scheduled>>,
    live: HashSet<u64>,
}

impl ReferenceSimulation {
    /// Creates an empty reference simulation at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of live events still pending.
    pub fn events_pending(&self) -> usize {
        self.live.len()
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: Time, f: F) -> ReferenceHandle
    where
        F: FnOnce(&mut ReferenceSimulation) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` at an absolute timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at<F>(&mut self, at: Time, f: F) -> ReferenceHandle
    where
        F: FnOnce(&mut ReferenceSimulation) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.live.insert(seq);
        self.calendar.push(Reverse(Scheduled {
            at,
            seq,
            f: Box::new(f),
        }));
        ReferenceHandle(seq)
    }

    /// Cancels a pending event; returns whether it was still pending.
    pub fn cancel(&mut self, handle: ReferenceHandle) -> bool {
        // Lazy: the heap entry stays and is skipped on pop.
        self.live.remove(&handle.0)
    }

    /// Runs a single live event; returns `false` if none remain.
    pub fn step(&mut self) -> bool {
        while let Some(Reverse(ev)) = self.calendar.pop() {
            if !self.live.remove(&ev.seq) {
                continue; // cancelled tombstone
            }
            debug_assert!(ev.at >= self.now);
            self.now = ev.at;
            self.processed += 1;
            (ev.f)(self);
            return true;
        }
        false
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the calendar drains or the next event would pass
    /// `horizon`; events strictly after the horizon stay pending.
    ///
    /// Returns the number of events executed.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        let start = self.processed;
        while let Some(Reverse(head)) = self.calendar.peek() {
            if !self.live.contains(&head.seq) {
                // Drop cancelled tombstones here so the horizon check
                // always sees the next *live* event.
                self.calendar.pop();
                continue;
            }
            if head.at > horizon {
                break;
            }
            self.step();
        }
        if self.now < horizon {
            self.now = horizon;
        }
        self.processed - start
    }
}

impl std::fmt::Debug for ReferenceSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceSimulation")
            .field("now", &self.now)
            .field("pending", &self.live.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn runs_in_order_with_cancellation() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = ReferenceSimulation::new();
        let mut handles = Vec::new();
        for (i, t) in [30u64, 10, 20, 10].iter().enumerate() {
            let order = order.clone();
            handles.push(sim.schedule(Time::from_ticks(*t), move |_| {
                order.borrow_mut().push(i);
            }));
        }
        assert!(sim.cancel(handles[2]));
        assert!(!sim.cancel(handles[2]), "double cancel is a no-op");
        assert_eq!(sim.events_pending(), 3);
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 3, 0]);
        assert_eq!(sim.events_processed(), 3);
        assert!(!sim.cancel(handles[0]), "fired events cannot be cancelled");
    }

    #[test]
    fn run_until_skips_cancelled_heads() {
        let mut sim = ReferenceSimulation::new();
        let hit = Rc::new(RefCell::new(0u32));
        let hit2 = hit.clone();
        let h = sim.schedule(Time::from_ticks(5), move |_| *hit2.borrow_mut() += 1);
        let hit2 = hit.clone();
        sim.schedule(Time::from_ticks(30), move |_| *hit2.borrow_mut() += 1);
        sim.cancel(h);
        assert_eq!(sim.run_until(Time::from_ticks(10)), 0);
        assert_eq!(sim.now(), Time::from_ticks(10));
        sim.run();
        assert_eq!(*hit.borrow(), 1);
    }
}

//! Measurement primitives: counters, time-weighted averages and
//! throughput meters. Latency-like samples go into
//! `lsdgnn_telemetry::Log2Histogram`.

use crate::time::Time;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use lsdgnn_desim::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Tracks the time-weighted average of a piecewise-constant level, e.g.
/// queue occupancy or outstanding request count.
///
/// # Example
///
/// ```
/// use lsdgnn_desim::{TimeWeighted, Time};
/// let mut o = TimeWeighted::new();
/// o.set(Time::ZERO, 4.0);
/// o.set(Time::from_ticks(10), 0.0);
/// assert_eq!(o.average(Time::from_ticks(20)), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    level: f64,
    last_change: Time,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Creates a tracker at level zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level at timestamp `now`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if timestamps go backwards.
    pub fn set(&mut self, now: Time, level: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.integral += self.level * (now.saturating_sub(self.last_change)).as_ticks() as f64;
        self.level = level;
        self.last_change = now;
        self.peak = self.peak.max(level);
    }

    /// Adjusts the level by `delta` at `now`.
    pub fn adjust(&mut self, now: Time, delta: f64) {
        let next = self.level + delta;
        self.set(now, next);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Highest level observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average over `[0, horizon]`.
    pub fn average(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        let tail = self.level * horizon.saturating_sub(self.last_change).as_ticks() as f64;
        (self.integral + tail) / horizon.as_ticks() as f64
    }
}

/// Counts completed items and converts to a rate per second.
///
/// # Example
///
/// ```
/// use lsdgnn_desim::{ThroughputMeter, Time};
/// let mut m = ThroughputMeter::new();
/// m.complete(512);
/// assert_eq!(m.rate_per_sec(Time::from_millis(1)), 512_000.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputMeter {
    completed: u64,
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` completions.
    pub fn complete(&mut self, n: u64) {
        self.completed += n;
    }

    /// Total completions.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Completions per simulated second over `[0, horizon]`.
    pub fn rate_per_sec(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            0.0
        } else {
            self.completed as f64 / horizon.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(10);
        c.incr();
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(Time::ZERO, 10.0);
        tw.set(Time::from_ticks(5), 2.0);
        // 5 ticks at 10 + 5 ticks at 2 over 10 ticks = 6.
        assert_eq!(tw.average(Time::from_ticks(10)), 6.0);
        assert_eq!(tw.peak(), 10.0);
        assert_eq!(tw.level(), 2.0);
    }

    #[test]
    fn time_weighted_adjust() {
        let mut tw = TimeWeighted::new();
        tw.adjust(Time::ZERO, 3.0);
        tw.adjust(Time::from_ticks(4), -1.0);
        assert_eq!(tw.level(), 2.0);
        // 4 ticks at 3, 4 at 2 => avg 2.5 over 8 ticks.
        assert_eq!(tw.average(Time::from_ticks(8)), 2.5);
    }

    #[test]
    fn throughput_rate() {
        let mut m = ThroughputMeter::new();
        m.complete(100);
        m.complete(100);
        assert_eq!(m.completed(), 200);
        assert!((m.rate_per_sec(Time::from_micros(100)) - 2e6).abs() < 1e-6);
        assert_eq!(m.rate_per_sec(Time::ZERO), 0.0);
    }
}

//! Structured event tracing with a Chrome trace-event JSON writer.
//!
//! A [`Tracer`] is a cheap, cloneable handle over a shared bounded event
//! buffer. Components record *spans* (`ph: "X"` complete events),
//! *instants* (`ph: "i"`) and *counter series* (`ph: "C"`); the buffer
//! exports the Chrome trace-event format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly.
//!
//! Timelines: each subsystem records under its own process id (see
//! [`pids`]), so simulated-time components (desim ticks, 1 tick = 1 ps,
//! converted with [`ticks_to_us`]) and wall-clock components (the
//! `SamplingService`, via [`Tracer::wall_us`]) each get a coherent
//! per-process timeline in the viewer.
//!
//! # Example
//!
//! ```
//! use lsdgnn_telemetry::{pids, ticks_to_us, Tracer};
//! let tracer = Tracer::new();
//! tracer.name_process(pids::AXE, "axe-engine");
//! tracer.span("axe", "get_neighbor", pids::AXE, 0, ticks_to_us(2_000_000), 1.5);
//! let json = tracer.to_chrome_json();
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

use crate::json::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-id conventions: one Chrome-trace "process" per subsystem so
/// each gets its own track group in Perfetto.
pub mod pids {
    /// The discrete-event simulation kernel (calendar depth counters).
    pub const DESIM: u32 = 1;
    /// The Access Engine (per-core pipeline stages).
    pub const AXE: u32 = 2;
    /// Memory-over-Fabric (remote reads, package lifecycles).
    pub const MOF: u32 = 3;
    /// The sampling service (wall-clock submit/batch/dispatch).
    pub const SERVICE: u32 = 4;
}

/// Converts desim ticks (1 tick = 1 ps by workspace convention) to the
/// microseconds Chrome traces use.
pub fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 / 1e6
}

/// One Chrome trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Phase: `X` complete, `i` instant, `C` counter, `M` metadata.
    pub ph: char,
    /// Event name (or counter name).
    pub name: String,
    /// Category, e.g. `axe`, `mof`, `service`, `desim`.
    pub cat: String,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub dur_us: f64,
    /// Process id (subsystem; see [`pids`]).
    pub pid: u32,
    /// Thread id (core / shard / link index).
    pub tid: u32,
    /// Numeric arguments (counter series, span annotations).
    pub args: Vec<(String, f64)>,
    /// String arguments (metadata names).
    pub str_args: Vec<(String, String)>,
}

#[derive(Debug)]
struct Buf {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// A cloneable handle to a shared trace buffer.
///
/// The buffer is a bounded ring: beyond `capacity` events the *oldest*
/// records evict first (counted in [`Tracer::dropped`]) instead of
/// growing memory without limit — the trace of a large run keeps its
/// most recent window, which is the part a tail investigation needs.
#[derive(Debug, Clone)]
pub struct Tracer {
    buf: Arc<Mutex<Buf>>,
    t0: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Default event capacity (~1M events ≈ a few hundred MB of JSON at
    /// most; Perfetto handles it comfortably).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a tracer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a tracer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be non-zero");
        Tracer {
            buf: Arc::new(Mutex::new(Buf {
                events: VecDeque::new(),
                capacity,
                dropped: 0,
            })),
            t0: Instant::now(),
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut buf = self.buf.lock().expect("trace buffer lock");
        if buf.events.len() >= buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(ev);
    }

    /// Microseconds of wall clock since this tracer was created.
    pub fn wall_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds from tracer creation to `at` (0 if `at` precedes
    /// creation).
    pub fn us_of(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Records a complete event (`ph: "X"`) spanning
    /// `[ts_us, ts_us + dur_us]`.
    pub fn span(&self, cat: &str, name: &str, pid: u32, tid: u32, ts_us: f64, dur_us: f64) {
        self.span_args(cat, name, pid, tid, ts_us, dur_us, &[]);
    }

    /// Records a complete event with numeric arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn span_args(
        &self,
        cat: &str,
        name: &str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, f64)],
    ) {
        self.push(TraceEvent {
            ph: 'X',
            name: name.to_string(),
            cat: cat.to_string(),
            ts_us,
            dur_us: dur_us.max(0.0),
            pid,
            tid,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            str_args: Vec::new(),
        });
    }

    /// Records an instant event (`ph: "i"`).
    pub fn instant(&self, cat: &str, name: &str, pid: u32, tid: u32, ts_us: f64) {
        self.push(TraceEvent {
            ph: 'i',
            name: name.to_string(),
            cat: cat.to_string(),
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            args: Vec::new(),
            str_args: Vec::new(),
        });
    }

    /// Records a counter sample (`ph: "C"`): each `(series, value)` pair
    /// becomes one line on the counter track.
    pub fn counter(&self, name: &str, pid: u32, ts_us: f64, series: &[(&str, f64)]) {
        self.push(TraceEvent {
            ph: 'C',
            name: name.to_string(),
            cat: String::new(),
            ts_us,
            dur_us: 0.0,
            pid,
            tid: 0,
            args: series.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            str_args: Vec::new(),
        });
    }

    /// Names a process track (`ph: "M"`, `process_name`).
    pub fn name_process(&self, pid: u32, name: &str) {
        self.push(TraceEvent {
            ph: 'M',
            name: "process_name".to_string(),
            cat: String::new(),
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid: 0,
            args: Vec::new(),
            str_args: vec![("name".to_string(), name.to_string())],
        });
    }

    /// Names a thread track (`ph: "M"`, `thread_name`).
    pub fn name_thread(&self, pid: u32, tid: u32, name: &str) {
        self.push(TraceEvent {
            ph: 'M',
            name: "thread_name".to_string(),
            cat: String::new(),
            ts_us: 0.0,
            dur_us: 0.0,
            pid,
            tid,
            args: Vec::new(),
            str_args: vec![("name".to_string(), name.to_string())],
        });
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("trace buffer lock").events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring after the buffer filled (oldest
    /// records go first).
    pub fn dropped(&self) -> u64 {
        self.buf.lock().expect("trace buffer lock").dropped
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("trace buffer lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Serializes the buffer to Chrome trace-event JSON
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
    pub fn to_chrome_json(&self) -> String {
        let buf = self.buf.lock().expect("trace buffer lock");
        let events = buf
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("ph".to_string(), Json::Str(e.ph.to_string())),
                    ("ts".to_string(), Json::Num(e.ts_us)),
                    ("pid".to_string(), Json::Num(e.pid as f64)),
                    ("tid".to_string(), Json::Num(e.tid as f64)),
                ];
                if !e.cat.is_empty() {
                    fields.push(("cat".to_string(), Json::Str(e.cat.clone())));
                }
                if e.ph == 'X' {
                    fields.push(("dur".to_string(), Json::Num(e.dur_us)));
                }
                if e.ph == 'i' {
                    // Instant scope: thread.
                    fields.push(("s".to_string(), Json::Str("t".to_string())));
                }
                if !e.args.is_empty() || !e.str_args.is_empty() {
                    let mut args: Vec<(String, Json)> = e
                        .args
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect();
                    args.extend(
                        e.str_args
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                    );
                    fields.push(("args".to_string(), Json::Obj(args)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ])
        .render()
    }

    /// Writes the Chrome trace JSON to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_export_required_fields() {
        let t = Tracer::new();
        t.span_args(
            "axe",
            "get_neighbor",
            pids::AXE,
            3,
            10.0,
            2.5,
            &[("bytes", 64.0)],
        );
        t.instant("mof", "retransmit", pids::MOF, 0, 11.0);
        t.counter("queue", pids::SERVICE, 12.0, &[("depth", 4.0)]);
        t.name_process(pids::AXE, "axe-engine");
        let doc = Json::parse(&t.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        for ev in events {
            assert!(ev.get("ph").is_some());
            assert!(ev.get("ts").is_some());
            assert!(ev.get("pid").is_some());
            assert!(ev.get("tid").is_some());
        }
        let span = &events[0];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            span.get("args").unwrap().get("bytes").unwrap().as_f64(),
            Some(64.0)
        );
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.instant("x", "e", 1, 0, i as f64);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn overflow_evicts_oldest_spans_first() {
        let t = Tracer::with_capacity(3);
        for i in 0..7 {
            t.instant("x", "e", 1, 0, i as f64);
            assert!(t.len() <= 3, "count must never exceed the cap");
        }
        // The ring keeps the newest window: timestamps 4, 5, 6.
        let ts: Vec<f64> = t.events().iter().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![4.0, 5.0, 6.0]);
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new();
        let t2 = t.clone();
        t2.instant("x", "e", 1, 0, 0.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let t = Tracer::new();
        let a = t.wall_us();
        let b = t.wall_us();
        assert!(b >= a && a >= 0.0);
        assert_eq!(t.us_of(t.t0), 0.0);
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let t = Tracer::new();
        t.span("x", "e", 1, 0, 5.0, -1.0);
        assert_eq!(t.events()[0].dur_us, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Tracer::with_capacity(0);
    }
}

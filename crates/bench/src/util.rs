//! Formatting helpers, the captured-output sink, the `--jobs` worker
//! pool primitives and the telemetry context shared by every experiment
//! printer.
//!
//! # Output discipline
//!
//! Experiments never call `println!` directly: they print through
//! [`outln!`] (and [`banner`]/[`Table`], which route through it). On the
//! main thread that is a plain `println!`; inside [`capture`] the lines
//! land in a thread-local buffer instead, so a worker thread can run a
//! whole experiment and hand its output back as one string. `main`
//! prints those buffers in selection order, which makes `--jobs N`
//! output byte-identical to the serial run regardless of completion
//! order.

use lsdgnn_core::telemetry::{MetricValue, Registry, Snapshot, TraceEvent, Tracer};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Capture buffer for the current thread; `None` = print directly.
    static SINK: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Writes one line to the active sink (capture buffer or stdout). Use
/// through [`outln!`].
pub fn emit_line(line: std::fmt::Arguments) {
    SINK.with(|s| match &mut *s.borrow_mut() {
        Some(buf) => {
            use std::fmt::Write;
            writeln!(buf, "{line}").expect("write to capture buffer");
        }
        None => println!("{line}"),
    })
}

/// `println!` replacement for experiment code: prints to stdout on the
/// main thread, into the capture buffer inside [`capture`].
macro_rules! outln {
    () => { $crate::util::emit_line(format_args!("")) };
    ($($arg:tt)*) => { $crate::util::emit_line(format_args!($($arg)*)) };
}
pub(crate) use outln;

/// Runs `f` with output captured; returns its result and everything it
/// printed through [`outln!`].
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, String) {
    SINK.with(|s| *s.borrow_mut() = Some(String::new()));
    let r = f();
    let out = SINK
        .with(|s| s.borrow_mut().take())
        .expect("capture sink installed above");
    (r, out)
}

/// Worker count for `--jobs` / `LSDGNN_JOBS`, set once by `main`.
static JOBS: OnceLock<usize> = OnceLock::new();

/// Records the requested worker count (first call wins; later calls are
/// ignored, which only matters to tests driving `main` logic twice).
pub fn set_jobs(n: usize) {
    let _ = JOBS.set(n.max(1));
}

/// The worker count experiments should fan out to (1 = serial).
pub fn jobs() -> usize {
    *JOBS.get().unwrap_or(&1)
}

/// Maps `f` over `items` on up to [`jobs`] scoped worker threads,
/// returning results in item order. With one job (or one item) it runs
/// inline. `f` must not print — compute in `par_map`, then print from
/// the ordered results — because worker threads have no capture sink.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= work.len() {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot lock")
                    .take()
                    .expect("each index is claimed once");
                let r = f(item);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Prints a header banner for one experiment.
pub fn banner(id: &str, caption: &str) {
    outln!();
    outln!("==== {id}: {caption} ====");
}

/// Formats a float with engineering-style suffixes (K/M/G).
pub fn eng(v: f64) -> String {
    let (scaled, suffix) = if v.abs() >= 1e9 {
        (v / 1e9, "G")
    } else if v.abs() >= 1e6 {
        (v / 1e6, "M")
    } else if v.abs() >= 1e3 {
        (v / 1e3, "K")
    } else {
        (v, "")
    };
    format!("{scaled:.2}{suffix}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Fixed-width table printer: owns the column widths, prints the header
/// row on construction, then left-aligned data rows and trailing notes.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Starts a table by printing its header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Table {
        assert_eq!(headers.len(), widths.len(), "one width per column");
        let t = Table {
            widths: widths.to_vec(),
        };
        t.row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
        t
    }

    /// Prints one row of left-aligned cells.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:<w$} ", w = w));
        }
        outln!("{}", line.trim_end());
    }

    /// Prints a parenthesized footnote tying the table to the paper.
    pub fn note(&self, msg: &str) {
        outln!("({msg})");
    }
}

/// Renders one metric value for table cells: counters as integers,
/// gauges at full precision, histograms as their p50/p99 summary.
pub fn metric_cell(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => c.to_string(),
        MetricValue::Gauge(g) => format!("{g:.4}"),
        MetricValue::Histogram(h) => {
            format!("n={} p50={:.0} p99={:.0}", h.count, h.p50, h.p99)
        }
    }
}

/// Prints a whole telemetry snapshot as a (metric, labels, value) table.
pub fn snapshot_table(snap: &Snapshot) {
    let t = Table::new(&["metric", "labels", "value"], &[36, 24, 24]);
    for m in snap.metrics() {
        let labels = m
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        t.row(&[m.name.clone(), labels, metric_cell(&m.value)]);
    }
}

/// The per-experiment telemetry context: a metrics registry the
/// experiment registers sources into, plus an optional tracer that
/// exists only when tracing was requested (so untraced runs pay
/// nothing). Each worker gets its own `Telemetry`; [`into_parts`]
/// (called on the worker thread, where the registered sources live)
/// reduces it to plain `Send` data the scheduler merges in selection
/// order.
///
/// [`into_parts`]: Telemetry::into_parts
pub struct Telemetry {
    pub registry: Registry,
    tracer: Option<Tracer>,
}

impl Telemetry {
    pub fn worker(tracing: bool) -> Telemetry {
        Telemetry {
            registry: Registry::new(),
            tracer: tracing.then(Tracer::new),
        }
    }

    /// Tracer handle for experiments that support span recording; `None`
    /// when no `--trace-out` path was given.
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.clone()
    }

    /// Collapses the context into its snapshot and trace events.
    pub fn into_parts(self) -> (Snapshot, Vec<TraceEvent>) {
        let snap = self.registry.snapshot();
        let events = self.tracer.map(|t| t.events()).unwrap_or_default();
        (snap, events)
    }
}

/// The main-thread side: accumulates per-experiment snapshots and trace
/// events in selection order and writes the requested output files.
pub struct TelemetrySink {
    merged: Snapshot,
    tracer: Option<Tracer>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

impl TelemetrySink {
    pub fn new(metrics_out: Option<String>, trace_out: Option<String>) -> TelemetrySink {
        TelemetrySink {
            merged: Snapshot::new(),
            tracer: trace_out.as_ref().map(|_| Tracer::new()),
            metrics_out,
            trace_out,
        }
    }

    /// Whether experiments should record traces.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Folds one experiment's results in. Call in selection order — the
    /// merged snapshot (and therefore `--metrics-out`) preserves it.
    pub fn absorb(&mut self, snapshot: Snapshot, events: Vec<TraceEvent>) {
        self.merged.extend(snapshot);
        if let Some(tracer) = &self.tracer {
            tracer.absorb(events);
        }
    }

    /// Writes the metrics snapshot and Chrome trace to their requested
    /// paths. Called once by `main` after the selected experiments ran.
    /// Without `--metrics-out`, registered metrics are printed instead
    /// of silently discarded.
    pub fn finish(&self) {
        if let Some(path) = &self.metrics_out {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).expect("create metrics dir");
                }
            }
            std::fs::write(path, self.merged.to_json()).expect("write metrics snapshot");
            outln!("wrote {} metrics to {path}", self.merged.len());
        } else if !self.merged.is_empty() {
            banner(
                "Telemetry",
                "registered metrics (pass --metrics-out to export JSON)",
            );
            snapshot_table(&self.merged);
        }
        if let (Some(path), Some(tracer)) = (&self.trace_out, &self.tracer) {
            tracer
                .write_json(std::path::Path::new(path))
                .expect("write chrome trace");
            outln!(
                "wrote {} trace events to {path} (open in Perfetto / chrome://tracing)",
                tracer.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_buffers_and_restores_direct_printing() {
        let ((), out) = capture(|| {
            outln!("line {}", 1);
            banner("X", "caption");
        });
        assert_eq!(out, "line 1\n\n==== X: caption ====\n");
        // After capture the sink is gone; emit_line falls back to stdout
        // (nothing to assert beyond not panicking).
        outln!("direct");
    }

    #[test]
    fn par_map_preserves_item_order() {
        // jobs() may be 1 here (OnceLock unset) — order must hold either
        // way, and with multiple workers the scheduler still fills slots
        // by index.
        set_jobs(4);
        let out = par_map((0..100).collect::<Vec<u64>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn telemetry_parts_merge_in_absorb_order() {
        let mut a = Telemetry::worker(false);
        a.registry.register(
            "a",
            &[],
            Box::new(|s: &mut lsdgnn_core::telemetry::Scope| s.counter("n", 1)),
        );
        let mut b = Telemetry::worker(false);
        b.registry.register(
            "b",
            &[],
            Box::new(|s: &mut lsdgnn_core::telemetry::Scope| s.counter("n", 2)),
        );
        let mut sink = TelemetrySink::new(None, None);
        let (sa, ea) = a.into_parts();
        let (sb, eb) = b.into_parts();
        sink.absorb(sa, ea);
        sink.absorb(sb, eb);
        let names: Vec<&str> = sink
            .merged
            .metrics()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["a/n", "b/n"]);
    }
}

//! Formatting helpers and the telemetry context shared by every
//! experiment printer.

use lsdgnn_core::telemetry::{MetricValue, Registry, Snapshot, Tracer};

/// Prints a header banner for one experiment.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("==== {id}: {caption} ====");
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
        println!("{}", line.trim_end());
    }

    /// Prints a parenthesized footnote tying the table to the paper.
    pub fn note(&self, msg: &str) {
        println!("({msg})");
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

/// The run's telemetry context: one metrics registry every selected
/// experiment registers sources into (in selection order, which is the
/// `--metrics-out` order), plus a tracer that exists only when
/// `--trace-out` was given (so untraced runs pay nothing).
pub struct Telemetry {
    pub registry: Registry,
    tracer: Option<Tracer>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

impl Telemetry {
    pub fn new(metrics_out: Option<String>, trace_out: Option<String>) -> Telemetry {
        Telemetry {
            registry: Registry::new(),
            tracer: trace_out.as_ref().map(|_| Tracer::new()),
            metrics_out,
            trace_out,
        }
    }

    /// Tracer handle for experiments that support span recording; `None`
    /// when no `--trace-out` path was given.
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.clone()
    }

    /// Writes the metrics snapshot and Chrome trace to their requested
    /// paths. Called once by `main` after the selected experiments ran.
    /// Without `--metrics-out`, registered metrics are printed instead
    /// of silently discarded.
    pub fn finish(&self) {
        let snap = self.registry.snapshot();
        if let Some(path) = &self.metrics_out {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).expect("create metrics dir");
                }
            }
            std::fs::write(path, snap.to_json()).expect("write metrics snapshot");
            println!("wrote {} metrics to {path}", snap.len());
        } else if !snap.is_empty() {
            banner(
                "Telemetry",
                "registered metrics (pass --metrics-out to export JSON)",
            );
            snapshot_table(&snap);
        }
        if let (Some(path), Some(tracer)) = (&self.trace_out, &self.tracer) {
            tracer
                .write_json(std::path::Path::new(path))
                .expect("write chrome trace");
            println!(
                "wrote {} trace events to {path} (open in Perfetto / chrome://tracing)",
                tracer.len()
            );
        }
    }
}

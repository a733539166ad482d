//! `bench trace-report` — offline per-stage summary of a Chrome trace.
//!
//! Reads the trace-event JSON that `--trace-out` writes (the
//! `traceEvents` wrapper produced by `Tracer::to_chrome_json`) and
//! prints one row per span name: how often it ran, how much wall time
//! it covered, and its mean/max durations — a terminal-friendly answer
//! to "where did the time go" without opening Perfetto.
//!
//! Complete (`ph == "X"`) events aggregate by `(cat, name)`; instants
//! and counters are tallied but carry no duration.

use crate::util::Table;
use lsdgnn_core::telemetry::Json;

/// One span name's aggregate across the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Event category (`service`, `axe`, `mof`, ...).
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Complete events aggregated.
    pub count: u64,
    /// Sum of durations, µs.
    pub total_us: f64,
    /// Largest single duration, µs.
    pub max_us: f64,
}

/// Aggregates the parsed trace document into per-stage rows (complete
/// events only), longest total first, plus (instants, counters) tallies.
pub fn summarize(doc: &Json) -> (Vec<StageRow>, u64, u64) {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let mut rows: Vec<StageRow> = Vec::new();
    let (mut instants, mut counters) = (0u64, 0u64);
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        match ph {
            "i" => instants += 1,
            "C" => counters += 1,
            "X" => {
                let cat = e
                    .get("cat")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let name = e
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let dur = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
                match rows.iter_mut().find(|r| r.cat == cat && r.name == name) {
                    Some(r) => {
                        r.count += 1;
                        r.total_us += dur;
                        r.max_us = r.max_us.max(dur);
                    }
                    None => rows.push(StageRow {
                        cat,
                        name,
                        count: 1,
                        total_us: dur,
                        max_us: dur,
                    }),
                }
            }
            _ => {}
        }
    }
    rows.sort_by(|x, y| {
        y.total_us
            .partial_cmp(&x.total_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.name.cmp(&y.name))
    });
    (rows, instants, counters)
}

/// Reads `path`, prints the per-stage duration table, and exits
/// non-zero on unreadable or malformed input.
pub fn trace_report(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace-report: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("trace-report: {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let (rows, instants, counters) = summarize(&doc);
    println!("trace report: {path}");
    if rows.is_empty() {
        println!("  no complete (ph=X) span events");
    } else {
        let table = Table::new(
            &["cat", "span", "count", "total_ms", "mean_us", "max_us"],
            &[9, 22, 8, 10, 10, 10],
        );
        for r in &rows {
            table.row(&[
                r.cat.clone(),
                r.name.clone(),
                r.count.to_string(),
                format!("{:.3}", r.total_us / 1e3),
                format!("{:.1}", r.total_us / r.count as f64),
                format!("{:.1}", r.max_us),
            ]);
        }
    }
    println!("  ({instants} instants, {counters} counter samples)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test fixture parses")
    }

    #[test]
    fn aggregates_complete_events_by_name_longest_first() {
        let d = doc(r#"{"traceEvents":[
                {"name":"dispatch","ph":"X","ts":0,"pid":4,"tid":0,"cat":"service","dur":10.0},
                {"name":"dispatch","ph":"X","ts":20,"pid":4,"tid":0,"cat":"service","dur":30.0},
                {"name":"request","ph":"X","ts":0,"pid":4,"tid":1,"cat":"service","dur":100.0},
                {"name":"submit","ph":"i","ts":1,"pid":4,"tid":0,"cat":"service","s":"t"},
                {"name":"depth","ph":"C","ts":2,"pid":1,"tid":0,"args":{"depth":3}}
            ]}"#);
        let (rows, instants, counters) = summarize(&d);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "request");
        assert_eq!(rows[0].total_us, 100.0);
        assert_eq!(rows[1].name, "dispatch");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_us, 40.0);
        assert_eq!(rows[1].max_us, 30.0);
        assert_eq!(instants, 1);
        assert_eq!(counters, 1);
    }

    #[test]
    fn tolerates_missing_wrapper_and_empty_traces() {
        let (rows, i, c) = summarize(&doc(r#"{"traceEvents":[]}"#));
        assert!(rows.is_empty() && i == 0 && c == 0);
        let (rows, _, _) = summarize(&doc(r#"{"other":1}"#));
        assert!(rows.is_empty());
    }

    #[test]
    fn report_round_trips_a_real_tracer_file() {
        use lsdgnn_core::telemetry::{pids, Tracer};
        let t = Tracer::new();
        t.span("service", "dispatch", pids::SERVICE, 0, 5.0, 40.0);
        t.span("service", "dispatch", pids::SERVICE, 0, 50.0, 10.0);
        t.instant("service", "submit", pids::SERVICE, 0, 1.0);
        let dir = std::env::temp_dir().join(format!("lsdgnn_trace_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trace.json");
        t.write_json(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read back");
        let (rows, instants, _) = summarize(&Json::parse(&text).expect("tracer output parses"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_us, 50.0);
        assert_eq!(instants, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

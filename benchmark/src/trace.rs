//! In-memory spans recorded from the benchmark's own files around each
//! call into a layer, written out once when the run ends.
//!
//! A span names the layer, the request it served and the span that
//! caused it. A layer's self time is its span minus the part its child
//! spans cover. The traced replay is sequential, so parents come from a
//! simple stack.

use lsdgnn_core::telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder. A disabled tracer takes the same calls and records
/// nothing, so the traced and untraced replays run identical code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in microseconds (measured whether or not tracing is on).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start_ns = self.now_ns();
        let id = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                req,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(id);
            id
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            self.stack.pop();
            self.spans[id as usize].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 / 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        self_time_ns(&self.spans)
    }

    /// Writes every span, with parent links, as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("req".into(), Json::Num(f64::from(s.req))),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let self_ns = self
            .self_time_ns()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
            .collect();
        let doc = Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            ("self_time_ns".into(), Json::Obj(self_ns)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// A span's duration minus the time its direct children cover, summed
/// per name.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("infer", None, 0, 100),
            span("sample", Some(0), 10, 40),
            span("leg", Some(1), 15, 25),
            span("gather", Some(0), 40, 70),
        ];
        let st = self_time_ns(&spans);
        assert_eq!(st["infer"], 100 - 30 - 30);
        assert_eq!(st["sample"], 30 - 10);
        assert_eq!(st["leg"], 10);
        assert_eq!(st["gather"], 30);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let ((), outer_us) = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        assert!(outer_us >= 0.0);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, us) = t.span("x", 0, |_| 5);
        assert_eq!(v, 5);
        assert!(us >= 0.0);
        assert!(t.spans().is_empty());
    }
}

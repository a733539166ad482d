//! The serving benches' one artifact writer.
//!
//! A bench puts its payload fields and its exact gates into a
//! [`Report`]; [`Report::finish`] prints one line per gate, writes the
//! JSON record — `bench`, `quick`, `seed`, the payload in insertion
//! order, then `gates`: `[{name, ok, observed, bound}]` — and fails the
//! run when a gate is false. The record is written first, so a failed
//! run still leaves the evidence of which gate broke and by how much.

use crate::util::outln;
use lsdgnn_core::telemetry::Json;

pub(crate) struct Report {
    fields: Vec<(String, Json)>,
    gates: Vec<Json>,
    failed: Vec<String>,
}

impl Report {
    pub(crate) fn new(bench: &str, quick: bool, seed: u64) -> Report {
        Report {
            fields: vec![
                ("bench".to_string(), Json::Str(bench.to_string())),
                ("quick".to_string(), Json::Bool(quick)),
                ("seed".to_string(), Json::Num(seed as f64)),
            ],
            gates: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Appends one payload field.
    pub(crate) fn put(&mut self, name: &str, value: Json) {
        self.fields.push((name.to_string(), value));
    }

    /// Appends one numeric payload field.
    pub(crate) fn num(&mut self, name: &str, value: f64) {
        self.put(name, Json::Num(value));
    }

    /// Records an exact gate: whether it held, what was observed and the
    /// bound it was held to.
    pub(crate) fn gate(&mut self, name: &str, ok: bool, observed: Json, bound: &str) {
        outln!(
            "  gate {name}: {} (observed {}, bound {bound})",
            if ok { "ok" } else { "FAILED" },
            observed.render()
        );
        if !ok {
            self.failed.push(name.to_string());
        }
        self.gates.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(name.to_string())),
            ("ok".to_string(), Json::Bool(ok)),
            ("observed".to_string(), observed),
            ("bound".to_string(), Json::Str(bound.to_string())),
        ]));
    }

    /// Writes the record to `out`, then panics naming every false gate.
    pub(crate) fn finish(mut self, out: &str) {
        self.fields
            .push(("gates".to_string(), Json::Arr(self.gates)));
        std::fs::write(out, Json::Obj(self.fields).render()).expect("write bench artifact");
        outln!("wrote {out}");
        assert!(
            self.failed.is_empty(),
            "gates failed: {} (see {out})",
            self.failed.join(", ")
        );
    }
}

/// A 64-bit digest as the artifacts print it.
pub(crate) fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

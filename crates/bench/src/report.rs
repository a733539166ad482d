//! The serving benches' one artifact writer.
//!
//! A bench puts its payload fields and its exact gates into a
//! [`Report`]; [`Report::finish`] prints one line per gate, writes the
//! JSON record — `bench`, `quick`, `seed`, the payload in insertion
//! order, then `gates`: `[{name, ok, observed, bound}]` — and fails the
//! run when a gate is false. The record is written first, so a failed
//! run still leaves the evidence of which gate broke and by how much.
//! [`check`] reads committed records back (`bench check BENCH_*.json`).

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
        println!(
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
        println!("wrote {out}");
        assert!(
            self.failed.is_empty(),
            "gates failed: {} (see {out})",
            self.failed.join(", ")
        );
    }
}

/// `bench check`: prints one line per record and returns whether every
/// one is a full run (`quick: false`) whose gates all held.
pub(crate) fn check(paths: &[String]) -> bool {
    let mut all_ok = true;
    for path in paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|record| check_record(&record));
        match verdict {
            Ok(gates) => println!("ok      {path}: full run, {gates} gates ok"),
            Err(why) => {
                println!("FAILED  {path}: {why}");
                all_ok = false;
            }
        }
    }
    all_ok
}

/// The number of gates of a full-run record with every gate `ok`, or
/// why the record fails.
fn check_record(record: &Json) -> Result<usize, String> {
    match record.get("quick") {
        Some(Json::Bool(false)) => {}
        other => {
            let quick = other.map_or("absent".to_string(), Json::render);
            return Err(format!("not a full run (quick: {quick})"));
        }
    }
    let gates = record
        .get("gates")
        .and_then(Json::as_arr)
        .filter(|g| !g.is_empty())
        .ok_or("no gates recorded")?;
    let failed: Vec<&str> = gates
        .iter()
        .filter(|g| g.get("ok") != Some(&Json::Bool(true)))
        .map(|g| g.get("name").and_then(Json::as_str).unwrap_or("(unnamed)"))
        .collect();
    if failed.is_empty() {
        Ok(gates.len())
    } else {
        Err(format!("gates not ok: {}", failed.join(", ")))
    }
}

/// A 64-bit digest as the artifacts print it.
pub(crate) fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(quick: &str, gates: &str) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"x","quick":{quick},"seed":42,"gates":{gates}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_full_run_with_every_gate_ok_passes() {
        let gates = r#"[{"name":"a","ok":true},{"name":"b","ok":true}]"#;
        assert_eq!(check_record(&record("false", gates)), Ok(2));
    }

    #[test]
    fn quick_runs_false_gates_and_missing_gates_fail() {
        let ok = r#"[{"name":"a","ok":true}]"#;
        assert!(check_record(&record("true", ok))
            .unwrap_err()
            .contains("quick: true"));
        let bad = r#"[{"name":"a","ok":true},{"name":"b","ok":false},{"name":"c"}]"#;
        assert_eq!(
            check_record(&record("false", bad)),
            Err("gates not ok: b, c".to_string())
        );
        assert!(check_record(&record("false", "[]")).is_err());
        assert!(check_record(&Json::parse(r#"{"quick":false}"#).unwrap()).is_err());
        assert!(check_record(&Json::parse(r#"{"gates":[]}"#).unwrap()).is_err());
    }
}

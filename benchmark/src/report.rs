//! What the benchmark prints and stores: the one-line result the driver
//! reads, the per-run document, the history line and `compare`.

use crate::host;
use crate::replay::Traced;
use crate::run::Outcome;
use crate::spec;
use crate::stats;
use lsdgnn_core::telemetry::Json;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn metric(value: f64, unit: &str) -> Json {
    obj(vec![
        ("value", num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&str, Json)>,
) -> String {
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", num(attempted.max(1) as f64)),
        ("failed", num(failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

pub fn end_to_end_line(o: &Outcome) -> String {
    let metrics = spec::END_TO_END
        .iter()
        .zip(&o.values)
        .map(|(m, v)| (m.name, metric(v.value, m.unit)))
        .collect();
    result_line(o.correct, o.attempted, o.failed, metrics)
}

pub fn per_layer_line(t: &Traced) -> String {
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| (m.name, metric(t.layers.get(m.name), m.unit)))
        .collect();
    result_line(t.correct, t.attempted, t.failed, metrics)
}

/// The end-to-end table of one workload, best round and median of
/// rounds beside each reported value.
pub fn print_end_to_end(workload: &str, o: &Outcome) {
    println!("{workload}: end-to-end (tracing off)");
    println!(
        "  {:<16} {:>14} {:<6} {:>14} {:>14} {:>8}",
        "metric", "value", "unit", "best round", "median round", "samples"
    );
    for (m, v) in spec::END_TO_END.iter().zip(&o.values) {
        println!(
            "  {:<16} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>8}",
            m.name,
            v.value,
            m.unit,
            m.better.best(&v.parts),
            stats::median(&v.parts),
            v.samples
        );
    }
}

pub fn print_per_layer(workload: &str, t: &Traced) {
    println!("{workload}: per-layer (traced replay; 0 = not on this workload's path)");
    for m in &spec::PER_LAYER {
        println!("  {:<34} {:>16.4} {}", m.name, t.layers.get(m.name), m.unit);
    }
}

/// The detail a child run hands its parent: per-round parts and sample
/// counts, which the result line has no room for.
pub fn end_to_end_detail(o: &Outcome) -> Json {
    let metrics = spec::END_TO_END
        .iter()
        .zip(&o.values)
        .map(|(m, v)| {
            let fields = vec![
                ("value", num(v.value)),
                ("unit", Json::Str(m.unit.into())),
                (
                    "parts",
                    Json::Arr(v.parts.iter().copied().map(num).collect()),
                ),
                ("samples", num(v.samples as f64)),
            ];
            (m.name, obj(fields))
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", num(o.attempted as f64)),
        ("failed", num(o.failed as f64)),
        ("end_to_end", obj(metrics)),
    ])
}

/// Who measured: stored with every run.
pub fn host_json(seed: u64, rounds: usize, seconds: f64, smoke: bool) -> Json {
    obj(vec![
        ("git_sha", Json::Str(host::git_sha())),
        ("host_cores", num(host::host_cores() as f64)),
        ("pinned_cpu", num(host::PINNED_CPU as f64)),
        ("cpu_model", Json::Str(host::cpu_model())),
        ("seed", num(seed as f64)),
        ("rounds", num(rounds as f64)),
        ("seconds", num(seconds)),
        ("smoke", Json::Bool(smoke)),
    ])
}

/// One `history.jsonl` line: who measured plus every end-to-end value.
pub fn history_line(run: &Json) -> String {
    let mut fields = run
        .get("host")
        .and_then(Json::as_obj)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let workloads = run
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(name, w)| {
            let values = w
                .get("end_to_end")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(m, v)| (m.clone(), v.get("value").cloned().unwrap_or(Json::Null)))
                .collect();
            (name.clone(), Json::Obj(values))
        })
        .collect();
    fields.push(("end_to_end".into(), Json::Obj(workloads)));
    Json::Obj(fields).render()
}

/// How `b` stands against the base `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The rounds' own spread is wider than the bound (or than the
    /// worsening seen): neither "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a worsening against the metric's bound and the noise seen
/// between rounds (as a share of the median).
pub fn judge(worsening: f64, bound: f64, spread: f64) -> Verdict {
    if worsening > bound {
        if worsening > spread {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn parts(m: &Json) -> Vec<f64> {
    m.get("parts")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// `compare a.json b.json`: per workload row, each end-to-end metric's
/// two values, their ratio with its base, the bound and the verdict.
/// Returns whether any metric is worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("not a run document: no `workloads`")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut any_worse = false;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>22} {:>7} {:>8}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    for (name, row_a) in &wa {
        let Some((_, row_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<14} missing from b");
            continue;
        };
        for m in &spec::END_TO_END {
            let pick = |row: &Json| row.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (pick(row_a), pick(row_b)) else {
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(&ma), value(&mb));
            let spread = stats::iqr_share(&parts(&ma)).max(stats::iqr_share(&parts(&mb)));
            let verdict = judge(m.better.worsening(va, vb), m.bound, spread);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>10.4} of {:>9.4} {:>7.2} {:>8.3}  {}",
                name,
                m.name,
                va,
                vb,
                vb / va,
                va,
                m.bound,
                spread,
                verdict.as_str()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    #[test]
    fn judge_separates_worse_from_noise() {
        assert_eq!(judge(0.02, 0.10, 0.01), Verdict::Ok);
        assert_eq!(judge(-0.30, 0.10, 0.01), Verdict::Ok);
        assert_eq!(judge(0.20, 0.10, 0.05), Verdict::Worse);
        // Worse than the bound, but the rounds themselves differ by more.
        assert_eq!(judge(0.20, 0.10, 0.30), Verdict::Unresolved);
        // Within the bound only because nothing can be resolved.
        assert_eq!(judge(0.02, 0.10, 0.30), Verdict::Unresolved);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
        assert_eq!(Better::Lower.best(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(Better::Higher.best(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, vec![("x", metric(1.5, "ms"))]);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let x = doc.get("metrics").and_then(|m| m.get("x")).unwrap();
        assert_eq!(x.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(x.get("unit").and_then(Json::as_str), Some("ms"));
    }
}

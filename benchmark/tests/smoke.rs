//! Runs the built benchmark at smoke sizes, every workload, end to end
//! and traced, and checks that the stored run lists every workload and
//! every metric the tables name.

use lsdgnn_core::telemetry::Json;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["sample_hot", "infer_uniform", "train_batch", "axe_poc"];
const END_TO_END: [&str; 7] = [
    "lat_p50_ms",
    "lat_p90_ms",
    "slo_share",
    "sat_rps",
    "cpu_ms_per_req",
    "peak_rss_mb",
    "setup_s",
];

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lsdgnn-benchmark"))
}

#[test]
fn smoke_run_lists_every_workload_and_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let status = benchmark()
        .args(["--smoke", "--traced", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "smoke run failed: {status}");

    let text = std::fs::read_to_string(out.join("run-seed5.json")).expect("stored run");
    let run = Json::parse(&text).expect("valid JSON");
    let host = run.get("host").expect("host block");
    for key in ["git_sha", "host_cores", "cpu_model", "seed", "rounds"] {
        assert!(host.get(key).is_some(), "host.{key}");
    }

    // The per-layer names come from the contract file itself.
    let contract = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract = Json::parse(&std::fs::read_to_string(contract).unwrap()).unwrap();
    let per_layer: Vec<&str> = contract
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert!(per_layer.len() > 60);

    for w in WORKLOADS {
        let row = run
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .unwrap_or_else(|| panic!("{w}"));
        assert_eq!(row.get("correct"), Some(&Json::Bool(true)), "{w} correct");
        assert_eq!(
            row.get("failed").and_then(Json::as_u64),
            Some(0),
            "{w} failed"
        );
        for m in END_TO_END {
            let v = row
                .get("end_to_end")
                .and_then(|e| e.get(m))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{w}.{m}"));
            assert!(v > 0.0, "{w}.{m} = {v}");
        }
        for m in &per_layer {
            let v = row
                .get("per_layer")
                .and_then(|l| l.get(m))
                .and_then(|m| m.get("value"));
            assert!(v.and_then(Json::as_f64).is_some(), "{w}.{m}");
        }
    }

    let trace = Json::parse(&std::fs::read_to_string(out.join("trace.json")).unwrap()).unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(spans
        .iter()
        .all(|s| s.get("parent").is_some() && s.get("name").is_some()));

    // A stored run compares clean against itself.
    let file = out.join("run-seed5.json");
    let status = benchmark()
        .arg("compare")
        .arg(&file)
        .arg(&file)
        .status()
        .unwrap();
    assert!(status.success());
}

#[test]
fn bad_arguments_exit_with_usage() {
    let status = benchmark().args(["--workload", "nope"]).status().unwrap();
    assert_eq!(status.code(), Some(2));
}

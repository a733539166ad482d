//! Smoke runs of the bench binary: each serving bench at `--quick`
//! under two seeds, the DES-only ablations with `--metrics-out`, and
//! `trace-report`'s refusal of a second file.
//! Run-to-run identity at a fixed seed is checked by `ci.sh`, which
//! `cmp`s a full run of each serving bench with its committed
//! `BENCH_<name>.json`.

use std::path::Path;
use std::process::Command;

/// DES-only ablation experiments — deterministic at fixed scale.
const SELECTION: [&str; 3] = ["ablation-cache", "ablation-outstanding", "ablation-packing"];

#[test]
fn ablations_export_their_metrics() {
    let dir = std::env::temp_dir().join(format!("lsdgnn_ablations_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let metrics = dir.join("metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lsdgnn-bench"))
        .args(SELECTION)
        .arg("--metrics-out")
        .arg(&metrics)
        .env("LSDGNN_SCALE", "600")
        .env("LSDGNN_BATCHES", "1")
        .output()
        .expect("spawn bench binary");
    assert!(
        out.status.success(),
        "bench {SELECTION:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let export = std::fs::read(&metrics).expect("metrics written");
    assert!(!export.is_empty(), "metrics export is non-empty");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let wrote = format!(" metrics to {}", metrics.display());
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("wrote ") && l.ends_with(&wrote)),
        "stdout lacks the `wrote N metrics` line:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace-report` summarises one trace file: a second one is refused
/// with the usage text and exit code 2, before any file is read.
#[test]
fn trace_report_refuses_a_second_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_lsdgnn-bench"))
        .args(["trace-report", "a.json", "b.json"])
        .output()
        .expect("spawn bench binary");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument `b.json`")
            && stderr.contains("trace-report <trace.json>"),
        "{stderr}"
    );
}

/// Runs `<bench> --quick --seed <seed>`, returning the artifact.
fn run_bench(bench: &str, seed: &str, out: &Path) -> String {
    let cmd = Command::new(env!("CARGO_BIN_EXE_lsdgnn-bench"))
        .args([bench, "--quick", "--seed", seed, "--out"])
        .arg(out)
        .output()
        .expect("spawn bench binary");
    assert!(
        cmd.status.success(),
        "{bench} --seed {seed} failed: {}",
        String::from_utf8_lossy(&cmd.stderr)
    );
    std::fs::read_to_string(out).expect("artifact written")
}

/// A seeded serving bench exits 0 (every gate held), writes an artifact
/// carrying every one of `markers` (its own exact gates), and the seed
/// is part of that artifact's identity: seed 43 changes it.
fn assert_quick_run(bench: &str, markers: &[&str]) {
    let dir = std::env::temp_dir().join(format!("lsdgnn_{bench}_quick_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");

    let art = run_bench(bench, "42", &dir.join("seed42.json"));
    assert!(!art.is_empty(), "{bench} artifact is non-empty");
    for marker in markers {
        assert!(art.contains(marker), "{bench} artifact lacks {marker}");
    }
    let other = run_bench(bench, "43", &dir.join("seed43.json"));
    assert_ne!(art, other, "{bench}: the seed must be part of the identity");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_quick_run() {
    // The artifact carries the fault-plan fingerprints.
    assert_quick_run("chaos", &["\"plan_digest\""]);
}

#[test]
fn wire_quick_run() {
    // Every reorder/compression arm back-maps to identical samples, and
    // BDI shrinks the sampled remote traffic.
    let gates = [
        "\"name\":\"digests_equivalent\",\"ok\":true",
        "\"name\":\"compression_ratio_ok\",\"ok\":true",
    ];
    assert_quick_run("wire", &gates);
}

#[test]
fn traffic_quick_run() {
    // Unshaped replays the plain service; shaping improves interactive
    // SLO attainment; shaped lanes stay bounded.
    let gates = [
        "\"name\":\"digests_match\",\"ok\":true",
        "\"name\":\"slo_met_improved\",\"ok\":true",
        "\"name\":\"no_unbounded_queue\",\"ok\":true",
    ];
    assert_quick_run("traffic", &gates);
}

#[test]
fn inference_quick_run() {
    // Neither in-flight depth nor recording changes an answer, blame
    // names each injected fault, and the chaos plans follow the seed.
    let gates = [
        "\"name\":\"digests_match\",\"ok\":true",
        "\"name\":\"chaos_digests_match\",\"ok\":true",
        "\"name\":\"blame_names_fault\",\"ok\":true",
        "\"top_fault\":\"request_loss\"",
        "\"top_fault\":\"card_down\"",
        "\"top_fault\":\"queue_stall\"",
    ];
    assert_quick_run("inference", &gates);
}

#[test]
fn cache_quick_run() {
    // Cached arms digest-match the cache-off arm, the warm cache cuts
    // remote requests, hits skip WirePlane accounting, and blame
    // attributes time to cache_hit.
    let gates = [
        "\"name\":\"digests_match\",\"ok\":true",
        "\"name\":\"remote_cut_ok\",\"ok\":true",
        "\"name\":\"wire_cut_ok\",\"ok\":true",
        "\"name\":\"cache_hit_blamed\",\"ok\":true",
    ];
    assert_quick_run("cache", &gates);
}

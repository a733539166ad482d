//! Parallel-harness parity: `--jobs 4` must produce byte-identical
//! stdout and metrics output to `--jobs 1` for the same experiment
//! selection. The harness promises parity by construction (private
//! per-worker registries merged in selection order, captured output
//! streamed in selection order), and this test pins that promise.
//!
//! The selection is restricted to pure-DES experiments: the wall-clock
//! serving experiments (fig2b, fig14) measure real thread latencies and
//! differ even between two identical serial runs.

use std::path::{Path, PathBuf};
use std::process::Command;

/// DES-only ablation experiments — deterministic at fixed scale.
const SELECTION: [&str; 3] = ["ablation-cache", "ablation-outstanding", "ablation-packing"];

fn run(jobs: &str, metrics_out: &PathBuf) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_lsdgnn-bench"))
        .args(SELECTION)
        .args(["--jobs", jobs, "--metrics-out"])
        .arg(metrics_out)
        .env("LSDGNN_SCALE", "600")
        .env("LSDGNN_BATCHES", "1")
        .output()
        .expect("spawn bench binary");
    assert!(
        out.status.success(),
        "bench --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn jobs4_output_is_byte_identical_to_serial() {
    let dir = std::env::temp_dir().join(format!("lsdgnn_jobs_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let serial_metrics = dir.join("serial.json");
    let parallel_metrics = dir.join("parallel.json");

    let serial_stdout = run("1", &serial_metrics);
    let parallel_stdout = run("4", &parallel_metrics);

    // The final `wrote N metrics to <path>` line necessarily names the
    // per-run output file — mask the path, keep the metric count.
    let normalize = |stdout: &[u8], path: &PathBuf| {
        String::from_utf8_lossy(stdout).replace(&path.display().to_string(), "<metrics-out>")
    };
    assert_eq!(
        normalize(&serial_stdout, &serial_metrics),
        normalize(&parallel_stdout, &parallel_metrics),
        "stdout must not depend on --jobs"
    );
    let serial = std::fs::read(&serial_metrics).expect("serial metrics written");
    let parallel = std::fs::read(&parallel_metrics).expect("parallel metrics written");
    assert!(!serial.is_empty(), "metrics export is non-empty");
    assert_eq!(
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&parallel),
        "metrics export must not depend on --jobs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `<bench> --quick`, returning stdout (artifact path masked) and
/// the artifact.
fn run_bench(bench: &str, jobs: &str, seed: &str, out: &Path) -> (String, String) {
    let cmd = Command::new(env!("CARGO_BIN_EXE_lsdgnn-bench"))
        .args([bench, "--quick", "--jobs", jobs, "--seed", seed, "--out"])
        .arg(out)
        .output()
        .expect("spawn bench binary");
    assert!(
        cmd.status.success(),
        "{bench} --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&cmd.stderr)
    );
    let stdout = String::from_utf8_lossy(&cmd.stdout).replace(&out.display().to_string(), "<out>");
    let artifact = std::fs::read_to_string(out).expect("artifact written");
    (stdout, artifact)
}

/// A seeded serving bench reads no clock: plans, traces, permutations,
/// verdicts, counters and digests are a pure function of `(seed,
/// --quick)` and never depend on scheduling, so stdout and the artifact
/// must be byte-identical across `--jobs 1` and `--jobs 4`. The
/// artifact must carry every one of `markers` (its own exact gates), and
/// where the seed drives the measured stream (`seed_is_identity`) a
/// different seed must change it.
fn assert_jobs_parity(bench: &str, seed_is_identity: bool, markers: &[&str]) {
    let dir = std::env::temp_dir().join(format!("lsdgnn_{bench}_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");

    let (out1, art1) = run_bench(bench, "1", "42", &dir.join("j1.json"));
    let (out4, art4) = run_bench(bench, "4", "42", &dir.join("j4.json"));
    assert_eq!(out1, out4, "{bench} stdout must not depend on --jobs");
    assert!(!art1.is_empty(), "{bench} artifact is non-empty");
    assert_eq!(art1, art4, "{bench} artifact must not depend on --jobs");
    for marker in markers {
        assert!(art1.contains(marker), "{bench} artifact lacks {marker}");
    }
    if seed_is_identity {
        let (_, other) = run_bench(bench, "1", "43", &dir.join("seed43.json"));
        assert_ne!(
            art1, other,
            "{bench}: the seed must be part of the identity"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_sweep_is_byte_identical_across_jobs() {
    // The artifact carries the fault-plan fingerprints.
    assert_jobs_parity("chaos", true, &["\"plan_digest\""]);
}

#[test]
fn wire_artifact_is_byte_identical_across_jobs() {
    // Every reorder/compression arm back-maps to identical samples, and
    // BDI shrinks the sampled remote traffic.
    let gates = [
        "\"name\":\"digests_equivalent\",\"ok\":true",
        "\"name\":\"compression_ratio_ok\",\"ok\":true",
    ];
    assert_jobs_parity("wire", true, &gates);
}

#[test]
fn traffic_artifact_is_byte_identical_across_jobs() {
    // Unshaped replays the plain service; shaping improves interactive
    // SLO attainment; shaped lanes stay bounded.
    let gates = [
        "\"name\":\"digests_match\",\"ok\":true",
        "\"name\":\"slo_met_improved\",\"ok\":true",
        "\"name\":\"no_unbounded_queue\",\"ok\":true",
    ];
    assert_jobs_parity("traffic", true, &gates);
}

#[test]
fn inference_artifact_is_byte_identical_across_jobs() {
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
    assert_jobs_parity("inference", true, &gates);
}

#[test]
fn cache_artifact_is_byte_identical_across_jobs() {
    // Cached arms digest-match the cache-off arm, the warm cache cuts
    // remote requests, hits skip WirePlane accounting, and blame
    // attributes time to cache_hit.
    let gates = [
        "\"name\":\"digests_match\",\"ok\":true",
        "\"name\":\"remote_cut_ok\",\"ok\":true",
        "\"name\":\"wire_cut_ok\",\"ok\":true",
        "\"name\":\"cache_hit_blamed\",\"ok\":true",
    ];
    assert_jobs_parity("cache", true, &gates);
}

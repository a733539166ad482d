//! The benchmark's contract in one place: workload names, every metric's
//! name, unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repo root lists the same rows; a unit test
//! keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Relative worsening of `b` against the base `a` (positive = worse).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }

    /// The best of `values` in this direction.
    pub fn best(self, values: &[f64]) -> f64 {
        let it = values.iter().copied();
        match self {
            Better::Lower => it.fold(f64::INFINITY, f64::min),
            Better::Higher => it.fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One workload: its fixed name and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SAMPLE_HOT: &str = "sample_hot";
pub const INFER_UNIFORM: &str = "infer_uniform";
pub const TRAIN_BATCH: &str = "train_batch";
pub const AXE_POC: &str = "axe_poc";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: SAMPLE_HOT,
        why: "tiny cache-absorbed requests through ShapedService: fixed per-request cost (admission, lanes, channels, batch close) dominates",
    },
    Workload {
        name: INFER_UNIFORM,
        why: "uniform roots through InferenceService: remote legs, cache miss/admission path, coalesced gather and GEMM dominate; no admission",
    },
    Workload {
        name: TRAIN_BATCH,
        why: "few huge frontiers (256 roots) through the same cluster/cache/wire/pool code: bulk throughput, negligible queueing",
    },
    Workload {
        name: AXE_POC,
        why: "the paper's simulated AxE on the desim kernel: touches no serving code, simulated statistics must repeat exactly",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bounds are what the 2-vCPU reference host can resolve: between
/// identical runs its neighbours move the timings by 3-12 % (see the
/// README's spread table), so a tighter bound would reject changes for
/// the weather. `setup_s` comes last by the driver's convention.
pub const END_TO_END: [EndToEnd; 7] = [
    end_to_end("lat_p50_ms", "ms", Better::Lower, 0.25),
    end_to_end("lat_p90_ms", "ms", Better::Lower, 0.25),
    end_to_end("slo_share", "share", Better::Higher, 0.05),
    end_to_end("sat_rps", "1/s", Better::Higher, 0.25),
    end_to_end("cpu_ms_per_req", "ms", Better::Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.25),
    end_to_end("setup_s", "s", Better::Lower, 0.25),
];

/// A per-layer metric from the traced pass. A value of 0 on a workload
/// means the layer is not on that workload's path.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 69] = [
    // framework::admission
    lower("admission.decide_ns", "ns"),
    lower("admission.submit_us", "us"),
    lower("admission.overhead_us", "us"),
    higher("admission.accepted", "count"),
    lower("admission.rejected", "count"),
    lower("admission.shed", "count"),
    // framework::service
    lower("service.overhead_us", "us"),
    higher("service.batch_size_mean", "count"),
    lower("service.queue_depth_p50", "count"),
    lower("service.dispatches_per_req", "count"),
    // shims/crossbeam channel
    lower("chan.pingpong_us", "us"),
    lower("chan.send_recv_ns", "ns"),
    // framework::cluster + pool
    lower("cluster.sample_us", "us"),
    lower("cluster.gather_us", "us"),
    lower("cluster.nodes_per_req", "count"),
    lower("cluster.remote_requests_per_req", "count"),
    lower("cluster.remote_fraction", "share"),
    higher("cluster.coalesce_hit_rate", "share"),
    higher("cluster.attr_coalesce_hit_rate", "share"),
    higher("cluster.frontier_line_hit_rate", "share"),
    higher("pool.reuse_rate", "share"),
    // framework::hot_cache
    higher("cache.neigh_hit_rate", "share"),
    higher("cache.attr_hit_rate", "share"),
    lower("cache.admits_per_req", "count"),
    lower("cache.evicts_per_req", "count"),
    lower("cache.rejects_per_req", "count"),
    lower("cache.delta_sample_us", "us"),
    lower("cache.delta_gather_us", "us"),
    // wire plane + mof
    lower("wire.bytes_per_req", "B"),
    lower("wire.remote_legs_per_req", "count"),
    higher("wire.compression_ratio", "ratio"),
    higher("wire.packing_occupancy", "share"),
    lower("wire.sim_us_per_req", "us"),
    lower("wire.delta_sample_us", "us"),
    lower("mof.pack_ns_per_addr", "ns"),
    lower("mof.bdi_ns_per_line", "ns"),
    // framework::inference
    lower("inference.gather_us", "us"),
    lower("inference.compute_us", "us"),
    higher("inference.gather_batch_mean", "count"),
    lower("inference.pipeline_overhead_us", "us"),
    // nn
    lower("nn.forward_us", "us"),
    lower("nn.macs_per_req", "count"),
    higher("nn.gmacs_per_s", "1/s"),
    // sampler
    lower("sampler.pick_ns_per_draw", "ns"),
    // telemetry / framework::obs guardrails
    lower("obs.overhead_frac", "share"),
    lower("trace.overhead_frac", "share"),
    // axe / memfabric (simulated, exact for a seed)
    higher("axe.sim_samples_per_s", "1/s"),
    higher("axe.cache_hit_rate", "share"),
    higher("axe.avg_outstanding", "count"),
    lower("axe.avg_request_latency_ns", "ns"),
    higher("axe.local_utilization", "share"),
    higher("axe.remote_utilization", "share"),
    higher("axe.output_utilization", "share"),
    lower("axe.requests", "count"),
    higher("axe.vcpu_equiv", "count"),
    // desim, riscv, axe on the host
    higher("axe.host_samples_per_s", "1/s"),
    lower("axe.host_ns_per_request", "ns"),
    higher("desim.events_per_s", "1/s"),
    higher("riscv.host_mips", "1/us"),
    // graph
    lower("graph.build_s", "s"),
    lower("graph.partition_s", "s"),
    lower("graph.bytes", "B"),
    // budget row (infer_uniform) and the one-in-flight replay
    lower("budget.e2e_p50_us", "us"),
    lower("budget.sum_us", "us"),
    lower("budget.residual_frac", "share"),
    lower("replay.p50_us", "us"),
    higher("replay.requests", "count"),
    higher("replay.spans", "count"),
    // the correctness gate
    higher("digest.checked", "count"),
];

/// The command the driver appends `--workload .. --seed .. --seconds ..
/// --trace ..` to, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures.
pub const RUN_SECONDS: u64 = 26;

/// `BENCHMARK.json` as generated from the tables above
/// (`benchmark spec > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
        q.join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {:?}, \"why\": {:?}}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}, \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        RUN_SECONDS,
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdgnn_core::telemetry::Json;

    /// `BENCHMARK.json` at the repo root is exactly what the tables above
    /// generate, and has exactly the contract's keys.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, benchmark_json(), "regenerate with `benchmark spec`");
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() < 64 * 1024);
    }

    #[test]
    fn names_are_unique_and_bounds_within_the_contract() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert_eq!(END_TO_END.last().map(|m| m.name), Some("setup_s"));
    }
}

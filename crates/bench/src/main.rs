//! `tables` — regenerates every table and figure of the paper's
//! evaluation from the reproduction library.
//!
//! ```text
//! cargo run -p lsdgnn-bench --release -- all
//! cargo run -p lsdgnn-bench --release -- fig14 fig21
//! cargo run -p lsdgnn-bench --release -- fig14 \
//!     --metrics-out results/metrics.json --trace-out results/trace.json
//! cargo run -p lsdgnn-bench --release -- cache --quick --seed 7 --out /tmp/cache.json
//! cargo run -p lsdgnn-bench --release -- check BENCH_*.json
//! ```
//!
//! Flags:
//! * `--metrics-out <path.json>` — write the telemetry registry snapshot
//!   (every metric the selected experiments registered) as JSON
//! * `--trace-out <path.json>`   — record spans during the simulated runs
//!   and write Chrome trace-event JSON (open in Perfetto)
//! * `--quick`, `--seed N`, `--out <path.json>` — (with a serving bench
//!   of `BENCHES`) a fast smoke-sized run, the workload seed, and
//!   where the artifact goes
//!
//! Environment:
//! * `LSDGNN_SCALE`   — max nodes for scaled-down graphs (default 4000)
//! * `LSDGNN_BATCHES` — mini-batches per DES measurement (default 3)

#![forbid(unsafe_code)]

mod ablations;
mod cache_exp;
mod chaos_exp;
mod characterization;
mod faas_exp;
mod inference;
mod microarch;
mod poc;
mod report;
mod trace_report;
mod traffic_exp;
mod util;
mod wire;
mod workload;

use util::Telemetry;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Per-invocation experiment inputs shared by every entry point.
struct Ctx {
    scale: u64,
    batches: u32,
}

type ExpFn = fn(&Ctx, &mut Telemetry);

/// Every experiment, in `all` order. Names must be unique — the
/// selection validator rejects duplicates against this table.
const EXPERIMENTS: &[(&str, ExpFn)] = &[
    ("fig2a", |_, _| characterization::fig2a()),
    ("fig2b", |c, t| characterization::fig2b(c.scale, t)),
    ("fig2c", |c, _| characterization::fig2c(c.scale)),
    ("fig2d", |_, _| characterization::fig2d()),
    ("fig2e", |_, _| characterization::fig2e()),
    ("fig3", |_, _| characterization::fig3()),
    ("fig7", |_, _| microarch::fig7()),
    ("table5", |_, _| microarch::table5()),
    ("table6", |_, _| microarch::table6()),
    ("table7", |_, _| microarch::table7()),
    ("tech2", |_, _| microarch::tech2()),
    ("tech3", |_, _| microarch::tech3()),
    ("table11", |_, _| microarch::table11()),
    ("fig14", |c, t| poc::fig14(c.scale, c.batches, t)),
    ("fig15", |c, _| poc::fig15(c.scale, c.batches)),
    ("fig16", |_, _| faas_exp::fig16()),
    ("fig17", |_, _| faas_exp::fig17()),
    ("fig18", |_, _| faas_exp::fig18()),
    ("fig19", |_, _| faas_exp::fig19()),
    ("fig20", |_, _| faas_exp::fig20()),
    ("fig21", |_, _| faas_exp::fig21()),
    ("ablations", |c, t| ablations::all(c.scale, c.batches, t)),
    ("limit2", |_, _| faas_exp::limit2()),
    ("discussion", |_, _| faas_exp::discussion()),
    ("planner", |_, _| faas_exp::planner()),
];

/// Subcommands valid on the command line but excluded from `all` (they
/// write files or sweep what `all` already covers).
const EXTRA: &[(&str, ExpFn)] = &[
    ("export-csv", |_, _| faas_exp::export_csv()),
    ("ablation-cache", |c, t| {
        ablations::cache_sweep(c.scale, c.batches, t)
    }),
    ("ablation-cores", |c, _| {
        ablations::core_sweep(c.scale, c.batches)
    }),
    ("ablation-packing", |_, _| ablations::packing_sweep()),
    ("ablation-outstanding", |c, _| {
        ablations::outstanding_sweep(c.scale, c.batches)
    }),
    ("ablation-serving", |c, _| {
        ablations::serving_sweep(c.scale, c.batches)
    }),
];

/// A serving bench: `(quick, seed, artifact path)`. It serves a scenario
/// of `workload.rs` and writes its exact gates and one JSON artifact, a
/// pure function of `(seed, quick)`, through `report::Report`.
type BenchFn = fn(bool, u64, &str);

/// The serving benches, run on their own (never with an experiment or
/// another bench), with the artifact each writes when `--out` is absent.
const BENCHES: &[(&str, BenchFn, &str)] = &[
    ("chaos", chaos_exp::chaos, "BENCH_chaos.json"),
    ("wire", wire::wire, "BENCH_wire.json"),
    ("inference", inference::inference, "BENCH_inference.json"),
    ("traffic", traffic_exp::traffic, "BENCH_traffic.json"),
    ("cache", cache_exp::cache, "BENCH_cache.json"),
];

fn lookup(name: &str) -> Option<ExpFn> {
    EXPERIMENTS
        .iter()
        .chain(EXTRA)
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
}

fn usage_and_exit(unknown: &str) -> ! {
    eprintln!("unknown argument `{unknown}`; available:");
    let names: Vec<&str> = EXPERIMENTS.iter().chain(EXTRA).map(|(n, _)| *n).collect();
    eprintln!("  all {}", names.join(" "));
    let benches: Vec<&str> = BENCHES.iter().map(|(n, _, _)| *n).collect();
    eprintln!(
        "  {} [--quick] [--seed N] [--out path]   serving benches: exact gates, one artifact each",
        benches.join("|")
    );
    eprintln!("  trace-report <trace.json>   per-stage summary of a --trace-out Chrome trace");
    eprintln!("  check <BENCH_*.json ...>    every record a full run with every gate ok");
    eprintln!("(see DESIGN.md for the experiment index)");
    std::process::exit(2);
}

fn main() {
    let scale = env_u64("LSDGNN_SCALE", 4_000);
    let batches = env_u64("LSDGNN_BATCHES", 3) as u32;

    let mut metrics_out = None;
    let mut trace_out = None;
    let mut quick = false;
    let mut seed = 42u64;
    let mut out = None;
    let mut args = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if let Some(v) = a.strip_prefix("--metrics-out=") {
            metrics_out = Some(v.to_string());
        } else if a == "--metrics-out" {
            metrics_out = Some(raw.next().expect("--metrics-out needs a path"));
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            trace_out = Some(v.to_string());
        } else if a == "--trace-out" {
            trace_out = Some(raw.next().expect("--trace-out needs a path"));
        } else if a == "--quick" {
            quick = true;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed needs a number");
        } else if a == "--seed" {
            seed = raw
                .next()
                .expect("--seed needs a number")
                .parse()
                .expect("--seed needs a number");
        } else if let Some(v) = a.strip_prefix("--out=") {
            out = Some(v.to_string());
        } else if a == "--out" {
            out = Some(raw.next().expect("--out needs a path"));
        } else {
            args.push(a);
        }
    }

    if let Some((name, bench, path)) = BENCHES
        .iter()
        .find(|(name, _, _)| args.iter().any(|a| a == name))
    {
        if let Some(extra) = args.iter().find(|a| a != name) {
            usage_and_exit(extra);
        }
        bench(quick, seed, out.as_deref().unwrap_or(path));
        return;
    }
    if args.iter().any(|a| a == "trace-report") {
        let mut files = args.iter().filter(|a| *a != "trace-report");
        let path = files.next().cloned().or(out);
        if let Some(extra) = files.next() {
            usage_and_exit(extra);
        }
        match path {
            Some(p) => trace_report::trace_report(&p),
            None => {
                eprintln!("trace-report needs a trace file: bench trace-report <trace.json>");
                std::process::exit(2);
            }
        }
        return;
    }

    if args.first().is_some_and(|a| a == "check") {
        if args.len() == 1 {
            eprintln!("check needs bench records: bench check BENCH_*.json");
            std::process::exit(2);
        }
        if !report::check(&args[1..]) {
            std::process::exit(1);
        }
        return;
    }

    for (i, name) in args.iter().enumerate() {
        if name != "all" && lookup(name).is_none() {
            usage_and_exit(name);
        }
        if args[..i].contains(name) {
            eprintln!("duplicate experiment `{name}`: each experiment registers its metrics once; pass each name once");
            std::process::exit(2);
        }
    }
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(n, _)| *n).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let ctx = Ctx { scale, batches };
    let mut tel = Telemetry::new(metrics_out, trace_out);
    for name in selected {
        lookup(name).expect("selection validated")(&ctx, &mut tel);
    }
    tel.finish();
}

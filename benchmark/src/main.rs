//! The repo's benchmark: four workloads, end-to-end metrics with bounds,
//! and a per-layer budget from a traced replay. See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--rounds R] [--traced] [--smoke] [--out DIR] [--record]
//!                                                           every workload, stored as DIR/run-seedN.json
//! benchmark compare a.json b.json                           two stored runs, metric by metric
//! benchmark spec                                            BENCHMARK.json, from the tables in spec.rs
//! ```

mod host;
mod layers;
mod load;
mod replay;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use lsdgnn_core::telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--traced] [--rounds R] [--smoke] [--out DIR] [--record] | compare a.json b.json | spec";

/// Marks the line on which a single run hands its parent the per-round
/// detail that the contract's result line has no room for.
const DETAIL: &str = "#detail ";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    rounds: usize,
    smoke: bool,
    out: PathBuf,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        traced: false,
        rounds: 4,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::WORKLOADS.iter().any(|x| x.name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("must be within (0, 600]"));
                }
            }
            "--trace" => a.traced = value()? == "1",
            "--traced" => a.traced = true,
            "--rounds" => {
                a.rounds = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if !(1..=16).contains(&a.rounds) {
                    return Err(bad("must be within 1..=16"));
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--record" => a.record = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.smoke {
        a.rounds = 1;
    }
    if a.seconds == 0.0 {
        a.seconds = if a.smoke {
            1.2
        } else {
            spec::RUN_SECONDS as f64
        };
    }
    Ok(a)
}

/// One workload, one pass: what the driver runs. The last line printed
/// is the result object.
fn single(a: &Args, workload: &str) -> ExitCode {
    let scale = if a.smoke {
        workloads::SMOKE
    } else {
        workloads::FULL
    };
    let host_cores = host::host_cores();
    // Before any thread exists, so that every thread inherits it.
    let pinned = host::pin_to_one_cpu();
    let why = spec::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.why);
    println!("{workload}: {why}");
    println!(
        "{workload}: seed {} seconds {} rounds {} host_cores {} ({}) cpu `{}` git {}{}",
        a.seed,
        a.seconds,
        a.rounds,
        host_cores,
        if pinned {
            format!("pinned to cpu {}", host::PINNED_CPU)
        } else {
            "NOT PINNED: the kernel refused".into()
        },
        host::cpu_model(),
        host::git_sha(),
        if a.smoke { " (smoke sizes)" } else { "" },
    );
    let (line, correct) = if a.traced {
        let t = replay::traced(workload, a.seed, a.seconds, &scale);
        t.notes.iter().for_each(|n| println!("  {n}"));
        report::print_per_layer(workload, &t);
        let path = a.out.join("trace.json");
        match t.tracer.write_json(&path) {
            Ok(()) => println!(
                "  {} spans written to {}",
                t.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        (report::per_layer_line(&t), t.correct)
    } else {
        let o = run::end_to_end(workload, a.seed, a.seconds, a.rounds, &scale);
        o.notes.iter().for_each(|n| println!("  {n}"));
        report::print_end_to_end(workload, &o);
        println!("{DETAIL}{}", report::end_to_end_detail(&o).render());
        (report::end_to_end_line(&o), o.correct)
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{workload}: the correctness gate failed (see the notes above)");
        ExitCode::FAILURE
    }
}

/// Runs this program again for one workload and returns its standard
/// output. A process per workload keeps `peak_rss_mb` and every other
/// number identical to what the driver's single runs measure.
fn child(a: &Args, workload: &str, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--rounds", &a.rounds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(traced),
            output.status
        ))
    }
}

/// Parses what follows `marker` on the last line of `stdout` that
/// starts with it.
fn last_json(stdout: &str, marker: &str) -> Result<Json, String> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(marker))
        .ok_or("a run printed no result")?;
    Json::parse(line).map_err(|e| e.to_string())
}

/// Every workload in turn, stored as one run document.
fn all(a: &Args) -> Result<(), String> {
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        let mut row = match last_json(&child(a, w.name, false)?, DETAIL)? {
            Json::Obj(fields) => fields,
            _ => return Err("malformed detail line".into()),
        };
        if a.traced {
            // The empty marker matches the last line: the result object.
            let line = last_json(&child(a, w.name, true)?, "")?;
            let layers = line.get("metrics").cloned().unwrap_or(Json::Null);
            row.push(("per_layer".into(), layers));
        }
        rows.push((w.name.to_string(), Json::Obj(row)));
    }
    let run = Json::Obj(vec![
        (
            "host".into(),
            report::host_json(a.seed, a.rounds, a.seconds, a.smoke),
        ),
        ("workloads".into(), Json::Obj(rows)),
    ]);
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let path = a.out.join(format!("run-seed{}.json", a.seed));
    std::fs::write(&path, run.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("run stored in {}", path.display());
    if a.record {
        use std::io::Write;
        let history = Path::new("benchmark/history.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history)
            .map_err(|e| format!("{}: {e}", history.display()))?;
        writeln!(f, "{}", report::history_line(&run)).map_err(|e| e.to_string())?;
        println!("one line appended to {}", history.display());
    }
    Ok(())
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err(format!("compare takes two stored runs\n{USAGE}"));
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    report::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let failed = |e: String| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    if argv.first().is_some_and(|a| a == "compare") {
        return match compare(&argv[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => failed(e),
        };
    }
    if argv == ["spec"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match parse(&argv) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(a) => match a.workload.clone() {
            Some(w) => single(&a, &w),
            None => all(&a).map_or_else(failed, |()| ExitCode::SUCCESS),
        },
    }
}

//! The end-to-end run of one workload: set the system up, drive it
//! through its phases in interleaved rounds with tracing off, check what
//! came back, and reduce the rounds to the end-to-end metrics.

use crate::host;
use crate::layers::{
    reference_mismatches, Arm, AxeCall, Graph, HotDoor, InferDoor, SampleDoor, ServiceCounters,
    Shaping,
};
use crate::load::{self, Call, Door, Phase, Reply, Window};
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self as wl, Profile, Request, RequestStream, Scale};
use std::time::{Duration, Instant};

/// A workload's front door, whichever shape it has.
pub enum FrontDoor {
    Hot(HotDoor),
    Infer(InferDoor),
    Train(SampleDoor),
    Axe(AxeCall),
}

/// Answers kept per phase for the correctness gate.
const KEEP: usize = 24;

/// Runs a ticketed submit + wait under `door.submit` / `door.wait` spans.
fn one_ticketed<D: Door>(door: &D, req: Request, i: u32, t: &mut Tracer) -> (Reply, f64) {
    let (ticket, submit_us) = t.span("door.submit", i, |_| door.submit(req));
    let ticket = ticket.expect("the replay is never refused");
    let (reply, _) = t.span("door.wait", i, |_| door.wait(ticket));
    (reply, submit_us)
}

impl FrontDoor {
    /// Starts a serving workload's front door over the fixed system
    /// under test (axe_poc's is built with its own graph).
    pub fn start(workload: &str, g: &Graph, observed: bool) -> Self {
        match workload {
            spec::SAMPLE_HOT => FrontDoor::Hot(HotDoor::start(g, Shaping::Finite, observed)),
            spec::INFER_UNIFORM => FrontDoor::Infer(InferDoor::start(g, observed)),
            spec::TRAIN_BATCH => FrontDoor::Train(SampleDoor::start(g, Arm::WiredCached, observed)),
            other => panic!("`{other}` has no serving front door"),
        }
    }

    /// One request, nothing else in flight. Returns the reply and the
    /// caller's time inside `submit` (0 for blocking doors).
    pub fn one(&self, req: Request, i: u32, t: &mut Tracer) -> (Reply, f64) {
        match self {
            FrontDoor::Hot(d) => one_ticketed(d, req, i, t),
            FrontDoor::Infer(d) => one_ticketed(d, req, i, t),
            FrontDoor::Train(d) => (d.call(&req), 0.0),
            FrontDoor::Axe(d) => (d.call(&req), 0.0),
        }
    }

    pub fn open(&self, reqs: &mut RequestStream, offsets: &[f64]) -> Phase {
        match self {
            FrontDoor::Hot(d) => load::open_loop(d, reqs, offsets, KEEP),
            FrontDoor::Infer(d) => load::open_loop(d, reqs, offsets, KEEP),
            FrontDoor::Train(_) | FrontDoor::Axe(_) => panic!("a blocking door has no open loop"),
        }
    }

    /// Closed loop at the profile's concurrency: requests in flight for
    /// ticketed doors, client threads for blocking ones.
    pub fn closed(&self, p: &Profile, reqs: &mut RequestStream, duration: Duration) -> Phase {
        // Each blocking client continues the workload's stream from its
        // own offset, so clients never replay each other's requests.
        let clients = |reqs: &mut RequestStream| -> Vec<RequestStream> {
            (0..p.concurrency)
                .map(|_| {
                    let own = reqs.clone();
                    reqs.nth(4095);
                    own
                })
                .collect()
        };
        match self {
            FrontDoor::Hot(d) => load::closed_window(d, reqs, p.concurrency, duration, KEEP),
            FrontDoor::Infer(d) => load::closed_window(d, reqs, p.concurrency, duration, KEEP),
            FrontDoor::Train(d) => load::closed_clients(d, clients(reqs), duration, KEEP),
            FrontDoor::Axe(d) => load::closed_clients(d, clients(reqs), duration, KEEP),
        }
    }

    pub fn service_counters(&self) -> Option<ServiceCounters> {
        match self {
            FrontDoor::Hot(d) => Some(d.service_counters()),
            FrontDoor::Infer(d) => Some(d.service_counters()),
            FrontDoor::Train(d) => Some(d.service_counters()),
            FrontDoor::Axe(_) => None,
        }
    }

    pub fn shutdown(self) {
        match self {
            FrontDoor::Hot(d) => d.shutdown(),
            FrontDoor::Infer(d) => d.shutdown(),
            FrontDoor::Train(d) => d.shutdown(),
            FrontDoor::Axe(_) => {}
        }
    }
}

/// A system under test, warmed up and ready for timed phases.
pub struct System {
    pub graph: Option<Graph>,
    pub door: FrontDoor,
    /// The workload's request stream, positioned after the warm-up.
    pub stream: RequestStream,
}

impl System {
    /// Everything `setup_s` covers: graph build, partitioning, cluster
    /// and service spawn, then the untimed-per-request warm-up sent one
    /// at a time through the front door (which also fills the cache).
    pub fn set_up(workload: &str, seed: u64, scale: &Scale) -> Self {
        let p = wl::profile(workload);
        let (graph, door, nodes) = if workload == spec::AXE_POC {
            let axe = AxeCall::build(seed, scale.axe_nodes);
            (None, FrontDoor::Axe(axe), scale.axe_nodes)
        } else {
            let graph = Graph::build(seed, scale.nodes);
            let door = FrontDoor::start(workload, &graph, false);
            (Some(graph), door, scale.nodes)
        };
        let mut stream = RequestStream::new(workload, seed, nodes);
        let mut untraced = Tracer::new(false);
        for (i, req) in stream.by_ref().take(p.warmup).enumerate() {
            door.one(req, i as u32, &mut untraced);
        }
        System {
            graph,
            door,
            stream,
        }
    }
}

/// One reported end-to-end value with what lies behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-round (or per-set-up) values it was reduced from.
    pub parts: Vec<f64>,
    /// Samples behind the value (requests, completions, set-ups).
    pub samples: usize,
}

/// What an end-to-end run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub values: Vec<Value>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    /// Human-readable lines: phases, honesty figures, gate results.
    pub notes: Vec<String>,
}

/// Shares of a round's measured time given to the open-loop `lo`,
/// open-loop `hi` and closed-loop phases of a serving workload.
const PHASE_SHARES: [f64; 3] = [0.45, 0.15, 0.40];

/// What a run writes down as it goes.
struct Log {
    /// Human-readable lines: phases, honesty figures, gate results.
    notes: Vec<String>,
    /// Open-loop phases the run may still repeat.
    repeats_left: u32,
}

/// Open-loop phases one run may repeat: a host that stalls the generator
/// all the time must not stretch a run (and the driver's time budget) by
/// more than a tenth.
const REPEATS_PER_RUN: u32 = 2;

/// Runs one open-loop phase; if the generator ran late or (at `lo`) the
/// backlog kept growing, the phase is not trusted and is run once more,
/// while the run has repeats left ([`REPEATS_PER_RUN`]).
fn honest_open(
    sys: &mut System,
    label: &str,
    seed: u64,
    rate: f64,
    secs: f64,
    must_drain: bool,
    log: &mut Log,
) -> Phase {
    let mut attempt = 0;
    loop {
        let offsets = wl::arrivals(seed.wrapping_add(attempt), rate, secs);
        let phase = sys.door.open(&mut sys.stream, &offsets);
        let trusted = phase.honest() && !(must_drain && phase.backlog_growing());
        log.notes.push(format!(
            "{label}: {rate} req/s open loop, sent {} answered {} refused {} degraded {}, \
             gen_late_p99_ms {:.3}, backlog_end {} (mid {}){}",
            phase.sent,
            phase.answered(),
            phase.refused,
            phase.inexact,
            phase.gen_late_p99_ms,
            phase.backlog_end,
            phase.backlog_mid,
            if trusted {
                ""
            } else if attempt == 0 && log.repeats_left > 0 {
                " -- INVALID, run again"
            } else {
                " -- INVALID, kept"
            },
        ));
        if trusted || attempt == 1 || log.repeats_left == 0 {
            return phase;
        }
        log.repeats_left -= 1;
        attempt += 1;
    }
}

/// What one round — a fresh system instance driven through every phase
/// — measured.
struct Round {
    setup_s: f64,
    /// `lo`, `hi`, closed loop — or the closed loop alone for a blocking
    /// door, where it serves all three purposes.
    phases: Vec<Phase>,
}

impl Round {
    /// The phase latency is read from (`lo`, or the closed loop), the one
    /// the limit is judged on (`hi`, or the closed loop), and the closed
    /// loop.
    fn roles(&self) -> [&Phase; 3] {
        let closed = self.phases.last().expect("the closed loop always runs");
        match self.phases.as_slice() {
            [lo, hi, _] => [lo, hi, closed],
            _ => [closed, closed, closed],
        }
    }
}

fn run_round(
    sys: &mut System,
    p: &Profile,
    seed: u64,
    r: usize,
    secs: f64,
    setup_s: f64,
    log: &mut Log,
) -> Round {
    let mut phases = Vec::new();
    let closed_s = match p.open {
        Some(rates) => {
            let [lo_s, hi_s, closed_s] = PHASE_SHARES.map(|s| s * secs);
            let s = seed.wrapping_mul(31).wrapping_add(r as u64 * 2);
            let label = format!("round {r} lo");
            phases.push(honest_open(sys, &label, s, rates.lo, lo_s, true, log));
            let label = format!("round {r} hi");
            phases.push(honest_open(sys, &label, s + 1, rates.hi, hi_s, false, log));
            closed_s
        }
        None => secs,
    };
    let closed = sys
        .door
        .closed(p, &mut sys.stream, Duration::from_secs_f64(closed_s));
    phases.push(closed);

    let closed = phases.last().expect("just pushed");
    log.notes.push(format!(
        "round {r} closed: {} in flight, {} completions in {:.3} s, cpu {:.3} s",
        p.concurrency,
        closed.answered(),
        closed.wall_s,
        closed.cpu_s,
    ));
    Round { setup_s, phases }
}

/// The end-to-end run: `seconds` of measured phases split over `rounds`
/// rounds. Every round sets the system up afresh (which also times
/// `setup_s`) and runs every phase, so no phase depends on what an
/// earlier round left in pools, caches or the allocator. Every phase's
/// answers are cut into windows, and each timing is that of the
/// third-best of all rounds' windows (see [`load::third_best`]): what
/// disturbs a window — the host's neighbours — only ever makes it slower
/// and says nothing about the program.
pub fn end_to_end(
    workload: &str,
    seed: u64,
    seconds: f64,
    rounds: usize,
    scale: &Scale,
) -> Outcome {
    let p = wl::profile(workload);

    let mut done: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut last = None;
    let mut log = Log {
        notes: Vec::new(),
        repeats_left: REPEATS_PER_RUN,
    };
    for r in 0..rounds {
        if let Some(System { door, .. }) = last.take() {
            door.shutdown();
        }
        let t0 = Instant::now();
        let mut sys = System::set_up(workload, seed, scale);
        let setup_s = t0.elapsed().as_secs_f64();
        let secs = seconds / rounds as f64;
        let round = run_round(&mut sys, &p, seed, r, secs, setup_s, &mut log);
        if r == 0 {
            // One instance's worth: later instances reuse freed memory in
            // ways that depend on thread timing, not on the program.
            peak_rss_mb = host::peak_rss_mb();
        }
        done.push(round);
        last = Some(sys);
    }
    let sys = last.expect("at least one round");

    // Reduce the rounds. Latency comes from the windows of the `lo`
    // phases, the closed-loop figures from the windows of the closed
    // loops past their ramps (a blocking door's latency too), each as the
    // third-best of all rounds' windows; the limit is judged in the median
    // window of the `hi` phases. Each round's own value is kept beside.
    let all = || done.iter().flat_map(|r| r.phases.iter());
    let role = |i: usize| -> Vec<&Phase> { done.iter().map(|r| r.roles()[i]).collect() };
    let closed_cut = |ph: &Phase| ph.closed_windows(p.closed_window);
    let lat_windows = |ph: &Phase| match p.open {
        Some(_) => ph.windows(wl::WINDOW, 0.0),
        None => closed_cut(ph),
    };
    let pooled = |phases: &[&Phase], cut: &dyn Fn(&Phase) -> Vec<Window>| -> Vec<Window> {
        phases.iter().flat_map(|ph| cut(ph)).collect()
    };
    debug_assert!(stats::supports(wl::WINDOW, wl::TAIL));
    let lat = pooled(&role(0), &lat_windows);
    let closed = pooled(&role(2), &closed_cut);
    let answers = |w: &[Window]| w.iter().map(|w| w.latencies_ms.len()).sum::<usize>();
    log.notes.push(format!(
        "latency: third-best of {} windows of {} answers; closed loop: third-best of {} windows of {} \
         (median window {:.0} ms) past a {:.1} s ramp",
        lat.len(),
        lat.first().map_or(0, |w| w.latencies_ms.len()),
        closed.len(),
        closed.first().map_or(0, |w| w.latencies_ms.len()),
        stats::median(&closed.iter().map(|w| w.secs * 1e3).collect::<Vec<_>>()),
        load::RAMP_S,
    ));
    let medians = |name: &str, f: &dyn Fn(&Window) -> f64, w: &[Window]| {
        format!(
            "{name}: median window {:.4}",
            stats::median(&w.iter().map(f).collect::<Vec<_>>())
        )
    };
    log.notes.push(format!(
        "for comparison, {}; {}; {}",
        medians("lat_p50_ms", &|w| w.latency_ms(0.5), &lat),
        medians("sat_rps", &Window::rps, &closed),
        medians("cpu_ms_per_req", &Window::cpu_ms_per_req, &closed),
    ));

    // The limit: the share of a window's answers within it, in the median
    // window of the `hi` phases. One stall of the host spoils a window or
    // two of a phase this short; an overloaded system spoils every window
    // from the moment its backlog outgrows the limit. Refused, shed and
    // degraded requests miss the limit whenever they were sent.
    let slo = |phases: &[&Phase]| -> f64 {
        let sent: usize = phases.iter().map(|ph| ph.sent).sum();
        let failed: usize = phases.iter().map(|ph| ph.failed()).sum();
        let shares: Vec<f64> = pooled(phases, &lat_windows)
            .iter()
            .map(|w| w.within(p.limit_ms))
            .collect();
        if shares.is_empty() {
            return f64::NAN;
        }
        stats::median(&shares) * (1.0 - failed as f64 / sent.max(1) as f64)
    };
    // A value over all rounds' windows, and over each round's own.
    let timing = |name,
                  phases: Vec<&Phase>,
                  cut: &dyn Fn(&Phase) -> Vec<Window>,
                  of: &dyn Fn(&Window) -> f64,
                  higher: bool| {
        let all = pooled(&phases, cut);
        let parts: Vec<f64> = phases
            .iter()
            .map(|ph| load::third_best(cut(ph).iter().map(of), higher))
            .filter(|v| v.is_finite())
            .collect();
        Value {
            name,
            value: load::third_best(all.iter().map(of), higher),
            parts,
            samples: answers(&all),
        }
    };
    let setups: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
    let values = vec![
        timing(
            "lat_p50_ms",
            role(0),
            &lat_windows,
            &|w| w.latency_ms(0.5),
            false,
        ),
        timing(
            "lat_p90_ms",
            role(0),
            &lat_windows,
            &|w| w.latency_ms(wl::TAIL),
            false,
        ),
        Value {
            name: "slo_share",
            value: slo(&role(1)),
            parts: role(1).iter().map(|ph| slo(&[ph])).collect(),
            samples: role(1).iter().map(|ph| ph.sent).sum(),
        },
        timing("sat_rps", role(2), &closed_cut, &Window::rps, true),
        timing(
            "cpu_ms_per_req",
            role(2),
            &closed_cut,
            &Window::cpu_ms_per_req,
            false,
        ),
        Value {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            parts: vec![peak_rss_mb],
            samples: 1,
        },
        Value {
            name: "setup_s",
            value: stats::median(&setups),
            parts: setups.clone(),
            samples: setups.len(),
        },
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.name)
        .eq(spec::END_TO_END.iter().map(|m| m.name)));

    // The correctness gate: nothing refused, shed or degraded; every
    // ticket collected; kept answers equal the reference's.
    let attempted: usize = all().map(|ph| ph.sent).sum();
    let failed: usize = all().map(Phase::failed).sum();
    let drained = all().all(Phase::drained);
    let kept: Vec<(Request, u64)> = all().flat_map(|ph| ph.kept.iter().cloned()).collect();
    let mismatches = match (&sys.door, &sys.graph) {
        (FrontDoor::Axe(axe), _) => kept
            .iter()
            .filter(|(req, digest)| axe.call(req).digest != *digest)
            .count(),
        (_, Some(graph)) => reference_mismatches(graph, workload, &kept),
        (_, None) => unreachable!("serving systems hold their graph"),
    };
    log.notes.push(format!(
        "gate: {} of {} kept answers differ from the reference; tickets outstanding: {}",
        mismatches,
        kept.len(),
        if drained { "none" } else { "SOME" },
    ));
    sys.door.shutdown();
    let measured = values.iter().all(|v| v.value.is_finite() && v.value > 0.0);
    Outcome {
        values,
        attempted,
        failed,
        correct: failed == 0 && drained && mismatches == 0 && !kept.is_empty() && measured,
        notes: log.notes,
    }
}

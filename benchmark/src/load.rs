//! The load generator: one generator thread plus one collector thread
//! (or a fixed set of blocking clients), driving a front door from the
//! outside and timing what comes back, and the windows a phase's answers
//! are judged in.
//!
//! Open-loop latency runs from the instant a request was *due*, so a
//! stall is charged to every request it delays, and each phase reports
//! how late the generator itself ran. The collector waits on tickets in
//! submission order — what a client pipelining requests over one
//! connection observes.

use crate::host;
use crate::stats;
use crate::workloads::Request;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a front door answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// False when the answer was degraded (partial).
    pub exact: bool,
    /// Digest of the answer, for the correctness gate.
    pub digest: u64,
}

/// A front door that hands out tickets.
pub trait Door: Sync {
    type Ticket: Send;
    /// Submits one request; `None` means it was refused or shed.
    fn submit(&self, req: Request) -> Option<Self::Ticket>;
    /// Blocks for the answer.
    fn wait(&self, ticket: Self::Ticket) -> Reply;
}

/// A front door that is one blocking call per request.
pub trait Call: Sync {
    fn call(&self, req: &Request) -> Reply;
}

/// Generator lateness beyond which an open-loop phase is not trusted.
pub const MAX_GEN_LATE_P99_MS: f64 = 5.0;

/// One answered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Open loop: due time to reply. Closed loop: submit to reply.
    pub lat_ms: f64,
    /// When the reply was seen, in seconds from the phase's start.
    pub done_s: f64,
    /// The process's cumulative CPU seconds when the reply was seen.
    pub cpu_s: f64,
}

/// The start of every closed loop that is not judged: the front doors
/// take about this long to reach their steady rate.
pub const RAMP_S: f64 = 0.5;

/// A window: a fixed number of consecutive answers of one phase, in the
/// order they were seen, with the time and process CPU they took.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// From the answer before the window's first to its last.
    pub secs: f64,
    pub cpu_s: f64,
    /// The window's latencies, ascending.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// Completions per second.
    pub fn rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.secs
    }

    /// Process CPU milliseconds per completion.
    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_s * 1e3 / self.latencies_ms.len() as f64
    }

    /// Nearest-rank latency quantile.
    pub fn latency_ms(&self, q: f64) -> f64 {
        stats::quantile(&self.latencies_ms, q)
    }

    /// Share of the window's answers that came within `limit_ms`.
    pub fn within(&self, limit_ms: f64) -> f64 {
        let ok = self.latencies_ms.partition_point(|&l| l <= limit_ms);
        ok as f64 / self.latencies_ms.len() as f64
    }
}

/// The rank, counted from the best, of the window a reported value is
/// taken from.
pub const BEST_RANK: usize = 3;

/// The value of the third-best window: the third-lowest of a time, the
/// third-highest of a rate. The reference host's neighbours slow a run in
/// plateaus of a few tenths of a second to minutes, by up to a third on
/// the thread-hopping workloads; that only ever makes a window slower and
/// says nothing about the program measured, so the windows' median wanders
/// with the weather while their best few repeat. The two better windows
/// are the allowance for a window that looks better than the program is:
/// completions held up behind a stall arrive together in the next window.
/// A run has 16 to 120 windows per metric. `NaN` when there are none.
pub fn third_best(values: impl IntoIterator<Item = f64>, higher_is_better: bool) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return f64::NAN;
    }
    stats::sorted(&mut v);
    if higher_is_better {
        v.reverse();
    }
    v[BEST_RANK.min(v.len()) - 1]
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every answered request, in submission order (per client).
    pub answers: Vec<Answer>,
    /// Requests sent (attempted).
    pub sent: usize,
    /// Refused or shed at the door.
    pub refused: usize,
    /// Answered degraded.
    pub inexact: usize,
    pub wall_s: f64,
    /// Process CPU seconds over the whole phase.
    pub cpu_s: f64,
    /// Open loop: p99 of how late the generator sent, in milliseconds.
    pub gen_late_p99_ms: f64,
    /// Open loop: requests in flight at the middle and the last arrival.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    /// The first answers, kept for the correctness gate.
    pub kept: Vec<(Request, u64)>,
}

impl Phase {
    pub fn answered(&self) -> usize {
        self.answers.len()
    }

    /// Refused, shed or degraded.
    pub fn failed(&self) -> usize {
        self.refused + self.inexact
    }

    /// The answers seen from `skip_s` on, cut into windows of `per_window`
    /// in the order they were seen; what is left over is dropped. A phase
    /// with too few answers for one window is a single shorter window.
    pub fn windows(&self, per_window: usize, skip_s: f64) -> Vec<Window> {
        let mut seen: Vec<&Answer> = self.answers.iter().filter(|a| a.done_s >= skip_s).collect();
        seen.sort_unstable_by(|a, b| a.done_s.total_cmp(&b.done_s));
        if seen.len() < 2 {
            return Vec::new();
        }
        // Each window runs from the answer before its first to its last.
        let per_window = per_window.clamp(1, seen.len() - 1);
        seen[..1 + (seen.len() - 1) / per_window * per_window]
            .windows(per_window + 1)
            .step_by(per_window)
            .map(|w| {
                let (from, to) = (w[0], w[per_window]);
                let mut latencies_ms: Vec<f64> = w[1..].iter().map(|a| a.lat_ms).collect();
                stats::sorted(&mut latencies_ms);
                Window {
                    secs: to.done_s - from.done_s,
                    cpu_s: to.cpu_s - from.cpu_s,
                    latencies_ms,
                }
            })
            .collect()
    }

    /// The windows of a closed loop: past the ramp, or past a quarter of
    /// a phase too short to afford the whole ramp.
    pub fn closed_windows(&self, per_window: usize) -> Vec<Window> {
        self.windows(per_window, RAMP_S.min(self.wall_s / 4.0))
    }

    /// An open-loop phase whose generator kept its schedule.
    pub fn honest(&self) -> bool {
        self.gen_late_p99_ms <= MAX_GEN_LATE_P99_MS
    }

    /// The backlog at the end is more than noise above the middle's.
    pub fn backlog_growing(&self) -> bool {
        self.backlog_end > 2 * self.backlog_mid + 16
    }

    /// Every ticket handed out was collected.
    pub fn drained(&self) -> bool {
        self.answered() + self.refused == self.sent
    }
}

/// Sleeps until `due`. No spinning and no `yield_now`: on a host with as
/// few cores as the system has threads, a yielding generator is queued
/// behind every runnable thread and wakes milliseconds late, whereas a
/// timer wake-up preempts them.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

struct InFlight<T> {
    /// Open loop: when the request was due. Closed loop: when it was sent.
    from: Instant,
    ticket: T,
    keep: Option<Request>,
}

/// What the collector saw.
#[derive(Default)]
struct Collected {
    answers: Vec<Answer>,
    inexact: usize,
    kept: Vec<(Request, u64)>,
}

/// The collector: waits on tickets in submission order until the
/// generator hangs up.
fn collect<D: Door>(
    door: &D,
    rx: mpsc::Receiver<InFlight<D::Ticket>>,
    start: Instant,
    done: &AtomicUsize,
    on_done: impl Fn(),
) -> Collected {
    let mut c = Collected::default();
    for job in rx {
        let reply = door.wait(job.ticket);
        let now = Instant::now();
        c.answers.push(Answer {
            lat_ms: (now - job.from).as_secs_f64() * 1e3,
            done_s: (now - start).as_secs_f64(),
            cpu_s: host::cpu_seconds(),
        });
        done.fetch_add(1, Ordering::Relaxed);
        if !reply.exact {
            c.inexact += 1;
        }
        if let Some(req) = job.keep {
            c.kept.push((req, reply.digest));
        }
        on_done();
    }
    c
}

/// What the generator did.
struct Generated {
    late_ms: Vec<f64>,
    sent: usize,
    refused: usize,
    backlog_mid: usize,
    backlog_end: usize,
}

fn phase_of(c: Collected, g: Generated, start: Instant, cpu_start_s: f64) -> Phase {
    let mut late = g.late_ms;
    Phase {
        answers: c.answers,
        sent: g.sent,
        refused: g.refused,
        inexact: c.inexact,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu_start_s,
        gen_late_p99_ms: if late.is_empty() {
            0.0
        } else {
            stats::quantile(stats::sorted(&mut late), 0.99)
        },
        backlog_mid: g.backlog_mid,
        backlog_end: g.backlog_end,
        kept: c.kept,
    }
}

/// Open loop: sends `reqs` at the given offsets (seconds from now)
/// whatever the door does, and keeps the first `keep` answers.
pub fn open_loop<D: Door>(
    door: &D,
    reqs: &mut (impl Iterator<Item = Request> + Send),
    offsets: &[f64],
    keep: usize,
) -> Phase {
    let done = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let cpu_start_s = host::cpu_seconds();
    let start = Instant::now();
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut g = Generated {
                late_ms: Vec::with_capacity(offsets.len()),
                sent: 0,
                refused: 0,
                backlog_mid: 0,
                backlog_end: 0,
            };
            for (i, &off) in offsets.iter().enumerate() {
                let due = start + Duration::from_secs_f64(off);
                wait_until(due);
                g.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let req = reqs.next().expect("request streams are endless");
                let kept = (i < keep).then(|| req.clone());
                g.backlog_end = g.sent - g.refused - done.load(Ordering::Relaxed);
                if i == offsets.len() / 2 {
                    g.backlog_mid = g.backlog_end;
                }
                g.sent += 1;
                match door.submit(req) {
                    Some(ticket) => {
                        let job = InFlight {
                            from: due,
                            ticket,
                            keep: kept,
                        };
                        tx.send(job).expect("collector outlives the generator");
                    }
                    None => g.refused += 1,
                }
            }
            drop(tx);
            g
        });
        let collector = s.spawn(|| collect(door, rx, start, &done, || {}));
        let c = collector.join().expect("collector thread");
        let g = generator.join().expect("generator thread");
        phase_of(c, g, start, cpu_start_s)
    })
}

/// Closed loop over a ticketed door: keeps `inflight` requests
/// outstanding for `duration`, each replaced as soon as it is answered.
pub fn closed_window<D: Door>(
    door: &D,
    reqs: &mut (impl Iterator<Item = Request> + Send),
    inflight: usize,
    duration: Duration,
    keep: usize,
) -> Phase {
    let done = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let (permit_tx, permit_rx) = mpsc::channel();
    for _ in 0..inflight {
        permit_tx.send(()).expect("receiver is alive");
    }
    let refusal_tx = permit_tx.clone();
    let cpu_start_s = host::cpu_seconds();
    let start = Instant::now();
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut g = Generated {
                late_ms: Vec::new(),
                sent: 0,
                refused: 0,
                backlog_mid: 0,
                backlog_end: 0,
            };
            while permit_rx.recv().is_ok() && start.elapsed() < duration {
                let req = reqs.next().expect("request streams are endless");
                let kept = (g.sent < keep).then(|| req.clone());
                g.sent += 1;
                let from = Instant::now();
                match door.submit(req) {
                    Some(ticket) => {
                        let job = InFlight {
                            from,
                            ticket,
                            keep: kept,
                        };
                        tx.send(job).expect("collector outlives the generator");
                    }
                    None => {
                        g.refused += 1;
                        refusal_tx.send(()).expect("own receiver is alive");
                    }
                }
            }
            g
        });
        let done = &done;
        let collector = s.spawn(move || {
            // A permit sent after the generator left is simply unused.
            let release = || {
                let _ = permit_tx.send(());
            };
            collect(door, rx, start, done, release)
        });
        let c = collector.join().expect("collector thread");
        let g = generator.join().expect("generator thread");
        phase_of(c, g, start, cpu_start_s)
    })
}

/// Closed loop over a blocking door: one thread per client, each with
/// its own request stream, calling back-to-back for `duration`.
pub fn closed_clients<C: Call, I: Iterator<Item = Request> + Send>(
    door: &C,
    streams: Vec<I>,
    duration: Duration,
    keep: usize,
) -> Phase {
    let cpu_start_s = host::cpu_seconds();
    let start = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = streams
            .into_iter()
            .map(|mut reqs| {
                s.spawn(move || {
                    let mut c = Collected::default();
                    while start.elapsed() < duration {
                        let req = reqs.next().expect("request streams are endless");
                        let t0 = Instant::now();
                        let reply = door.call(&req);
                        let now = Instant::now();
                        c.answers.push(Answer {
                            lat_ms: (now - t0).as_secs_f64() * 1e3,
                            done_s: (now - start).as_secs_f64(),
                            cpu_s: host::cpu_seconds(),
                        });
                        if !reply.exact {
                            c.inexact += 1;
                        }
                        if c.kept.len() < keep {
                            c.kept.push((req, reply.digest));
                        }
                    }
                    c
                })
            })
            .collect();
        let mut all = Collected::default();
        for client in clients {
            let c = client.join().expect("client thread");
            all.answers.extend(c.answers);
            all.inexact += c.inexact;
            all.kept.extend(c.kept);
        }
        let g = Generated {
            late_ms: Vec::new(),
            sent: all.answers.len(),
            refused: 0,
            backlog_mid: 0,
            backlog_end: 0,
        };
        phase_of(all, g, start, cpu_start_s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::workloads::RequestStream;

    /// A door that answers after a fixed service time, one at a time,
    /// like a single-server queue; odd seeds are refused when `picky`.
    struct FakeDoor {
        service: Duration,
        picky: bool,
    }

    impl Door for FakeDoor {
        type Ticket = u64;
        fn submit(&self, req: Request) -> Option<u64> {
            (!self.picky || req.seed.is_multiple_of(2)).then_some(req.seed)
        }
        fn wait(&self, ticket: u64) -> Reply {
            std::thread::sleep(self.service);
            Reply {
                exact: true,
                digest: ticket,
            }
        }
    }

    impl Call for FakeDoor {
        fn call(&self, req: &Request) -> Reply {
            self.wait(req.seed)
        }
    }

    fn stream() -> RequestStream {
        RequestStream::new(spec::SAMPLE_HOT, 1, 1000)
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // 5 ms of service, arrivals every 1 ms: the k-th request waits
        // for k earlier ones, so latency from the *due* time grows to
        // about 4 ms x n even though each wait() takes 5 ms.
        let door = FakeDoor {
            service: Duration::from_millis(5),
            picky: false,
        };
        let offsets: Vec<f64> = (0..20).map(|i| f64::from(i) * 1e-3).collect();
        let p = open_loop(&door, &mut stream(), &offsets, 4);
        assert_eq!((p.sent, p.answered(), p.refused), (20, 20, 0));
        assert!(p.drained());
        let worst = p.answers.last().unwrap().lat_ms;
        assert!(worst >= 20.0 * 5.0 - 19.0, "worst {worst} ms");
        assert!(p.answers[0].lat_ms >= 5.0);
        assert!(p.answers.windows(2).all(|w| w[0].done_s <= w[1].done_s));
        assert_eq!(p.kept.len(), 4);
        assert!(p.backlog_end >= p.backlog_mid);
        assert!(p.cpu_s >= 0.0 && p.wall_s >= 0.1);
        assert!(p.answers.windows(2).all(|w| w[0].cpu_s <= w[1].cpu_s));
    }

    #[test]
    fn refused_requests_are_sent_but_never_answered() {
        let door = FakeDoor {
            service: Duration::from_micros(10),
            picky: true,
        };
        let offsets: Vec<f64> = (0..10).map(|i| f64::from(i) * 1e-4).collect();
        let p = open_loop(&door, &mut stream(), &offsets, 0);
        assert_eq!((p.sent, p.refused, p.answered()), (10, 5, 5));
        assert!(p.drained());
        assert_eq!(p.failed(), 5);
    }

    #[test]
    fn closed_window_keeps_going_past_refusals_and_stops_on_time() {
        let door = FakeDoor {
            service: Duration::from_micros(200),
            picky: true,
        };
        let p = closed_window(&door, &mut stream(), 4, Duration::from_millis(60), 2);
        assert!(p.sent > 20, "sent {}", p.sent);
        assert!(p.drained());
        assert!(p.refused > 0 && p.answered() > 0);
        assert!(p.wall_s < 1.0);
    }

    #[test]
    fn closed_clients_run_in_parallel() {
        let door = FakeDoor {
            service: Duration::from_millis(2),
            picky: false,
        };
        let p = closed_clients(
            &door,
            vec![stream(), stream()],
            Duration::from_millis(80),
            1,
        );
        // Two clients at 2 ms per call: about 80 calls, well over one
        // client's 40.
        assert!(p.sent >= 50, "sent {}", p.sent);
        assert_eq!(p.kept.len(), 2);
        assert_eq!(p.answered(), p.sent);
    }

    /// 100 answers/s for `secs` seconds, 1 ms each, half the CPU busy.
    fn steady_phase(secs: u32) -> Phase {
        Phase {
            answers: (1..=secs * 100)
                .map(|i| Answer {
                    lat_ms: 1.0,
                    done_s: f64::from(i) / 100.0,
                    cpu_s: f64::from(i) / 200.0,
                })
                .collect(),
            sent: (secs * 100) as usize,
            wall_s: f64::from(secs),
            ..Phase::default()
        }
    }

    #[test]
    fn windows_are_cut_by_count_in_the_order_answers_were_seen() {
        // Windows of 100 answers at 1, 2, 3 and 4 ms, the last ten of
        // each ten times slower; the fourth also took twice as long.
        let mut p = steady_phase(5);
        p.answers.truncate(431);
        for (i, a) in p.answers.iter_mut().enumerate().skip(1) {
            let window = ((i - 1) / 100 + 1) as f64;
            a.lat_ms = if (i - 1) % 100 >= 90 {
                window * 10.0
            } else {
                window
            };
            if i > 300 {
                a.done_s = 3.01 + f64::from(i as u32 - 300) / 50.0;
            }
        }
        // Clients report in their own order; windows follow the clock.
        p.answers.reverse();
        let w = p.windows(100, 0.0);
        assert_eq!(w.len(), 4);
        let medians: Vec<f64> = w.iter().map(|w| w.latency_ms(0.5)).collect();
        assert_eq!(medians, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w[2].latency_ms(0.9), 3.0);
        assert_eq!(w[2].latency_ms(0.91), 30.0);
        assert_eq!((w[2].within(3.0), w[2].within(30.0)), (0.9, 1.0));
        assert!((w[0].rps() - 100.0).abs() < 1e-9);
        assert!((w[3].rps() - 50.0).abs() < 1e-9);
        assert!((w[0].cpu_ms_per_req() - 5.0).abs() < 1e-9);
        // Skipping the first second leaves three whole windows.
        assert_eq!(p.windows(100, 1.0).len(), 3);
        // A closed loop skips its ramp; a short one only a quarter.
        assert_eq!(steady_phase(2).closed_windows(50).len(), 3);
        let mut short = steady_phase(1);
        short.answers.truncate(40);
        short.wall_s = 0.4;
        let w = short.closed_windows(100);
        assert_eq!((w.len(), w[0].latencies_ms.len()), (1, 30));
        assert!(Phase::default().windows(100, 0.0).is_empty());
    }

    #[test]
    fn the_third_best_is_low_for_times_and_high_for_rates() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(third_best(v.iter().copied(), false), 3.0);
        assert_eq!(third_best(v.iter().copied(), true), 38.0);
        // Fewer than three windows: the worst of them.
        assert_eq!(third_best([7.0, 5.0], false), 7.0);
        assert_eq!(third_best([7.0, 5.0], true), 5.0);
        assert!(third_best([], true).is_nan());
    }
}

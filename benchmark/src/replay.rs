//! The traced pass: replays a fixed prefix of the workload one request
//! at a time, so every count repeats exactly, with spans around each
//! call into a layer. Overhead rows are differences between two public
//! entry points on the same requests; a 0 means the layer is not on the
//! workload's path.

use crate::layers::{
    self, ratio, Arm, AxeCall, Backend, Counters, Graph, HotDoor, Model, Rows, SampleDoor, Shaping,
};
use crate::load::{Door, Phase};
use crate::run::{FrontDoor, System};
use crate::spec;
use crate::stats::median as p50;
use crate::trace::Tracer;
use crate::workloads::{self as wl, Request, RequestStream, Scale};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer values by metric name; unset metrics report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What the traced pass of one workload produced.
#[derive(Debug)]
pub struct Traced {
    pub layers: Layers,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// Length of each closed-loop slice of the traced pass.
fn slice_len(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 8.0).clamp(0.3, 1.5))
}

pub fn traced(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> Traced {
    let mut out = Traced {
        layers: Layers::default(),
        attempted: 0,
        failed: 0,
        correct: true,
        notes: Vec::new(),
        tracer: Tracer::new(true),
    };
    if workload == spec::AXE_POC {
        axe(seed, scale, &mut out);
    } else {
        serving(workload, seed, seconds, scale, &mut out);
    }
    out.layers
        .put("replay.spans", out.tracer.spans().len() as f64);
    out
}

/// The simulated layers: two runs of one seed must agree exactly.
fn axe(seed: u64, scale: &Scale, out: &mut Traced) {
    let l = &mut out.layers;
    let call = AxeCall::build(seed, scale.axe_nodes);
    l.put("graph.build_s", call.build_s);
    l.put("graph.bytes", call.bytes as f64);
    let (first, us) = out
        .tracer
        .span("axe.run", 0, |_| call.run(0, scale.axe_batches));
    let (second, _) = out
        .tracer
        .span("axe.run", 1, |_| call.run(0, scale.axe_batches));
    for (name, v) in first.metrics() {
        l.put(name, v);
    }
    l.put("replay.p50_us", us);
    l.put("replay.requests", 2.0);
    l.put("desim.events_per_s", layers::desim_events_per_s());
    l.put("riscv.host_mips", layers::riscv_host_mips());
    let same = first.same_simulation(&second);
    l.put("digest.checked", 1.0);
    out.attempted = 2;
    out.failed = usize::from(!same);
    out.correct = same;
    out.notes.push(format!(
        "gate: two runs of seed {seed} simulated {}; the AxE model is unvalidated against \
         hardware (the repo holds only the paper's shape, about 894 vCPU-equivalents per card)",
        if same { "identically" } else { "DIFFERENTLY" }
    ));
}

/// Per-request times of one directly driven backend over the prefix.
struct ArmTimes {
    sample_us: Vec<f64>,
    gather_us: Vec<f64>,
    compute_us: Vec<f64>,
    forward_us: Vec<f64>,
    digests: Vec<u64>,
    macs: u64,
    counters: Counters,
    /// Node ids sampled by the first requests, for the MoF probes.
    node_ids: Vec<u64>,
}

/// Span names of the directly driven arms.
fn arm_spans(arm: Arm) -> (&'static str, &'static str) {
    match arm {
        Arm::Plain => ("plain.sample", "plain.gather"),
        Arm::Wired => ("wired.sample", "wired.gather"),
        Arm::WiredCached => ("cluster.sample", "cluster.gather"),
    }
}

/// Warms a fresh backend with `warm` and replays `reqs` on it, one call
/// at a time. Gathers when the workload does; runs the model when it
/// serves inference.
fn drive_arm(
    g: &Graph,
    arm: Arm,
    warm: &[Request],
    reqs: &[Request],
    gathers: bool,
    infers: bool,
    t: &mut Tracer,
) -> ArmTimes {
    let backend = Backend::new(g, arm);
    let mut rows = Rows::default();
    let mut model = infers.then(Model::new);
    for req in warm {
        let block = backend.sample(req);
        if gathers {
            backend.gather(&block, &mut rows);
        }
        backend.recycle(block);
    }
    let before = backend.counters();
    let (sample_span, gather_span) = arm_spans(arm);
    let mut times = ArmTimes {
        sample_us: Vec::with_capacity(reqs.len()),
        gather_us: Vec::new(),
        compute_us: Vec::new(),
        forward_us: Vec::new(),
        digests: Vec::with_capacity(reqs.len()),
        macs: 0,
        counters: Counters::default(),
        node_ids: Vec::new(),
    };
    for (i, req) in reqs.iter().enumerate() {
        let i = i as u32;
        let (block, us) = t.span(sample_span, i, |_| backend.sample(req));
        times.sample_us.push(us);
        times.digests.push(block.digest());
        if times.node_ids.len() < 16_384 {
            times.node_ids.extend(block.nodes());
        }
        if gathers {
            let ((), us) = t.span(gather_span, i, |_| backend.gather(&block, &mut rows));
            times.gather_us.push(us);
        }
        if let Some(model) = model.as_mut() {
            times.macs += block.model_macs();
            let (forward_us, us) = t.span("inference.compute", i, |t| {
                model.load(&block, &mut rows);
                let ((), us) = t.span("nn.forward", i, |_| model.forward(&block, &rows));
                model.unload(&mut rows);
                us
            });
            times.compute_us.push(us);
            times.forward_us.push(forward_us);
        }
        backend.recycle(block);
    }
    times.counters = backend.counters().since(&before);
    times
}

/// Replays `reqs` through a front door, one in flight, under `door`
/// spans. Returns per-request (total µs, µs inside submit).
fn drive_door(door: &FrontDoor, reqs: &[Request], t: &mut Tracer) -> (Vec<f64>, Vec<f64>) {
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            let ((_, submit_us), us) =
                t.span("door", i as u32, |t| door.one(req.clone(), i as u32, t));
            (us, submit_us)
        })
        .unzip()
}

/// Replays `reqs` through a sampling-only door, one in flight.
fn drive_sampling<D: Door>(
    door: &D,
    reqs: &[Request],
    span: &'static str,
    t: &mut Tracer,
) -> Vec<f64> {
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            t.span(span, i as u32, |_| {
                let ticket = door
                    .submit(req.clone())
                    .expect("the replay is never refused");
                door.wait(ticket)
            })
            .1
        })
        .collect()
}

fn rate(phase: &Phase) -> f64 {
    phase.answered() as f64 / phase.wall_s
}

fn serving(workload: &str, seed: u64, seconds: f64, scale: &Scale, out: &mut Traced) {
    let p = wl::profile(workload);
    let hot = workload == spec::SAMPLE_HOT;
    let infers = workload == spec::INFER_UNIFORM;
    let gathers = !hot;
    let n = if workload == spec::TRAIN_BATCH {
        scale.replay_train
    } else {
        scale.replay
    };

    // The front door, set up exactly as the end-to-end run sets it up;
    // the replayed prefix is what follows the warm-up in its stream.
    let t0 = Instant::now();
    let mut sys = System::set_up(workload, seed, scale);
    let setup_s = t0.elapsed().as_secs_f64();
    let g = sys.graph.take().expect("serving systems hold their graph");
    let warm: Vec<Request> = RequestStream::new(workload, seed, scale.nodes)
        .take(p.warmup)
        .collect();
    let reqs: Vec<Request> = sys.stream.by_ref().take(n).collect();

    let t = &mut out.tracer;
    let l = &mut out.layers;
    l.put("graph.build_s", g.build_s);
    l.put("graph.partition_s", g.partition_s);
    l.put("graph.bytes", g.bytes as f64);

    // One in flight through the front door: untraced, traced, untraced.
    // The traced pass sits between two untraced ones so warming caches
    // bias neither side.
    let mut off = Tracer::new(false);
    let (a, _) = drive_door(&sys.door, &reqs, &mut off);
    let (door_us, submit_us) = drive_door(&sys.door, &reqs, t);
    let (c, _) = drive_door(&sys.door, &reqs, &mut off);
    let untraced = (a.iter().sum::<f64>() + c.iter().sum::<f64>()) / 2.0;
    l.put(
        "trace.overhead_frac",
        door_us.iter().sum::<f64>() / untraced - 1.0,
    );
    l.put("replay.p50_us", p50(&door_us));
    l.put("replay.requests", n as f64);
    if let FrontDoor::Hot(d) = &sys.door {
        // Read before the closed-loop slices, so the counts are those of
        // the warm-up and the three replays and repeat exactly.
        let (accepted, rejected, shed) = d.admission_counts();
        l.put("admission.accepted", accepted as f64);
        l.put("admission.rejected", rejected as f64);
        l.put("admission.shed", shed as f64);
        l.put("admission.submit_us", p50(&submit_us));
        l.put("admission.decide_ns", layers::admission_decide_ns());
    }

    // Closed-loop slices, observability off / on / on / off: the
    // service's own batching figures come from the unobserved slices,
    // the guardrail from the ratio of the two pairs.
    let slice = slice_len(seconds);
    let observed = FrontDoor::start(workload, &g, true);
    let mut untraced_warm = Tracer::new(false);
    for (i, req) in warm.iter().enumerate() {
        observed.one(req.clone(), i as u32, &mut untraced_warm);
    }
    let before = sys.door.service_counters().expect("serving door");
    let gather_before = match &sys.door {
        FrontDoor::Infer(d) => d.gather_batches(),
        _ => (0.0, 0),
    };
    let off1 = sys.door.closed(&p, &mut sys.stream, slice);
    let on1 = observed.closed(&p, &mut sys.stream, slice);
    let on2 = observed.closed(&p, &mut sys.stream, slice);
    let off2 = sys.door.closed(&p, &mut sys.stream, slice);
    let after = sys.door.service_counters().expect("serving door");
    l.put(
        "obs.overhead_frac",
        1.0 - (rate(&on1) + rate(&on2)) / (rate(&off1) + rate(&off2)),
    );
    l.put("service.batch_size_mean", after.batch_size_mean(&before));
    l.put("service.queue_depth_p50", after.queue_depth_p50(&before));
    l.put(
        "service.dispatches_per_req",
        ratio(
            after.dispatches - before.dispatches,
            after.requests - before.requests,
        ),
    );
    if let FrontDoor::Infer(d) = &sys.door {
        let (sum, count) = d.gather_batches();
        l.put(
            "inference.gather_batch_mean",
            (sum - gather_before.0) / (count - gather_before.1).max(1) as f64,
        );
    }
    let slices = [&off1, &on1, &on2, &off2];
    out.attempted += slices.iter().map(|ph| ph.sent).sum::<usize>() + 3 * n;
    out.failed += slices.iter().map(|ph| ph.failed()).sum::<usize>();
    observed.shutdown();
    sys.door.shutdown();

    // The sampling service alone, then the three directly driven arms,
    // each on a fresh backend warmed by the same sequential warm-up.
    let plain_service = SampleDoor::start(&g, Arm::WiredCached, false);
    drive_sampling(
        &plain_service,
        &warm,
        "service.warmup",
        &mut Tracer::new(false),
    );
    let service_us = drive_sampling(&plain_service, &reqs, "service.sample_reply", t);
    plain_service.shutdown();
    if hot {
        let unlimited = HotDoor::start(&g, Shaping::Unlimited, false);
        drive_sampling(&unlimited, &warm, "shaped.warmup", &mut Tracer::new(false));
        let shaped_us = drive_sampling(&unlimited, &reqs, "shaped.unlimited", t);
        unlimited.shutdown();
        l.put("admission.overhead_us", p50(&shaped_us) - p50(&service_us));
    }
    let plain = drive_arm(&g, Arm::Plain, &warm, &reqs, gathers, false, t);
    let wired = drive_arm(&g, Arm::Wired, &warm, &reqs, gathers, false, t);
    let full = drive_arm(&g, Arm::WiredCached, &warm, &reqs, gathers, infers, t);

    let per_req = |count: u64| count as f64 / n as f64;
    let c = &full.counters;
    l.put(
        "service.overhead_us",
        p50(&service_us) - p50(&full.sample_us),
    );
    l.put("cluster.sample_us", p50(&full.sample_us));
    l.put("cluster.nodes_per_req", per_req(c.get("nodes_expanded")));
    l.put(
        "cluster.remote_requests_per_req",
        per_req(c.get("remote_requests")),
    );
    l.put(
        "cluster.remote_fraction",
        c.share("remote_requests", "local_requests"),
    );
    l.put(
        "cluster.coalesce_hit_rate",
        ratio(c.get("coalesce_hits"), c.get("coalesce_lookups")),
    );
    l.put(
        "cluster.attr_coalesce_hit_rate",
        ratio(c.get("attr_coalesce_hits"), c.get("attr_coalesce_lookups")),
    );
    l.put(
        "cluster.frontier_line_hit_rate",
        ratio(c.get("frontier_line_hits"), c.get("frontier_line_lookups")),
    );
    l.put("pool.reuse_rate", c.share("pool_reuses", "pool_allocs"));
    l.put(
        "cache.neigh_hit_rate",
        c.share("neigh_hits", "neigh_misses"),
    );
    l.put("cache.attr_hit_rate", c.share("attr_hits", "attr_misses"));
    l.put("cache.admits_per_req", per_req(c.get("cache_admits")));
    l.put("cache.evicts_per_req", per_req(c.get("cache_evicts")));
    l.put("cache.rejects_per_req", per_req(c.get("cache_rejects")));
    l.put(
        "cache.delta_sample_us",
        p50(&full.sample_us) - p50(&wired.sample_us),
    );
    l.put(
        "wire.delta_sample_us",
        p50(&wired.sample_us) - p50(&plain.sample_us),
    );
    l.put("wire.bytes_per_req", per_req(c.get("wire_bytes")));
    l.put("wire.remote_legs_per_req", per_req(c.get("wire_legs")));
    l.put(
        "wire.compression_ratio",
        ratio(
            c.get("wire_raw_response_bytes"),
            c.get("wire_response_bytes"),
        ),
    );
    l.put(
        "wire.packing_occupancy",
        ratio(
            c.get("wire_packed_requests"),
            c.get("wire_packages") * layers::PACKAGE_CAPACITY,
        ),
    );
    l.put("wire.sim_us_per_req", per_req(c.get("wire_sim_ns")) / 1e3);
    l.put(
        "mof.pack_ns_per_addr",
        layers::mof_pack_ns_per_addr(&full.node_ids),
    );
    l.put(
        "mof.bdi_ns_per_line",
        layers::mof_bdi_ns_per_line(&full.node_ids),
    );
    l.put("chan.pingpong_us", layers::chan_pingpong_us());
    l.put("chan.send_recv_ns", layers::chan_send_recv_ns());
    l.put(
        "sampler.pick_ns_per_draw",
        layers::sampler_pick_ns_per_draw(),
    );
    if gathers {
        l.put("cluster.gather_us", p50(&full.gather_us));
        l.put(
            "cache.delta_gather_us",
            p50(&full.gather_us) - p50(&wired.gather_us),
        );
    }
    if infers {
        let compute_s: f64 = full.forward_us.iter().sum::<f64>() / 1e6;
        l.put("inference.gather_us", p50(&full.gather_us));
        l.put("inference.compute_us", p50(&full.compute_us));
        l.put("nn.forward_us", p50(&full.forward_us));
        l.put("nn.macs_per_req", per_req(full.macs));
        l.put("nn.gmacs_per_s", full.macs as f64 / 1e9 / compute_s);
        // Per request: what one-in-flight `infer` took beyond its three
        // stages measured through the service and the backend.
        let overhead: Vec<f64> = (0..n)
            .map(|i| door_us[i] - service_us[i] - full.gather_us[i] - full.compute_us[i])
            .collect();
        l.put("inference.pipeline_overhead_us", p50(&overhead));
        let sum = l.get("service.overhead_us")
            + l.get("cluster.sample_us")
            + l.get("inference.gather_us")
            + l.get("inference.compute_us")
            + l.get("inference.pipeline_overhead_us");
        let e2e = p50(&door_us);
        l.put("budget.e2e_p50_us", e2e);
        l.put("budget.sum_us", sum);
        l.put("budget.residual_frac", (e2e - sum) / e2e);
        out.notes.push(format!(
            "budget: service.overhead + cluster.sample + inference.gather + inference.compute + \
             inference.pipeline_overhead = {sum:.1} us against one-in-flight infer p50 {e2e:.1} us, \
             residual {:.4}",
            (e2e - sum) / e2e
        ));
    }

    // The gate: the system under test samples exactly what the plain
    // reference samples, request by request.
    let mismatches = full
        .digests
        .iter()
        .zip(&plain.digests)
        .filter(|(a, b)| a != b)
        .count()
        + wired
            .digests
            .iter()
            .zip(&plain.digests)
            .filter(|(a, b)| a != b)
            .count();
    l.put("digest.checked", (2 * n) as f64);
    out.failed += mismatches;
    out.correct = out.failed == 0;
    out.notes.push(format!(
        "gate: {mismatches} of {} block digests differ from CpuBackend::from_partitioned; \
         set-up {setup_s:.3} s; {n} requests replayed one in flight",
        2 * n
    ));
    let counts: Vec<String> = c.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out.notes
        .push(format!("counts over the replay: {}", counts.join(" ")));
}

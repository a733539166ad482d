//! One cluster shared by several OS threads, the way a service's
//! workers share it: every reply, and the summed accounting, equals a
//! sequential run of the same requests on a twin cluster.
//!
//! * **Wired, uncached** — block digests, row buffers, the summed
//!   `RequestStats` and the `WireSnapshot` all match the twin.
//! * **Cached** — replies match; the tiers' counters depend on the
//!   interleaving and are not compared.
//! * **A partition failed mid-run** from a fifth thread — no caller
//!   hangs or panics, and every reply is exact or degraded: replies
//!   finished before the failure are exact, replies started after it
//!   equal a twin whose partition was down from the start, and a reply
//!   racing it is either exact or degraded with only the failed
//!   partition's lists and rows missing.

use lsdgnn_framework::{
    CacheConfig, Cluster, RequestStats, SampleOutcome, SampleRequest, WireConfig,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionId, PartitionedGraph};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

const NODES: u64 = 2_000;
const ATTR_LEN: usize = 16;
const THREADS: usize = 4;
const PER_THREAD: usize = 16;
/// The partition the fault test fails (never the worker-local 0).
const FAILED: u32 = 1;

fn pg() -> PartitionedGraph {
    let g = generators::power_law(NODES, 8, 5);
    let a = AttributeStore::synthetic(NODES, ATTR_LEN, 5);
    PartitionedGraph::new(g, 4).with_attributes(a)
}

fn spawn(cache: bool) -> Cluster {
    let cache = cache.then_some(CacheConfig {
        neigh_capacity: 256,
        attr_capacity: 256,
    });
    Cluster::spawn(pg(), Some(WireConfig::default()), cache)
}

/// Request `i`: roots drawn from a shared head, so requests on
/// different threads meet on the same hubs, legs and tier entries.
fn request(i: usize) -> SampleRequest {
    let i = i as u64;
    SampleRequest {
        roots: (0..8).map(|r| NodeId((i * 37 + r * 11) % 400)).collect(),
        hops: 2,
        fanout: 5,
        seed: 1_000 + i,
    }
}

/// One request's answers: the stand-alone op, then the gather verb over
/// its roots and nodes.
#[derive(Debug, PartialEq)]
struct Reply {
    outcome: SampleOutcome,
    rows: Vec<u32>,
    slot_of: Vec<u32>,
    stats: RequestStats,
}

fn serve(c: &Cluster, req: &SampleRequest) -> Reply {
    let (mut outcomes, mut stats) = c.sample_blocks_excluding(&[req], &[]);
    let outcome = outcomes.pop().expect("one outcome per request");
    let mut fetch = Vec::new();
    outcome.block.attr_fetch_into(&mut fetch);
    let (mut rows, mut slot_of) = (Vec::new(), Vec::new());
    stats.merge(c.fetch_attr_rows_into(&fetch, &[], &mut rows, &mut slot_of));
    Reply {
        outcome,
        rows: rows.iter().map(|x| x.to_bits()).collect(),
        slot_of,
        stats,
    }
}

/// Runs request `t * PER_THREAD + k` for every `k` of `ks` on thread `t`
/// of `THREADS`, all against `c`; replies come back in request order.
fn concurrently(c: &Cluster, ks: std::ops::Range<usize>) -> Vec<Reply> {
    let mut replies: Vec<(usize, Reply)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ks = ks.clone();
                s.spawn(move || {
                    ks.map(|k| t * PER_THREAD + k)
                        .map(|i| (i, serve(c, &request(i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    replies.sort_by_key(|(i, _)| *i);
    replies.into_iter().map(|(_, r)| r).collect()
}

fn sequentially(c: &Cluster) -> Vec<Reply> {
    (0..THREADS * PER_THREAD)
        .map(|i| serve(c, &request(i)))
        .collect()
}

fn summed(replies: &[Reply]) -> RequestStats {
    let mut total = RequestStats::default();
    for r in replies {
        total.merge(r.stats);
    }
    total
}

#[test]
fn concurrent_workers_answer_and_count_what_a_sequential_twin_does() {
    let (shared, twin) = (spawn(false), spawn(false));
    let got = concurrently(&shared, 0..PER_THREAD);
    let want = sequentially(&twin);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.outcome.block.digest(),
            w.outcome.block.digest(),
            "request {i}"
        );
        assert_eq!(g, w, "request {i}");
        assert!(!g.outcome.degraded, "request {i}");
    }
    assert_eq!(summed(&got), summed(&want));
    assert!(
        summed(&got).remote_requests > 0,
        "the requests cross partitions"
    );
    assert_eq!(shared.wire_snapshot(), twin.wire_snapshot());
}

#[test]
fn concurrent_workers_over_the_cache_answer_what_a_sequential_twin_does() {
    let (shared, twin) = (spawn(true), spawn(true));
    let got = concurrently(&shared, 0..PER_THREAD);
    let want = sequentially(&twin);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.outcome, w.outcome, "request {i}");
        assert_eq!((&g.rows, &g.slot_of), (&w.rows, &w.slot_of), "request {i}");
    }
    let snap = shared.cache_snapshot().expect("cached");
    assert!(
        snap.neigh.unwrap().hits + snap.attr.unwrap().hits > 0,
        "the tiers serve some of the shared hubs: {snap:?}"
    );
}

/// A reply racing the failure: exact, or degraded with every missing
/// list and row the failed partition's.
fn exact_or_degraded(c: &Cluster, got: &Reply, exact: &Reply, i: usize) {
    // The failure may land between the op and the gather: the op's
    // verdict covers its own block, the stats both calls.
    if got.stats.unreachable_nodes == 0 {
        assert_eq!(got, exact, "request {i}: an undegraded reply is exact");
        return;
    }
    assert_eq!(
        got.outcome.degraded,
        got.outcome.unreachable > 0,
        "request {i}"
    );
    let block = &got.outcome.block;
    let g = c.graph().graph();
    let parents = block.roots.iter().chain(&block.nodes);
    for (j, &parent) in parents.take(block.num_parents()).enumerate() {
        let children = block.children(j);
        if c.graph().owner(parent).0 != FAILED {
            assert_eq!(
                children.len(),
                g.degree(parent).min(5) as usize,
                "request {i}"
            );
        }
        for child in children {
            assert!(g.neighbors(parent).contains(child), "request {i}");
        }
    }
    let store = c.graph().attributes().expect("attributes");
    let mut fetch = Vec::new();
    block.attr_fetch_into(&mut fetch);
    for (&v, &slot) in fetch.iter().zip(&got.slot_of) {
        let row = &got.rows[slot as usize * ATTR_LEN..][..ATTR_LEN];
        let want: Vec<u32> = store.get(v).iter().map(|x| x.to_bits()).collect();
        let zeroed = c.graph().owner(v).0 == FAILED && row.iter().all(|&x| x == 0);
        assert!(row == want || zeroed, "request {i}: row of {v:?}");
    }
}

#[test]
fn failing_a_partition_mid_run_leaves_every_reply_exact_or_degraded() {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let shared = spawn(false);
        let exact = sequentially(&spawn(false));
        let down = spawn(false);
        down.fail_partition(PartitionId(FAILED));
        let after = sequentially(&down);
        // Phase one runs healthy; the fault thread fails the partition
        // while phase two runs; phase three starts after the failure.
        let (one, two) = (PER_THREAD / 4, 3 * PER_THREAD / 4);
        let barrier = Barrier::new(2);
        let (healthy, racing, failed) = std::thread::scope(|s| {
            let fault = s.spawn(|| {
                barrier.wait();
                let was_up = shared.fail_partition(PartitionId(FAILED));
                barrier.wait();
                was_up
            });
            let phase = |ks: std::ops::Range<usize>| concurrently(&shared, ks);
            let healthy = phase(0..one);
            barrier.wait();
            let racing = phase(one..two);
            barrier.wait();
            let failed = phase(two..PER_THREAD);
            assert!(fault.join().expect("fault thread panicked"));
            (healthy, racing, failed)
        });
        assert_eq!(shared.alive_partitions(), 3);
        let ids = |ks: std::ops::Range<usize>| {
            (0..THREADS).flat_map(move |t| ks.clone().map(move |k| t * PER_THREAD + k))
        };
        for (i, got) in ids(0..one).zip(&healthy) {
            assert_eq!(got, &exact[i], "request {i}: before the failure");
        }
        for (i, got) in ids(two..PER_THREAD).zip(&failed) {
            assert_eq!(got, &after[i], "request {i}: after the failure");
        }
        assert!(
            failed.iter().any(|r| r.outcome.degraded),
            "the failure degrades"
        );
        for (i, got) in ids(one..two).zip(&racing) {
            exact_or_degraded(&shared, got, &exact[i], i);
        }
        tx.send(()).expect("test thread alive");
    });
    // A caller that hangs on the failed partition never reports back; a
    // panic ends the run early and is re-raised here.
    if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(300)) {
        panic!("a caller hung after fail_partition");
    }
    if let Err(panic) = run.join() {
        std::panic::resume_unwind(panic);
    }
}

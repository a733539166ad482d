#!/usr/bin/env sh
# Repo CI gate: formatting, lints-as-errors, and the full test suite.
# Run from the workspace root: ./ci.sh
set -eu

# Each step prints its elapsed seconds when the next one starts, and the
# run ends with the steps sorted slowest first, so a step that has grown
# is named by the log rather than by memory.
STEP=""
STEP_T0=0
STEP_TIMES=""
step_end() {
    [ -n "$STEP" ] || return 0
    elapsed=$(($(date +%s) - STEP_T0))
    echo "    ($elapsed s) $STEP"
    STEP_TIMES="$STEP_TIMES$elapsed $STEP
"
    STEP=""
}
step() {
    step_end
    STEP=$1
    STEP_T0=$(date +%s)
    echo "==> $STEP"
}

step "cargo fmt --check"
cargo fmt --check

# --all-targets: tests, examples and crates/bench/benches/* too, which
# neither a plain clippy nor `cargo test` compiles.
step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo test -q"
cargo test -q

# benchmark/ is a package of its own (the workspace does not know it), so
# a rename under crates/ can break it without any step above noticing.
step "benchmark package: unit tests + smoke run"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# tools/sigprof: the LD_PRELOAD sampler this host uses in place of perf.
step "tools/sigprof: compile prof.c"
if command -v gcc >/dev/null 2>&1; then
    mkdir -p target/sigprof
    gcc -O2 -shared -fPIC -Wall -Werror -o target/sigprof/libsigprof.so tools/sigprof/prof.c
else
    echo "    gcc not found: skipped"
fi

step "telemetry smoke: fig14 with --metrics-out/--trace-out"
SMOKE_DIR=results/ci_smoke
rm -rf "$SMOKE_DIR"
LSDGNN_SCALE=800 LSDGNN_BATCHES=1 cargo run --release -q -p lsdgnn-bench -- fig14 \
    --metrics-out "$SMOKE_DIR/metrics.json" --trace-out "$SMOKE_DIR/trace.json"
test -s "$SMOKE_DIR/metrics.json" || { echo "FAIL: metrics snapshot missing or empty"; exit 1; }
test -s "$SMOKE_DIR/trace.json" || { echo "FAIL: chrome trace missing or empty"; exit 1; }
grep -q 'cache_hit_rate' "$SMOKE_DIR/metrics.json" \
    || { echo "FAIL: AxE cache hit rate absent from metrics snapshot"; exit 1; }
grep -q 'latency_us' "$SMOKE_DIR/metrics.json" \
    || { echo "FAIL: service latency histogram absent from metrics snapshot"; exit 1; }
grep -q '"ph"' "$SMOKE_DIR/trace.json" \
    || { echo "FAIL: no trace events in chrome trace"; exit 1; }

step "kernel microbenchmark smoke: bench kernel --quick"
cargo run --release -q -p lsdgnn-bench -- kernel --quick
test -s BENCH_desim_kernel.json \
    || { echo "FAIL: BENCH_desim_kernel.json missing or empty"; exit 1; }
grep -q 'schedule_heavy' BENCH_desim_kernel.json \
    || { echo "FAIL: schedule_heavy workload absent from kernel bench json"; exit 1; }

step "chaos sweep smoke: bench chaos --quick"
cargo run --release -q -p lsdgnn-bench -- chaos --quick
test -s BENCH_chaos.json \
    || { echo "FAIL: BENCH_chaos.json missing or empty"; exit 1; }
grep -q '"any_degraded_success":true' BENCH_chaos.json \
    || { echo "FAIL: no degraded-but-successful response under card failure"; exit 1; }
grep -q '"identical":true' BENCH_chaos.json \
    || { echo "FAIL: zero-fault plan not bit-identical to fault-free run"; exit 1; }

step "wire smoke: bench wire --quick"
cargo run --release -q -p lsdgnn-bench -- wire --quick
test -s BENCH_wire.json \
    || { echo "FAIL: BENCH_wire.json missing or empty"; exit 1; }
grep -q '"digests_equivalent":true' BENCH_wire.json \
    || { echo "FAIL: reordered/wired sampling not isomorphic to the baseline path"; exit 1; }
grep -q '"compression_ratio_ok":true' BENCH_wire.json \
    || { echo "FAIL: BDI did not shrink the sampled remote traffic"; exit 1; }
grep -q '"coalesce_ok":true' BENCH_wire.json \
    || { echo "FAIL: no reorder policy beat the scrambled baseline's locality"; exit 1; }

# Exact fields only: capacity and latency are judged by benchmark/'s
# infer_uniform workload, not by a floor on unpinned threads.
step "inference smoke: bench inference --quick"
cargo run --release -q -p lsdgnn-bench -- inference --quick
test -s BENCH_inference.json \
    || { echo "FAIL: BENCH_inference.json missing or empty"; exit 1; }
grep -q '"digests_match":true' BENCH_inference.json \
    || { echo "FAIL: InferenceService replies not bitwise-identical to the sequential reference"; exit 1; }
grep -q '"one_in_flight_p99_us":[0-9]' BENCH_inference.json \
    || { echo "FAIL: end-to-end p99 absent from inference bench json"; exit 1; }
grep -q '"chaos_all_complete":true' BENCH_inference.json \
    || { echo "FAIL: a reply under card failure was incomplete"; exit 1; }
if grep -q '"chaos_degraded_replies":0,' BENCH_inference.json; then
    echo "FAIL: the mid-stream card failure degraded no reply"; exit 1
fi

step "observability smoke: bench obs --quick"
cargo run --release -q -p lsdgnn-bench -- obs --quick
test -s BENCH_obs.json \
    || { echo "FAIL: BENCH_obs.json missing or empty"; exit 1; }
grep -q '"overhead_ok":true' BENCH_obs.json \
    || { echo "FAIL: instrumented serving overhead above budget"; exit 1; }
grep -q '"digest_identical":true' BENCH_obs.json \
    || { echo "FAIL: observed pipeline not digest-identical to plain pipeline"; exit 1; }
grep -q '"blame_names_fault":true' BENCH_obs.json \
    || { echo "FAIL: tail blame failed to name an injected fault"; exit 1; }
if grep -q '"blame_stages":0,' BENCH_obs.json; then
    echo "FAIL: blame table is empty"; exit 1
fi
grep -q '"merge_jobs_parity":true' BENCH_obs.json \
    || { echo "FAIL: ledger merge digest depends on recorder threads"; exit 1; }

step "traffic smoke: bench traffic --quick"
cargo run --release -q -p lsdgnn-bench -- traffic --quick
test -s BENCH_traffic.json \
    || { echo "FAIL: BENCH_traffic.json missing or empty"; exit 1; }
grep -q '"digests_match":true' BENCH_traffic.json \
    || { echo "FAIL: unshaped ShapedService not digest-identical to the plain service"; exit 1; }
grep -q '"slo_met_improved":true' BENCH_traffic.json \
    || { echo "FAIL: shaping did not improve interactive SLO attainment"; exit 1; }
grep -q '"no_unbounded_queue":true' BENCH_traffic.json \
    || { echo "FAIL: shaped lanes exceeded their bounds or did not cap the backlog"; exit 1; }
grep -q '"autoscaler_cost_ok":true' BENCH_traffic.json \
    || { echo "FAIL: autoscaler costs more per SLO-met than static peak provisioning"; exit 1; }

step "cache smoke: bench cache --quick"
cargo run --release -q -p lsdgnn-bench -- cache --quick
test -s BENCH_cache.json \
    || { echo "FAIL: BENCH_cache.json missing or empty"; exit 1; }
grep -q '"digests_match":true' BENCH_cache.json \
    || { echo "FAIL: a cached arm diverged from the cache-off digest"; exit 1; }
grep -q '"remote_cut_ok":true' BENCH_cache.json \
    || { echo "FAIL: warm cache did not cut remote requests >=2x at the reference cell"; exit 1; }
grep -q '"speedup_ok":true' BENCH_cache.json \
    || { echo "FAIL: cached serving throughput below the gate floor"; exit 1; }
grep -q '"miss_path_ok":true' BENCH_cache.json \
    || { echo "FAIL: on uniform roots the cache's miss path costs more than the gate allows"; exit 1; }
grep -q '"wire_cut_ok":true' BENCH_cache.json \
    || { echo "FAIL: cache hits did not shrink WirePlane response bytes"; exit 1; }
grep -q '"cache_hit_blamed":true' BENCH_cache.json \
    || { echo "FAIL: blame report never attributed time to cache_hit"; exit 1; }

step "trace-report smoke: per-stage summary of the fig14 trace"
cargo run --release -q -p lsdgnn-bench -- trace-report "$SMOKE_DIR/trace.json" \
    | grep -q 'dispatch' \
    || { echo "FAIL: trace-report did not summarize service spans"; exit 1; }

step "parallel harness smoke: fig14 through --jobs 2"
LSDGNN_SCALE=800 LSDGNN_BATCHES=1 cargo run --release -q -p lsdgnn-bench -- fig14 --jobs 2

step_end
echo "step times, slowest first:"
printf '%s' "$STEP_TIMES" | sort -rn | sed 's/^\([0-9]*\) /  \1 s  /'
echo "CI OK"

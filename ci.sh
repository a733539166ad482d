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

# Intra-doc links: deleting or privatising a documented name must not
# leave a link dangling.
step "cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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

# End to end: sample a release binary that runs for more than a
# CPU-second (fig14 at 100 000 nodes: about two), symbolise the dump,
# and require a non-empty "by outermost function" table. The binary is
# run directly, not through `cargo run`, so the preloaded sampler
# profiles it rather than cargo.
step "tools/sigprof: profile fig14 and symbolise it"
missing=""
for tool in python3 addr2line readelf; do
    command -v "$tool" >/dev/null 2>&1 || missing="$missing $tool"
done
if [ ! -f target/sigprof/libsigprof.so ]; then
    echo "    libsigprof.so not built: skipped"
elif [ -n "$missing" ]; then
    echo "    not found:$missing: skipped"
else
    cargo build --release -q -p lsdgnn-bench
    rm -f target/sigprof/fig14.out
    LSDGNN_SCALE=100000 PROF=1 PROF_OUT=target/sigprof/fig14.out \
        LD_PRELOAD=target/sigprof/libsigprof.so target/release/lsdgnn-bench fig14 >/dev/null
    python3 tools/sigprof/sym.py target/sigprof/fig14.out --top 5 >target/sigprof/fig14.txt
    # Rows of the table: from its heading to the first blank line.
    rows=$(awk '/^by outermost function/ { on = 1; next } on && NF == 0 { exit } on { n++ }
        END { print n + 0 }' target/sigprof/fig14.txt)
    cat target/sigprof/fig14.txt
    [ "$rows" -gt 0 ] || { echo "FAIL: sigprof found no function in the fig14 profile"; exit 1; }
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

# Each serving bench asserts its own exact gates (digests, counts, byte
# totals) and exits non-zero when one fails; its artifact goes under
# $SMOKE_DIR so a CI run leaves the committed full-run BENCH_*.json alone.
# Timing is measured only by benchmark/.
for bench in chaos wire inference traffic cache; do
    step "$bench smoke: bench $bench --quick"
    cargo run --release -q -p lsdgnn-bench -- "$bench" --quick --out "$SMOKE_DIR/BENCH_$bench.json"
done

# The committed BENCH_*.json are the record the docs quote: each must be
# a full run (`quick: false`) whose every gate held.
step "bench check: committed BENCH_*.json"
cargo run --release -q -p lsdgnn-bench -- check BENCH_*.json

step "trace-report smoke: per-stage summary of the fig14 trace"
cargo run --release -q -p lsdgnn-bench -- trace-report "$SMOKE_DIR/trace.json" \
    | grep -q 'dispatch' \
    || { echo "FAIL: trace-report did not summarize service spans"; exit 1; }

step "parallel harness smoke: fig14 through --jobs 2"
LSDGNN_SCALE=800 LSDGNN_BATCHES=1 cargo run --release -q -p lsdgnn-bench -- fig14 --jobs 2

step_end
echo "step times, slowest first:"
printf '%s' "$STEP_TIMES" | sort -rn | sed 's/^\([0-9]*\) /  \1 s  /'

# ROADMAP aim 2's size tally: per file, the lines above the column-0
# `#[cfg(test)]` that opens a `mod` (the whole file when there is none;
# a `#[cfg(test)]` on anything else, a test-only helper, is counted),
# summed per crate. Printed for the record; it gates nothing.
echo "non-test lines:"
for dir in crates/framework/src crates/bench/src; do
    lines=$(find "$dir" -name '*.rs' -exec awk '
        FNR == 1 { cut = 0; held = 0 }
        cut { next }
        held && /^(pub(\(crate\))? )?mod / { cut = 1; held = 0; next }
        held { n++; held = 0 }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
    echo "  $lines  $dir"
done
echo "CI OK"

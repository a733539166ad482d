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
# --locked: a workspace dependency change that would rewrite
# benchmark/Cargo.lock fails here instead of rewriting it silently.
step "benchmark package: unit tests + smoke run"
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

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
# and require its rate line and a non-empty "by outermost function"
# table. The binary is run directly, not through `cargo run`, so the
# preloaded sampler profiles it rather than cargo.
step "tools/sigprof: profile fig14 and symbolise it"
missing=""
for tool in python3 addr2line readelf nm; do
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
    # The first line states the rate reached against the one asked for.
    head -1 target/sigprof/fig14.txt \
        | grep -Eq '^[0-9]+ samples over [0-9.]+ CPU-s \([0-9]+ Hz effective, [0-9]+ requested\)$' \
        || { echo "FAIL: sigprof did not report its effective rate"; exit 1; }
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
# totals) and exits non-zero when one fails. Its artifact is a pure
# function of (seed, --quick), so a full run must reproduce the committed
# BENCH_<name>.json byte for byte: a record that no longer matches the
# code fails here, not only a false gate. The run goes under $SMOKE_DIR
# so a CI run leaves the committed records alone; --quick is covered by
# crates/bench/tests/quick_runs.rs. Timing is measured only by
# benchmark/.
for bench in chaos wire inference traffic cache; do
    step "$bench: full run reproduces BENCH_$bench.json"
    cargo run --release -q -p lsdgnn-bench -- "$bench" --out "$SMOKE_DIR/BENCH_$bench.json"
    cmp "$SMOKE_DIR/BENCH_$bench.json" "BENCH_$bench.json" \
        || { echo "FAIL: BENCH_$bench.json is not what bench $bench writes"; exit 1; }
done

# The committed BENCH_*.json are the record the docs quote: each must be
# a full run (`quick: false`) whose every gate held.
step "bench check: committed BENCH_*.json"
cargo run --release -q -p lsdgnn-bench -- check BENCH_*.json

step "trace-report smoke: per-stage summary of the fig14 trace"
cargo run --release -q -p lsdgnn-bench -- trace-report "$SMOKE_DIR/trace.json" \
    | grep -q 'dispatch' \
    || { echo "FAIL: trace-report did not summarize service spans"; exit 1; }

step_end
echo "step times, slowest first:"
printf '%s' "$STEP_TIMES" | sort -rn | sed 's/^\([0-9]*\) /  \1 s  /'

# ROADMAP aim 2's size tally: per file, the lines above the column-0
# `#[cfg(test)]` that opens a `mod` (the whole file when there is none;
# a `#[cfg(test)]` on anything else, a test-only helper, is counted),
# summed per directory. With a second argument, only the lines that
# contain that string. Printed for the record; it gates nothing.
nontest_lines() {
    find "$1" -name '*.rs' -exec awk -v pat="${2:-}" '
        function count(line) { if (pat == "" || index(line, pat)) n++ }
        FNR == 1 { cut = 0; held = 0 }
        cut { next }
        held && /^(pub(\(crate\))? )?mod / { cut = 1; held = 0; next }
        held { count(heldline); held = 0 }
        /^#\[cfg\(test\)\]/ { held = 1; heldline = $0; next }
        { count($0) }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}
echo "non-test lines:"
for dir in crates/framework/src crates/bench/src; do
    echo "  $(nontest_lines "$dir")  $dir"
done
# Beside it, two framework/src sites in the same non-test lines: `Mutex<`
# (ROADMAP item 4 aims at 10 or fewer) and `std::thread::spawn` (a thread
# earns its place only where work runs concurrently).
# Under each tally, the file of each site, so the log names which locks
# and which threads exist.
echo "framework/src sites:"
for pat in 'Mutex<' 'std::thread::spawn'; do
    echo "  $(nontest_lines crates/framework/src "$pat")  $pat"
    for f in $(find crates/framework/src -name '*.rs' | sort); do
        n=$(nontest_lines "$f" "$pat")
        if [ "$n" -gt 0 ]; then
            echo "      $n  $f"
        fi
    done
done
# The knob tally beside it: the `pub` fields of every `pub struct
# *Config` in crates/framework/src (a unit struct counts 0). Printed for
# the record; it gates nothing.
knobs=$(find crates/framework/src -name '*.rs' -exec awk '
    /^pub struct [A-Za-z0-9_]*Config[ <{]/ && /\{$/ { on = 1; next }
    on && /^}/ { on = 0 }
    on && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
echo "config knobs:"
echo "  $knobs  crates/framework/src"
echo "CI OK"

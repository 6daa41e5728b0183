#!/usr/bin/env sh
# The local gate: exactly what CI runs. Operates on the workspace
# default-members; crates/bench sits outside them and is built only by the
# experiments step below.
set -eu
cd "$(dirname "$0")/.."
start=$(date +%s)

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test"
cargo test -q

echo "==> release tiers: campaign corpus, scale, worst case"
# The `#[ignore]`d tests only; the rest of these files ran under
# `cargo test` above.
cargo test --release -q --test check_campaigns --test scale --test harness_conformance \
    --test worst_case --test worst_case_goldens -- --ignored

echo "==> experiments: every exp_* target rewrites its BENCH_*.json"
cargo test -q -p autonet-bench --lib
# E22 and E24 run their smoke tiers, which write BENCH_*_smoke.json; their
# full sizes (minutes) are a by-hand `cargo bench`; the gate below holds the
# E22 smoke rows to the committed full file. The rest rewrite their
# committed rows, so the tree stays clean unless behaviour moved.
SCALE_SMOKE=1 WORST_CASE_SMOKE=1 cargo bench -q -p autonet-bench --benches >/dev/null

echo "==> bench gate: rows equal their committed copies"
python3 scripts/check_bench.py

echo "==> bench gate self-test"
# So the gate cannot rot into always-pass: it must accept an untouched copy
# of a committed file and one whose wall clock moved, and refuse one whose
# exact value moved, and a smoke file (no committed copy: held to the full
# file's rows) with one — and, by the predicates themselves, a smoke file
# whose flood was decoded more often than one send in 16, and three E24
# files: one whose first champion (src-30's) was lowered to 1 ns, below its
# random median, one whose first champion over a zero median was lowered to
# 0, and one whose first seed sweep's min and median champion were both
# lowered to 0, below the 1 ns floor (min <= median still holds).
# Each edit changes the first match only.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
f=BENCH_worst_case.json
smoke=BENCH_scale_smoke.json
first() { awk -v re="$2" -v to="$3" '!done && sub(re, to) { done = 1 } { print }' "$1"; }
mkdir "$tmp/same" "$tmp/wall" "$tmp/moved" "$tmp/decoded" "$tmp/weak" "$tmp/dark" "$tmp/sweep"
cp $f "$tmp/same/"
first $f '"search wall [^"]*": [0-9.]+' '"search wall (s)": 99.5' >"$tmp/wall/$f"
first $f '"evals": [0-9]+' '"evals": 99' >"$tmp/moved/$f"
first $f '"worst blackout": [0-9]+' '"worst blackout": 1' >"$tmp/weak/$f"
first $f '"worst blackout": [0-9]+, "random median": 0,' '"worst blackout": 0, "random median": 0,' >"$tmp/dark/$f"
first $f '"min worst": [0-9]+, "median worst": [0-9]+' '"min worst": 0, "median worst": 0' >"$tmp/sweep/$f"
first $smoke '"bring-up events": [0-9]+' '"bring-up events": 99' >"$tmp/moved/$smoke"
first $smoke '"decoded": [0-9]+' '"decoded": 99' >"$tmp/decoded/$smoke"
python3 scripts/check_bench.py "$tmp/same/$f" "$tmp/wall/$f" >/dev/null
if cmp -s $f "$tmp/wall/$f" || python3 scripts/check_bench.py "$tmp/moved/$f" >/dev/null 2>&1 ||
    python3 scripts/check_bench.py "$tmp/moved/$smoke" >/dev/null 2>&1; then
    echo "the bench gate passed a file whose exact value moved, or the wall edit matched nothing" >&2
    exit 1
fi
if ! python3 scripts/check_bench.py "$tmp/decoded/$smoke" 2>&1 | grep -q 'does not hold: a topology flood'; then
    echo "the bench gate's flood predicate passed a smoke file that decoded 99 of 510 floods" >&2
    exit 1
fi
if ! python3 scripts/check_bench.py "$tmp/weak/$f" 2>&1 | grep -q 'does not hold: every champion' ||
    ! python3 scripts/check_bench.py "$tmp/dark/$f" 2>&1 | grep -q 'does not hold: every champion'; then
    echo "the bench gate's E24 predicate passed a champion below its random median, or one with no blackout" >&2
    exit 1
fi
if ! python3 scripts/check_bench.py "$tmp/sweep/$f" 2>&1 | grep -q 'does not hold: every seed sweep'; then
    echo "the bench gate's E24 sweep predicate passed a median champion of 0" >&2
    exit 1
fi

echo "==> Perfetto trace schema"
# The smoke E22 above just emitted the flagship span trace; validate it
# together with the committed golden export.
python3 scripts/check_trace_schema.py \
    artifacts/e22_fat_tree_256.trace.json \
    tests/goldens/single_link_cut.trace.json

echo "==> repo benchmark (smoke)"
# The frozen benchmark crate builds against the workspace as is, so this
# also proves the public surface it uses still compiles. The run exits
# non-zero if any workload's output check fails; the gate's `benchmark`
# predicates then hold the sharded/classic cycle ratio and the cold boot's
# event count.
benchmark/run.sh --smoke
# The frozen crate's committed lock file is stale and every build rewrites
# it; leave the tree as we found it.
git checkout -- benchmark/Cargo.lock
python3 scripts/check_bench.py benchmark/out/results-smoke.json

echo "==> tracked Rust lines outside benchmark/ (ROADMAP item 7: this number falls)"
git ls-files '*.rs' ':!benchmark' | xargs wc -l | tail -1

echo "==> one seam: no harness crate, no Action enum, no datapath telemetry"
if [ -e crates/harness ] ||
    grep -rEn 'enum Action|Action::|DatapathTelemetry|sample_datapath' \
        crates src tests examples --include='*.rs' | grep -v HostAction; then
    echo "the Autopilot reaches its switch through Environment only (DESIGN.md, The seam)" >&2
    exit 1
fi

echo "==> one bucket layout: no metrics registry beside the spine"
if [ -e crates/trace/src/metrics.rs ] ||
    grep -rEn 'MetricsRegistry|MetricsSnapshot|kernel_metrics|Histogram::' crates src tests examples; then
    echo "quantiles come from autonet_sim::bucket_quantile or exact sorted values (DESIGN.md, Profiling and postmortems)" >&2
    exit 1
fi

echo "==> oracles fold over the spine: no port poll, no snapshots, no blackout switch"
if grep -rEn 'observe_ports|PortObservation|NodeSnapshot|check_blackouts' crates src tests examples; then
    echo "every oracle reads the event spine only (DESIGN.md, Oracle list)" >&2
    exit 1
fi

echo "==> the table oracle holds channel edges, not tables"
# Everything above the unit tests, which build tables to install.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FNR ": " $0 }' crates/check/src/oracle.rs | grep 'ForwardingTable'; then
    echo "each installed table is folded once, at install (DESIGN.md, Oracle list)" >&2
    exit 1
fi

echo "==> every knob has two users: single-valued fields stay constants"
# Each former struct's file, checked for the fields that became a const
# beside their reader. GenOptions::same_slot_pct (scenario.rs) stays.
if grep -rEn 'BridgeParams|PostmortemConfig' crates src tests examples ||
    grep -En 'pub (blockage_samples|probe_miss_limit):' crates/core/src/params.rs ||
    grep -En 'pub (liveness_interval|reply_timeout|vigorous_interval|alternate_retry|tx_buffer_frames):' \
        crates/host/src/controller.rs ||
    grep -En 'pub (cpu_discard|cpu_forward|bus_per_byte|latency|max_forward_len):' crates/host/src/bridge.rs ||
    grep -En 'pub (fc_interval|cut_through_bytes|router_decision_slots|discard_drain_rate):' \
        crates/switch/src/datapath/mod.rs ||
    grep -En 'pub (bringup_budget_ms|blackout_slack):' crates/check/src/oracle.rs ||
    grep -En 'pub (before|after|max_events):' crates/check/src/postmortem.rs ||
    grep -En 'pub same_slot_pct:' crates/check/src/worst_case.rs; then
    echo "a field stays settable only while two non-test callers need different values (DESIGN.md, Knobs)" >&2
    exit 1
fi

echo "==> one kernel queue: no bucket ring or overflow heap beside KeyedHeap"
# calendar.rs holds the queue both kernels pop, queue.rs the EventQueue
# oracle; no other file of the kernel keeps pending events in a heap.
if grep -rEn 'fn rebuild|fn search_min|\bbuckets: Vec<|\boverflow: BinaryHeap' crates/sim/src ||
    grep -rl 'BinaryHeap' crates/sim/src | grep -vE '^crates/sim/src/(calendar|queue)\.rs$'; then
    echo "both kernels pop one KeyedHeap, and EventQueue is only its oracle (DESIGN.md, The sim kernel at scale)" >&2
    exit 1
fi

echo "==> one tick grid: the packet backend keeps it, the harness exports none"
# A skipped tick never reaches the harness, so a harness-side next-tick
# accessor would go stale under the packet backend.
if grep -En 'pub fn next_tick' crates/core/src/node.rs ||
    grep -rEn 'next_tick\(\)' crates/net/src; then
    echo "switch_node::schedule_tick is the one place the packet backend computes a tick instant (DESIGN.md, The seam)" >&2
    exit 1
fi

echo "OK in $(($(date +%s) - start)) s"

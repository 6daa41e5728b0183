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
# 0, one whose first seed sweep's min and median champion were both
# lowered to 0, below the 1 ns floor (min <= median still holds), and one
# whose first search started more runs than it judged candidates; an
# E22 file whose fat_tree-1024 bring-up is back at its 231 epochs; and an
# E1 file whose untraced tuned row reopens at 1 ns, not at the traced one's
# fault-to-open.
# Each edit changes the first match only.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
f=BENCH_worst_case.json
smoke=BENCH_scale_smoke.json
first() { awk -v re="$2" -v to="$3" '!done && sub(re, to) { done = 1 } { print }' "$1"; }
mkdir "$tmp/same" "$tmp/wall" "$tmp/moved" "$tmp/decoded" "$tmp/weak" "$tmp/dark" "$tmp/sweep" "$tmp/runs" "$tmp/storm" "$tmp/untraced"
cp $f "$tmp/same/"
first $f '"search wall [^"]*": [0-9.]+' '"search wall (s)": 99.5' >"$tmp/wall/$f"
first $f '"evals": [0-9]+' '"evals": 99' >"$tmp/moved/$f"
first $f '"worst blackout": [0-9]+' '"worst blackout": 1' >"$tmp/weak/$f"
first $f '"worst blackout": [0-9]+, "random median": 0,' '"worst blackout": 0, "random median": 0,' >"$tmp/dark/$f"
first $f '"min worst": [0-9]+, "median worst": [0-9]+' '"min worst": 0, "median worst": 0' >"$tmp/sweep/$f"
first $f '"runs": [0-9]+' '"runs": 999' >"$tmp/runs/$f"
first $smoke '"bring-up events": [0-9]+' '"bring-up events": 99' >"$tmp/moved/$smoke"
first $smoke '"decoded": [0-9]+' '"decoded": 99' >"$tmp/decoded/$smoke"
first BENCH_scale.json '"fat_tree 1024", "bring-up events": [0-9]+, "bring-up control messages": [0-9]+, "bring-up epochs": [0-9]+' \
    '"fat_tree 1024", "bring-up events": 1, "bring-up control messages": 1, "bring-up epochs": 231' >"$tmp/storm/BENCH_scale.json"
untraced='"tuned, tracing off", "topology": "src-30", "paper reconfig": "~170 ms", "faults": 3, "reconfig": null, "detection": null, "fault-to-open": '
first BENCH_reconfig.json "$untraced[0-9]+" "${untraced}1" >"$tmp/untraced/BENCH_reconfig.json"
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
if cmp -s $f "$tmp/runs/$f" ||
    ! python3 scripts/check_bench.py "$tmp/runs/$f" 2>&1 | grep -q 'does not hold: every search and seed sweep starts'; then
    echo "the bench gate's E24 work predicate passed a search with more runs than evaluations, or the edit matched nothing" >&2
    exit 1
fi
if ! python3 scripts/check_bench.py "$tmp/storm/BENCH_scale.json" 2>&1 | grep -q 'does not hold: the fat_tree-1024 bring-up'; then
    echo "the bench gate's E22 epoch predicate passed a fat_tree-1024 bring-up of 231 epochs" >&2
    exit 1
fi
if cmp -s BENCH_reconfig.json "$tmp/untraced/BENCH_reconfig.json" ||
    ! python3 scripts/check_bench.py "$tmp/untraced/BENCH_reconfig.json" 2>&1 | grep -q 'does not hold: tuned with tracing off'; then
    echo "the bench gate's E1 predicate passed an untraced fault-to-open of 1 ns, or the edit matched nothing" >&2
    exit 1
fi

echo "==> EXPERIMENTS.md: every table rendered from its BENCH file"
python3 scripts/render_experiments.py

echo "==> render gate self-test"
# So the renderer cannot rot into always-pass: it must refuse a copy with
# one cell edited inside a block, one with a pipe table pasted outside
# every block, and one whose marker names a title no file has.
doc=EXPERIMENTS.md
first $doc '^\| naive ' '| NAIVE ' >"$tmp/cell.md"
{ cat $doc; printf '\n| a | b |\n|---|---|\n| 1 | 2 |\n'; } >"$tmp/pasted.md"
first $doc '^<!-- BENCH_reconfig\.json: E1: ' '<!-- BENCH_reconfig.json: E0: ' >"$tmp/title.md"
if cmp -s $doc "$tmp/cell.md" || cmp -s $doc "$tmp/title.md" ||
    ! python3 scripts/render_experiments.py "$tmp/cell.md" 2>&1 | grep -q 're-rendered 1 stale table' ||
    ! python3 scripts/render_experiments.py "$tmp/pasted.md" 2>&1 | grep -q 'a table outside every rendered block' ||
    ! python3 scripts/render_experiments.py "$tmp/title.md" 2>&1 | grep -q 'has no table titled'; then
    echo "the renderer passed an edited cell, a pasted table or a missing title, or an edit matched nothing" >&2
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

echo "==> one tick grid: each backend keeps its own, the control program exports none"
# A skipped tick never reaches the Autopilot, so a core-side next-tick or
# next-sample accessor would go stale under the packet backend.
if grep -rEn 'pub fn next_(tick|sample)' crates/core/src ||
    grep -rEn 'next_(tick|sample)\(\)' crates/net/src; then
    echo "switch_node::schedule_tick and schedule_sample are where the packet backend computes its instants (DESIGN.md, The seam)" >&2
    exit 1
fi

echo "==> one sampling entry point, one campaign backend"
# The sampling round is Autopilot::sample_ports; the campaign engine
# drives Net<D> on either kernel, with no adapter trait between them.
if grep -rEn 'NodeHarness|SlotSubstrate|run_slot\b|trait Substrate' crates src tests examples; then
    echo "backends call Autopilot::sample_ports at their own cadence; campaigns run on Net<D> (DESIGN.md, The seam; The scenario engine)" >&2
    exit 1
fi

echo "==> one observation log: the spine, deliveries, NetStats and node state"
# Opens and closes are spine events, completion is NetStats, host
# failover is the host controller's own state; no second per-event log.
if grep -rEn 'NetEvent|NetEventKind|fn log_event|HostAction::(PortSwitched|AddressLearned)' \
    crates src tests examples; then
    echo "the network keeps one typed log, autonet_trace::EventLog (DESIGN.md, Observability: the typed event spine)" >&2
    exit 1
fi

echo "==> one walk: resuming from first quiescence and from a pause share one loop"
# A second walk loop, or a second ordering of a schedule's events, could
# drift from the one the fork cache keys its pauses and memo by.
if [ "$(grep -rn 'fn walk\b' crates/check/src | wc -l)" -ne 1 ] ||
    [ "$(grep -rnF 'sort_by_key(|e| e.at_ms)' crates/check/src | wc -l)" -ne 1 ]; then
    echo "runs walk one Run::walk, in engine::walk_order (DESIGN.md, Boot once, fork per candidate)" >&2
    exit 1
fi

echo "==> one table image: dense prefix rows, one one-hop base"
# Prefix runs live in dense per-in-port rows, not a hash map; the one-hop
# entries are programmed once, into the base every table starts from.
if grep -En 'HashMap<\(PortIndex, SwitchNumber\)' crates/switch/src/forwarding.rs ||
    grep -rn 'program_one_hop(' crates src tests examples --include='*.rs' |
    grep -v 'fn program_one_hop(' | grep -v '^crates/core/src/routes.rs:' ||
    [ "$(grep -c 'program_one_hop(' crates/core/src/routes.rs)" -ne 2 ]; then
    echo "a table is one shared image; synthesis starts from routes::cleared_table (DESIGN.md, Forwarding-table prefix runs)" >&2
    exit 1
fi

echo "OK in $(($(date +%s) - start)) s"

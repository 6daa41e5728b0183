#!/usr/bin/env sh
# The local gate: exactly what CI runs. Operates on the workspace
# default-members; crates/bench sits outside them and is built only by the
# experiments step below.
set -eu
cd "$(dirname "$0")/.."
start=$(date +%s)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tab=$(printf '\t')

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
python3 scripts/check_bench.py BENCH_scale_smoke.json BENCH_worst_case_smoke.json

echo "==> EXPERIMENTS.md: every table rendered from its BENCH file"
python3 scripts/render_experiments.py

echo "==> gate self-tests: every planted edit gets its verdict"
# So neither gate can rot into always-pass. A row edits the first match of
# REGEX in a copy of FILE (`-`: no edit; an edit must change the copy),
# runs the gate on the copy and wants `ok` or a refusal that prints TEXT.
# The bench gate accepts an untouched file and a moved wall clock; it
# refuses a moved exact value (a smoke file is held to the full file's
# rows) and each predicate broken: floods decoded more often than one send
# in 16; an E24 champion at 1 ns, below its random median, or at 0 over a
# zero median; a seed sweep at 0, under the 1 ns floor; more runs than
# evaluations; a cut's tick neither run nor superseded; a cut superseding
# more ticks than it runs; fat_tree-1024
# back at its 231 bring-up epochs; an untraced
# tuned E1 row reopening at 1 ns. The renderer refuses an edited cell, a
# table pasted outside every block and a marker naming a missing title.
first() { awk -v re="$2" -v to="$3" '!done && sub(re, to) { done = 1 } { print }' "$1"; }
n=0
while IFS="$tab" read -r file re to gate want; do
    n=$((n + 1))
    mkdir "$tmp/p$n"
    copy="$tmp/p$n/$(basename "$file")"
    if [ "$re" = - ]; then cp "$file" "$copy"; else first "$file" "$re" "$to" >"$copy"; fi
    if [ "$re" != - ] && cmp -s "$file" "$copy"; then
        echo "planted edit $n matched nothing in $file" >&2
        exit 1
    fi
    if out=$(python3 "scripts/$gate.py" "$copy" 2>&1); then got=ok; else got="refused: $out"; fi
    case $want in
        ok) [ "$got" = ok ] ;;
        *) case $got in "refused: "*"$want"*) ;; *) false ;; esac ;;
    esac || {
        echo "planted edit $n in $file wants '$want' from $gate.py, got: $got" >&2
        exit 1
    }
done <<'EOF'
BENCH_worst_case.json	-	-	check_bench	ok
BENCH_worst_case.json	"search wall [^"]*": [0-9.]+	"search wall (s)": 99.5	check_bench	ok
BENCH_worst_case.json	"evals": [0-9]+	"evals": 99	check_bench	'evals' is 99
BENCH_scale_smoke.json	"bring-up events": [0-9]+	"bring-up events": 99	check_bench	'bring-up events' is 99
BENCH_scale_smoke.json	"decoded": [0-9]+	"decoded": 99	check_bench	does not hold: a topology flood
BENCH_worst_case.json	"worst blackout": [0-9]+	"worst blackout": 1	check_bench	does not hold: every champion
BENCH_worst_case.json	"worst blackout": [0-9]+, "random median": 0,	"worst blackout": 0, "random median": 0,	check_bench	does not hold: every champion
BENCH_worst_case.json	"min worst": [0-9]+, "median worst": [0-9]+	"min worst": 0, "median worst": 0	check_bench	does not hold: every seed sweep
BENCH_worst_case.json	"runs": [0-9]+	"runs": 999	check_bench	does not hold: every search and seed sweep starts
BENCH_scale.json	"ticks superseded": [0-9]+	"ticks superseded": 0	check_bench	does not hold: every timer tick
BENCH_scale.json	"SwitchTick": [0-9]+, "ticks run": [0-9]+, "ticks superseded": [0-9]+	"SwitchTick": 3489, "ticks run": 1, "ticks superseded": 3488	check_bench	does not hold: a cut supersedes
BENCH_scale.json	"fat_tree 1024", "bring-up events": [0-9]+, "bring-up control messages": [0-9]+, "bring-up epochs": [0-9]+	"fat_tree 1024", "bring-up events": 1, "bring-up control messages": 1, "bring-up epochs": 231	check_bench	does not hold: the fat_tree-1024 bring-up
BENCH_reconfig.json	"tuned, tracing off", "topology": "src-30", "paper reconfig": "~170 ms", "faults": 3, "reconfig": null, "detection": null, "fault-to-open": [0-9]+	"tuned, tracing off", "topology": "src-30", "paper reconfig": "~170 ms", "faults": 3, "reconfig": null, "detection": null, "fault-to-open": 1	check_bench	does not hold: tuned with tracing off
EXPERIMENTS.md	^\| naive 	| NAIVE 	render_experiments	re-rendered 1 stale table
EXPERIMENTS.md	^<!-- /BENCH -->	&\n\n| a | b |\n|---|---|\n| 1 | 2 |	render_experiments	a table outside every rendered block
EXPERIMENTS.md	^<!-- BENCH_reconfig\.json: E1: 	<!-- BENCH_reconfig.json: E0: 	render_experiments	has no table titled
EOF

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

echo "==> guards: one way to do each thing, each guard caught by its plant"
# A row: name; ERE (`-`: the scope paths must not exist); scope; files
# allowed to match (`cfg(test)`: each file from its first `#[cfg(test)]`
# on); expected matches (0: forbidden); the DESIGN.md text saying why; a
# plant, one line the row must catch. hits ROOT ERE SCOPE ALLOWED prints
# the row's matches under ROOT, and exits 2 if a scope path is missing.
hits() (
    cd "$1"
    if [ "$2" = - ]; then
        for p in $3; do [ ! -e "$p" ] || echo "$p exists"; done
        exit 0
    fi
    for p in $3; do [ -e "$p" ] || exit 2; done
    grep -rIHEn -- "$2" $3 | while IFS=: read -r f line text; do
        case " $4 " in *" $f "*) continue ;; esac
        if [ "$4" = 'cfg(test)' ]; then
            t=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1)
            [ -z "$t" ] || [ "$line" -lt "$t" ] || continue
        fi
        printf '%s:%s:%s\n' "$f" "$line" "$text"
    done
)
count() { printf '%s' "$1" | grep -c . || true; }
while IFS="$tab" read -r name ere scope allowed want anchor plant; do
    grep -qF "$anchor" DESIGN.md || { echo "guard '$name': DESIGN.md lost '$anchor'" >&2; exit 1; }
    found=$(hits . "$ere" "$scope" "$allowed") || { echo "guard '$name': missing scope in $scope" >&2; exit 1; }
    if [ "$(count "$found")" -ne "$want" ]; then
        printf '%s\n' "$found" >&2
        echo "guard '$name': want $want matches in $scope (DESIGN.md, $anchor)" >&2
        exit 1
    fi
    # The self-test: a copy of the scope with the plant in its first path.
    root="$tmp/guard"
    rm -rf "$root" && mkdir "$root"
    for p in $scope; do
        [ ! -e "$p" ] || { mkdir -p "$root/$(dirname "$p")" && cp -R "$p" "$root/$p"; }
    done
    p=${scope%% *}
    if [ "$ere" = - ]; then mkdir -p "$root/$p"
    elif [ -d "$p" ]; then printf '%s\n' "$plant" >"$root/$p/guard_plant.rs"
    else { printf '%s\n' "$plant"; cat "$p"; } >"$root/$p"; fi
    if ! found=$(hits "$root" "$ere" "$scope" "$allowed") || [ "$(count "$found")" -ne $((want + 1)) ]; then
        echo "guard '$name' did not catch its plant ($plant)" >&2
        exit 1
    fi
done <<'EOF'
harness crate	-	crates/harness	-	0	The seam	-
Action enum	enum Action|\bAction::|DatapathTelemetry|sample_datapath	crates src tests examples	-	0	The seam	enum Action {}
metrics module	-	crates/trace/src/metrics.rs	-	0	Profiling and postmortems	-
metrics registry	MetricsRegistry|MetricsSnapshot|kernel_metrics|Histogram::	crates src tests examples	-	0	Profiling and postmortems	let r = MetricsRegistry::new();
port polls	observe_ports|PortObservation|NodeSnapshot|check_blackouts	crates src tests examples	-	0	Oracle list	fn observe_ports() {}
tables in the table oracle	ForwardingTable	crates/check/src/oracle.rs	cfg(test)	0	Oracle list	use autonet_switch::ForwardingTable;
knob structs	BridgeParams|PostmortemConfig	crates src tests examples	-	0	Knobs	struct BridgeParams;
autopilot knobs	pub (blockage_samples|probe_miss_limit):	crates/core/src/params.rs	-	0	Knobs	pub blockage_samples: u32,
host driver knobs	pub (liveness_interval|reply_timeout|vigorous_interval|alternate_retry|tx_buffer_frames):	crates/host/src/controller.rs	-	0	Knobs	pub reply_timeout: u64,
bridge knobs	pub (cpu_discard|cpu_forward|bus_per_byte|latency|max_forward_len):	crates/host/src/bridge.rs	-	0	Knobs	pub latency: u64,
datapath knobs	pub (fc_interval|cut_through_bytes|router_decision_slots|discard_drain_rate):	crates/switch/src/datapath/mod.rs	-	0	Knobs	pub fc_interval: u64,
oracle knobs	pub (bringup_budget_ms|blackout_slack):	crates/check/src/oracle.rs	-	0	Knobs	pub blackout_slack: u64,
postmortem knobs	pub (before|after|max_events):	crates/check/src/postmortem.rs	-	0	Knobs	pub max_events: usize,
search knob	pub same_slot_pct:	crates/check/src/worst_case.rs	-	0	Knobs	pub same_slot_pct: u8,
bucket ring	fn rebuild|fn search_min|bucket_width|\boverflow: BinaryHeap	crates/sim/src	-	0	The sim kernel at scale	fn rebuild() {}
second kernel heap	BinaryHeap	crates/sim/src	crates/sim/src/calendar.rs crates/sim/src/queue.rs	0	The sim kernel at scale	use std::collections::BinaryHeap;
core tick accessor	pub fn next_(tick|sample)	crates/core/src	-	0	The seam	pub fn next_tick() {}
net tick reads	next_(tick|sample)\(\)	crates/net/src	-	0	The seam	let t = ap.next_sample();
armed ticks	fn schedule_tick	crates/net/src	-	0	The armed tick	fn schedule_tick() {}
campaign adapters	NodeHarness|SlotSubstrate|run_slot\b|trait Substrate	crates src tests examples	-	0	scenario engine	trait Substrate {}
second event log	NetEvent|NetEventKind|fn log_event|HostAction::(PortSwitched|AddressLearned)	crates src tests examples	-	0	Observability: the typed event spine	fn log_event() {}
one walk	fn walk\b	crates/check/src	-	1	Boot once, fork per candidate	fn walk() {}
one walk order	sort_by_key\(\|e\| e\.at_ms\)	crates/check/src	-	1	Boot once, fork per candidate	events.sort_by_key(|e| e.at_ms);
hashed prefix runs	HashMap<\(PortIndex, SwitchNumber\)	crates/switch/src/forwarding.rs	-	0	Forwarding-table prefix runs	runs: HashMap<(PortIndex, SwitchNumber), u8>,
one-hop entries elsewhere	program_one_hop\(	crates src tests examples	crates/core/src/routes.rs	0	Forwarding-table prefix runs	program_one_hop(&mut table);
one-hop base	program_one_hop\(	crates/core/src/routes.rs	-	2	Forwarding-table prefix runs	program_one_hop(&mut table);
second distance read	fn legal_dists_to|RouteKind::Unrestricted|has_dependency_cycle	crates src tests examples	-	0	One field pool, one table fold	fn legal_dists_to() {}
one table fold	fn table_edges\b	crates src tests examples	-	1	One field pool, one table fold	fn table_edges() {}
second field pool	LegalFields|fn legal_fields|SharedRoutes	crates src tests examples	-	0	One field pool	struct SharedRoutes;
field cells elsewhere	OnceCell<Vec<u32>>	crates src tests examples	crates/core/src/routes.rs	0	One field pool	let f: Vec<OnceCell<Vec<u32>>> = Vec::new();
delta proof	fn delta_donor|fn tree_preserved|fn link_signature|delta_ok	crates src tests examples	-	0	Memo and promotion are the only reuse	fn delta_donor() {}
threaded shard loop	struct Rendezvous|fn run_until_threaded|thread::scope|SPIN_POLLS	crates/sim/src	-	0	One sequential loop serves every shard	struct Rendezvous;
EOF
if hits . x no/such/path -; then
    echo "a guard whose scope is missing passed" >&2
    exit 1
fi

echo "OK in $(($(date +%s) - start)) s"

#!/usr/bin/env sh
# The local gate: exactly what CI runs. Operates on the workspace
# default-members (crates/bench is excluded so the check needs no
# criterion fetch; run `cargo bench` explicitly for experiments).
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test"
cargo test -q

echo "==> golden traces"
cargo test -q --test golden_traces

echo "==> tracing overhead"
cargo test -q --test determinism disabled_tracing

echo "==> campaign corpus (release)"
cargo test --release -q --test check_campaigns -- --ignored

echo "==> scale tier (release)"
cargo test --release -q --test scale -- --ignored
cargo test --release -q --test harness_conformance -- --ignored

echo "==> worst-case tier (release)"
cargo test --release -q --test worst_case -- --ignored
cargo test --release -q --test worst_case_goldens -- --include-ignored

echo "==> scale smoke + bench JSON schema"
SCALE_SMOKE=1 cargo bench -q -p autonet-bench --bench exp_scale
WORST_CASE_SMOKE=1 cargo bench -q -p autonet-bench --bench exp_worst_case
python3 scripts/check_bench_schema.py \
    BENCH_scale_smoke.json BENCH_scale.json \
    BENCH_worst_case_smoke.json BENCH_worst_case.json \
    BENCH_reconfig.json BENCH_interruption.json

echo "==> Perfetto trace schema"
# The smoke bench above just emitted the flagship span trace; validate it
# together with the committed golden export.
python3 scripts/check_trace_schema.py \
    artifacts/e22_fat_tree_256.trace.json \
    tests/goldens/single_link_cut.trace.json

echo "==> repo benchmark (smoke) + sharded/classic cycle gate"
# The frozen benchmark crate builds against the workspace as is, so this
# also proves the public surface it uses still compiles. The run exits
# non-zero if any workload's output check fails; the gate then holds the
# 2-partition cycle within 3x of the classic one, same run, same box.
benchmark/run.sh --smoke
python3 scripts/check_benchmark_gate.py benchmark/out/results-smoke.json

# Opt-in: regenerate the machine-readable experiment results at the repo
# root (BENCH_reconfig.json, BENCH_interruption.json) and gate the fresh
# E1 numbers against the committed baseline: the dominant critical-path
# phase must not move and median reconfiguration time must not regress.
# Off by default — the bench crate sits outside default-members.
if [ "${AUTONET_BENCH_JSON:-0}" = "1" ]; then
    echo "==> bench JSON (E1 reconfig, E21 interruption, E24 worst case)"
    cargo bench -q -p autonet-bench --bench exp_reconfig_time
    cargo bench -q -p autonet-bench --bench exp_interruption
    cargo bench -q -p autonet-bench --bench exp_worst_case
    python3 scripts/check_bench_schema.py \
        BENCH_reconfig.json BENCH_interruption.json BENCH_worst_case.json
    echo "==> reconfig critical-path gate"
    python3 scripts/check_reconfig_gate.py BENCH_reconfig.json
fi

echo "OK"

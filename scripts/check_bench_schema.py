#!/usr/bin/env python3
"""Schema check for the machine-readable bench artifacts (BENCH_*.json).

Validates structure and value sanity so a bench that silently emits
garbage (or a kernel regression that tanks throughput to zero) fails the
gate. Usage: check_bench_schema.py FILE...
"""

import json
import sys


def fail(path, msg):
    print(f"schema check FAILED: {path}: {msg}", file=sys.stderr)
    sys.exit(1)


def require(path, obj, key, types):
    if key not in obj:
        fail(path, f"missing key {key!r}")
    if not isinstance(obj[key], types):
        fail(path, f"key {key!r} has type {type(obj[key]).__name__}")
    return obj[key]


def check_scale(path, doc):
    require(path, doc, "preset", str)
    require(path, doc, "smoke", bool)
    rows = require(path, doc, "topologies", list)
    if not rows:
        fail(path, "no topology rows")
    for row in rows:
        require(path, row, "topology", str)
        for key in ("switches", "links", "events"):
            if require(path, row, key, int) <= 0:
                fail(path, f"{row['topology']}: {key} must be positive")
        for key in (
            "bringup_sim_ms",
            "bringup_wall_s",
            "cut_sim_ms",
            "cut_wall_s",
            "events_per_sec",
            "wall_per_sim_sec",
        ):
            if require(path, row, key, (int, float)) <= 0:
                fail(path, f"{row['topology']}: {key} must be positive")
        # Exact bring-up work counters (classic kernel): functions of
        # topology, preset and seed alone.
        for key in ("bringup_events", "bringup_ctrl_msgs", "bringup_epochs"):
            if require(path, row, key, int) <= 0:
                fail(path, f"{row['topology']}: {key} must be positive")
        if row["bringup_events"] >= row["events"]:
            fail(path, f"{row['topology']}: bring-up is a prefix of the cycle")
        if not 0.0 <= require(path, row, "stale_msg_frac", (int, float)) <= 1.0:
            fail(path, f"{row['topology']}: stale_msg_frac out of [0, 1]")
        # The untraced sharded executor at 1 and 2 partitions: same
        # scenario as the classic columns above, one variable apart.
        for n in (1, 2):
            for key in (f"sharded{n}_bringup_wall_s", f"sharded{n}_cut_wall_s"):
                if require(path, row, key, (int, float)) <= 0:
                    fail(path, f"{row['topology']}: {key} must be positive")
            if require(path, row, f"sharded{n}_events", int) <= 0:
                fail(path, f"{row['topology']}: sharded{n}_events must be positive")
        # A fault is delivered to every shard: one more event per extra shard.
        if row["sharded2_events"] != row["sharded1_events"] + 1:
            fail(path, f"{row['topology']}: 1 and 2 partitions did different work")
        # Kernel-telemetry attribution columns (causal-profiler PR).
        if require(path, row, "partitions", int) <= 0:
            fail(path, f"{row['topology']}: partitions must be positive")
        if require(path, row, "profile_wall_s", (int, float)) <= 0:
            fail(path, f"{row['topology']}: profile_wall_s must be positive")
        if require(path, row, "profile_events", int) <= 0:
            fail(path, f"{row['topology']}: profile_events must be positive")
        frac = require(path, row, "barrier_wait_frac", (int, float))
        if not 0.0 <= frac <= 1.0:
            fail(path, f"{row['topology']}: barrier_wait_frac out of [0, 1]")
        if require(path, row, "load_imbalance", (int, float)) < 1.0 - 1e-9:
            fail(path, f"{row['topology']}: load_imbalance below 1.0")
        quantiles = [
            require(path, row, k, (int, float))
            for k in (
                "barrier_wait_p50_us",
                "barrier_wait_p99_us",
                "barrier_wait_p999_us",
            )
        ]
        if any(q < 0 for q in quantiles) or quantiles != sorted(quantiles):
            fail(path, f"{row['topology']}: barrier-wait quantiles not monotone")
        rc = row.get("route_cache")
        if rc is not None:
            for key in (
                "builds",
                "served_memo",
                "delta_reused",
                "synthesized",
                "unroutable",
            ):
                if require(path, rc, key, int) < 0:
                    fail(path, f"{row['topology']}: route_cache.{key} negative")
            for key in ("build_wall_ms", "serve_wall_ms", "delta_wall_ms"):
                if require(path, rc, key, (int, float)) < 0:
                    fail(path, f"{row['topology']}: route_cache.{key} negative")
        shards = require(path, row, "shards", list)
        if len(shards) != row["partitions"]:
            fail(path, f"{row['topology']}: shards length != partitions")
        if sum(require(path, s, "events", int) for s in shards) != row["profile_events"]:
            fail(path, f"{row['topology']}: shard events do not sum to profile total")
        for s in shards:
            for key in ("windows", "busy_windows", "mailbox_in", "mailbox_out"):
                if require(path, s, key, int) < 0:
                    fail(path, f"{row['topology']}: shard {key} negative")
            for key in ("work_ms", "barrier_wait_ms"):
                if require(path, s, key, (int, float)) < 0:
                    fail(path, f"{row['topology']}: shard {key} negative")
            util = require(path, s, "utilization", (int, float))
            if not 0.0 <= util <= 1.0:
                fail(path, f"{row['topology']}: shard utilization out of [0, 1]")


# The six stable phase tags of autonet-trace's critical path.
PHASES = {
    "detect",
    "close-propagation",
    "tree-stabilize",
    "address-assign",
    "table-distribute",
    "reopen",
}


def check_reconfig(path, doc):
    rows = require(path, doc, "presets", list)
    if not rows:
        fail(path, "no preset rows")
    for row in rows:
        preset = require(path, row, "preset", str)
        require(path, row, "topology", str)
        if require(path, row, "faults", int) <= 0:
            fail(path, f"{preset}: faults must be positive")
        for key in ("median_reconfig_ms", "median_detection_ms", "median_total_ms"):
            if require(path, row, key, (int, float)) <= 0:
                fail(path, f"{preset}: {key} must be positive")
        if require(path, row, "wall_ms", (int, float)) <= 0:
            fail(path, f"{preset}: wall_ms must be positive")
        # Tracing-off rows carry null critical-path fields; traced rows
        # must name a known phase and a positive distribute time.
        phase = require(path, row, "dominant_phase", (str, type(None)))
        if phase is not None and phase not in PHASES:
            fail(path, f"{preset}: unknown dominant_phase {phase!r}")
        dist = require(path, row, "median_table_distribute_ms", (int, float, type(None)))
        if dist is not None and dist < 0:
            fail(path, f"{preset}: median_table_distribute_ms must be >= 0")
        # Cache-off rows carry null; cache-on rows report the counters.
        cache = require(path, row, "route_cache", (dict, type(None)))
        if cache is not None:
            for key in ("builds", "served_memo", "delta_reused", "synthesized"):
                if require(path, cache, key, int) < 0:
                    fail(path, f"{preset}: route_cache.{key} must be >= 0")
            if cache["builds"] <= 0:
                fail(path, f"{preset}: route_cache on but zero builds")


def check_interruption(path, doc):
    if require(path, doc, "probe_interval_ms", (int, float)) <= 0:
        fail(path, "probe_interval_ms must be positive")
    rows = require(path, doc, "topologies", list)
    if not rows:
        fail(path, "no topology rows")
    for row in rows:
        topo = require(path, row, "topology", str)
        pairs = require(path, row, "pairs", int)
        affected = require(path, row, "affected_pairs", int)
        if pairs <= 0:
            fail(path, f"{topo}: pairs must be positive")
        if not 0 <= affected <= pairs:
            fail(path, f"{topo}: affected_pairs outside [0, pairs]")
        if require(path, row, "critical_path_ms", (int, float)) <= 0:
            fail(path, f"{topo}: critical_path_ms must be positive")
        # A blackout is two or more probes lost in a row: a cut that costs
        # every pair a single probe darkens no pair and has no window.
        for key in ("median_blackout_ms", "max_blackout_ms", "p90_blackout_ms"):
            if (require(path, row, key, (int, float)) > 0) != (affected > 0):
                fail(path, f"{topo}: {key} must be positive exactly when pairs went dark")
        if row["median_blackout_ms"] > row["max_blackout_ms"]:
            fail(path, f"{topo}: median blackout exceeds max")
        cov = require(path, row, "critical_path_coverage", (int, float))
        if not 0.0 <= cov <= 1.0 + 1e-9:
            fail(path, f"{topo}: coverage outside [0, 1]")


def check_worst_case(path, doc):
    require(path, doc, "seed", int)
    require(path, doc, "smoke", bool)
    rows = require(path, doc, "topologies", list)
    if not rows:
        fail(path, "no topology rows")
    for row in rows:
        topo = require(path, row, "topology", str)
        events = require(path, row, "events", int)
        if not 1 <= events <= 3:
            fail(path, f"{topo}: champion must be a 1-3 event schedule, has {events}")
        worst = require(path, row, "worst_blackout_ms", (int, float))
        if worst <= 0:
            fail(path, f"{topo}: worst_blackout_ms must be positive")
        median = require(path, row, "random_median_blackout_ms", (int, float))
        if not 0 <= median <= worst:
            fail(path, f"{topo}: random median outside [0, worst]")
        if require(path, row, "affected_pairs", int) <= 0:
            fail(path, f"{topo}: affected_pairs must be positive")
        for key in ("skeptic_hold_ms", "unroutable_ms"):
            if require(path, row, key, (int, float)) < 0:
                fail(path, f"{topo}: {key} must be >= 0")
        if require(path, row, "evaluations", int) <= 0:
            fail(path, f"{topo}: evaluations must be positive")
        if require(path, row, "violations", int) < 0:
            fail(path, f"{topo}: violations must be >= 0")
        # Every candidate of a search resumes a clone of one booted world.
        # An exact count, so going back to a boot per evaluation fails
        # here and not as a noisy wall clock.
        boots = require(path, row, "boots", int)
        if boots != 1:
            fail(path, f"{topo}: search booted {boots} times, must be exactly 1")
        if require(path, row, "wall_s", (int, float)) <= 0:
            fail(path, f"{topo}: wall_s must be positive")


def check_generic(path, doc):
    # Every bench artifact names its experiment; beyond that the bodies
    # are experiment-specific.
    require(path, doc, "experiment", str)


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, str(e))
        experiment = require(path, doc, "experiment", str)
        if experiment == "scale":
            check_scale(path, doc)
        elif experiment == "reconfig_time":
            check_reconfig(path, doc)
        elif experiment == "interruption":
            check_interruption(path, doc)
        elif experiment == "worst_case":
            check_worst_case(path, doc)
        else:
            check_generic(path, doc)
        print(f"schema OK: {path} ({experiment})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Gate on a result set written by `benchmark/run.sh` (usually --smoke).

Fails if any workload had a failed op or check (a run whose contract line
said `"correct": false`), and if the 2-partition sharded kernel costs more
than MAX_RATIO times the classic kernel per quiescent cut-and-heal cycle.
Both numbers come from the same run on the same box, so host speed cancels.
The ratio was ~18x with three blocking barriers per lookahead window; the
one-rendezvous kernel sits near 1x on two cores.

On the smoke tier at the default seed it also holds the bring-up storm
down: `events=` on the `exact:` line of the 256-switch cold boot is a pure
function of the inputs, the same on every host. It was 1 804 969 while
stale-epoch messages were answered with a fresh advertisement and is
642 666 with them ignored; more than 10% above that fails.

usage: check_benchmark_gate.py benchmark/out/results-smoke.json
"""

import json
import re
import sys

MAX_RATIO = 3.0
CLASSIC = "ft256_cut_heal"
SHARDED = "ft256_cut_heal_sharded2"
METRIC = "op_wall_ms_p50"
BRINGUP = "ft576_bringup"
BRINGUP_SEED = 1991
BRINGUP_EVENTS = 642_666


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        results = json.load(f)
    workloads = results["workloads"]
    bad = [name for name, w in workloads.items() if w["failed"] != 0]
    if bad:
        print(f"FAIL: incorrect runs in {', '.join(bad)}", file=sys.stderr)
        return 1
    cycle = {
        name: workloads[name]["end_to_end"][METRIC]["median"]
        for name in (CLASSIC, SHARDED)
    }
    ratio = cycle[SHARDED] / cycle[CLASSIC]
    print(
        f"{SHARDED} {METRIC} {cycle[SHARDED]:.1f} ms / "
        f"{CLASSIC} {cycle[CLASSIC]:.1f} ms = {ratio:.2f}x (gate {MAX_RATIO:.0f}x)"
    )
    if ratio > MAX_RATIO:
        print("FAIL: the sharded kernel's cycle is over the gate", file=sys.stderr)
        return 1
    if results["smoke"] and results["seed"] == BRINGUP_SEED:
        events = int(re.search(r"\bevents=(\d+)", workloads[BRINGUP]["exact"]).group(1))
        print(f"{BRINGUP} events={events} (gate {BRINGUP_EVENTS} + 10%)")
        if events > BRINGUP_EVENTS * 1.1:
            print("FAIL: the bring-up storm is back", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""The one gate on measured rows.

  check_bench.py [BENCH_x.json ...]     experiment rows written by
                                        `autonet_bench::Report`; with no
                                        argument, every committed
                                        BENCH_*.json (a smoke file is
                                        checked only when named)
  check_bench.py benchmark/out/results-smoke.json
                                        a result set of `benchmark/run.sh`

A Report file carries its own schema: each table lists its columns with a
kind. Every value must have its column's kind; a `wall` value (read off a
real clock) must be finite and not negative (a cache that served no delta
spent no time on one) and is otherwise ignored; every
other value is a pure function of the experiment's seeds and must equal
the committed copy (`git show HEAD:<file name>`) exactly. A file with no
committed copy (the smoke tiers) is held to its kinds and the predicates,
and, where the smoke tier runs a subset of the full one (SMOKE_ROWS_OF_FULL),
row by row to the committed full file. To move a number on purpose, commit
the regenerated file with the change that moved it.

What must hold between values is PREDICATES below, and nothing else is.
"""

import json
import math
import os
import re
import subprocess
import sys

KINDS = {
    "count": lambda v: type(v) is int and v >= 0,
    "ns": lambda v: type(v) is int and v >= 0,
    "real": lambda v: type(v) in (int, float) and math.isfinite(v),
    "text": lambda v: type(v) is str,
    "bool": lambda v: type(v) is bool,
    "wall": lambda v: type(v) in (int, float) and math.isfinite(v) and v >= 0,
}


def rows(doc, table=0):
    return doc["tables"][table]["rows"]


def by(doc, key, table=0):
    """Rows of a table grouped under one column's value."""
    groups = {}
    for row in rows(doc, table):
        groups.setdefault(row[key], []).append(row)
    return groups


def e1(doc, implementation, column):
    return by(doc, "implementation")[implementation][0][column]


def cycle_ms(doc, workload):
    return doc["workloads"][workload]["end_to_end"]["op_wall_ms_p50"]["median"]


def boot_events(doc):
    return int(re.search(r"\bevents=(\d+)", doc["workloads"]["ft576_bringup"]["exact"])[1])


# (experiment, what must hold, test over the whole document). A `_smoke`
# file answers to its experiment's predicates; "benchmark" is a result set
# of benchmark/run.sh, where both sides of a ratio come from one run on one
# box, so host speed cancels.
PREDICATES = [
    ("reconfig", "incremental reconfigures strictly faster than tuned (E1)",
     lambda d: e1(d, "incremental", "reconfig") < e1(d, "tuned", "reconfig")),
    # Tracing is observability, not behaviour.
    ("reconfig", "tuned with tracing off reopens at tuned's fault-to-open to the nanosecond (E1)",
     lambda d: e1(d, "tuned", "fault-to-open") is not None
     and e1(d, "tuned, tracing off", "fault-to-open") == e1(d, "tuned", "fault-to-open")),
    ("interruption", "median <= p90 <= max blackout on every row (E21)",
     lambda d: all((r["median blackout"] or 0) <= (r["p90 blackout"] or 0) <= (r["max blackout"] or 0)
                   for r in rows(d))),
    ("scale", "a fault is delivered to every shard: two partitions do one event more than one (E22)",
     lambda d: all(r["sharded x2 events"] == r["sharded x1 events"] + 1 for r in rows(d, 1))),
    ("scale", "a topology flood is encoded or decoded at most once per 16 sends (E22)",
     lambda d: all(16 * (r["encoded"] + r["decoded"]) <= r["topology floods sent"] for r in rows(d, 1))),
    # Every SwitchTick event runs the Autopilot or is counted superseded.
    ("scale", "every timer tick of a cut ran the Autopilot or was superseded (E22)",
     lambda d: all(r["SwitchTick"] == r["ticks run"] + r["ticks superseded"] for r in rows(d, 5))),
    # The identity alone holds by construction; this bounds the waste. The
    # deleted idle grid, its idle ticks counted superseded, would put about
    # five beside each one run (fat_tree-256 cut: 10 661 events, 1 841 run).
    ("scale", "a cut supersedes at most as many ticks as it runs (E22)",
     lambda d: all(r["ticks superseded"] <= r["ticks run"] for r in rows(d, 5))),
    ("scale", "the fat_tree-1024 bring-up ends in epoch 77 or lower, a third of the 231 it reached"
              " while each verified port started its own epoch (E22)",
     lambda d: all(r["bring-up epochs"] <= 77 for r in rows(d, 1) if r["topology"] == "fat_tree 1024")),
    ("scale", "shard events sum to the profile pass's total (E25)",
     lambda d: all(sum(s["events"] for s in by(d, "topology", 4)[r["topology"]]) == r["profile events"]
                   for r in rows(d, 3))),
    ("worst_case", "every search boots its world exactly once (E24)",
     lambda d: all(r["boots"] == 1 for r in rows(d))),
    # A judgement the memo answers starts no run, and a run resumed from a
    # pause simulates less than the past it is judged on.
    ("worst_case", "every search and seed sweep starts at most one run per evaluation and simulates"
                   " at most the virtual time it judged (E24)",
     lambda d: all(r["runs"] <= r["evals"] and r["simulated share"] <= 1
                   for table in (0, 1) for r in rows(d, table))),
    # Nonzero as well: on a row whose corpus found no blackout the median
    # alone would pass a search that found nothing either.
    ("worst_case", "every champion's blackout is nonzero and at least its random corpus median (E24)",
     lambda d: all(r["worst blackout"] >= max(r["random median"], 1) for r in rows(d))),
    ("worst_case", "every seed sweep has min <= median <= max champion, the median nonzero and"
                   " at least the median random median (E24)",
     lambda d: all(r["min worst"] <= r["median worst"] <= r["max worst"]
                   and r["median worst"] >= max(r["median random median"], 1) for r in rows(d, 1))),
    ("benchmark", "no workload had a failed op or check",
     lambda d: all(w["failed"] == 0 for w in d["workloads"].values())),
    ("benchmark", "the 2-partition cut-and-heal cycle costs at most 3x the classic one",
     lambda d: cycle_ms(d, "ft256_cut_heal_sharded2") <= 3 * cycle_ms(d, "ft256_cut_heal")),
    ("benchmark", "the smoke tier's 256-switch cold boot takes at most 496 698 + 10% events at seed 1991"
                  " (642 666 while each verified port started its own epoch, 1 804 969 while stale"
                  " epochs were answered)",
     lambda d: not (d["smoke"] and d["seed"] == 1991) or boot_events(d) <= 496_698 * 1.1),
]


def check_kinds(doc):
    """Yields what is wrong with the file by its own column lists."""
    for table in doc["tables"]:
        kinds = dict(table["columns"])
        for n, row in enumerate(table["rows"]):
            if list(row) != list(kinds):
                yield f"{table['title']!r} row {n}: keys are not the column list"
                continue
            for name, value in row.items():
                if value is not None and not KINDS[kinds[name]](value):
                    yield f"{table['title']!r} row {n}: {name!r} = {value!r} is not a {kinds[name]}"


def exact(doc):
    """The document with every wall value blanked: what must not move."""
    for table in doc["tables"]:
        for row in table["rows"]:
            for name, kind in table["columns"]:
                if kind == "wall" and name in row:
                    row[name] = None
    return doc


# Smoke tiers that run the full experiment on fewer inputs, same seeds: with
# no committed copy of their own, their rows answer to the committed full
# file's. E24's smoke tier searches under a smaller budget, so it is not one.
SMOKE_ROWS_OF_FULL = {"scale"}


def take(rows, like, names):
    """Removes and returns the first of `rows` equal to `like` under `names`, if any."""
    for i, row in enumerate(rows):
        if all(row[name] == like[name] for name in names):
            return rows.pop(i)
    return None


def differences(base, fresh, subset=False):
    """Yields where two blanked documents differ, cell by cell when they line up.

    With `subset`, `fresh` may hold fewer rows than `base`: each answers to
    the first row of `base` not yet taken that has the same text cells.
    """
    copy = "committed full file" if subset else "committed copy"
    if len(base["tables"]) != len(fresh["tables"]):
        yield f"{len(fresh['tables'])} tables, {copy} has {len(base['tables'])}"
    for old, new in zip(base["tables"], fresh["tables"]):
        title = new["title"]
        lined_up = subset or len(old["rows"]) == len(new["rows"])
        if (old["title"], old["columns"]) != (title, new["columns"]) or not lined_up:
            yield f"{title!r}: title, columns or row count differ from the {copy}"
            continue
        counterparts = old["rows"]
        if subset:
            text = [name for name, kind in new["columns"] if kind == "text"]
            left = list(old["rows"])
            counterparts = [take(left, row, text) for row in new["rows"]]
        for n, (a, b) in enumerate(zip(counterparts, new["rows"])):
            if a is None:
                yield f"{title!r} row {n}: the {copy} has no such row left"
                continue
            for name in a:
                if a[name] != b[name]:
                    yield f"{title!r} row {n}: {name!r} is {b[name]!r}, {copy} has {a[name]!r}"


def committed(path):
    show = subprocess.run(["git", "show", f"HEAD:{os.path.basename(path)}"], capture_output=True, text=True)
    return json.loads(show.stdout) if show.returncode == 0 else None


def check_doc(path, doc):
    """Yields what is wrong with one loaded file."""
    report = "workloads" not in doc
    experiment = doc["experiment"].removesuffix("_smoke") if report else "benchmark"
    problems = list(check_kinds(doc)) if report else []
    problems += [f"does not hold: {claim}" for name, claim, holds in PREDICATES
                 if name == experiment and not problems and not holds(doc)]
    base = committed(path) if report else None
    subset = report and base is None and doc["experiment"] != experiment and experiment in SMOKE_ROWS_OF_FULL
    if subset:
        base = committed(f"BENCH_{experiment}.json")
    if base is not None and not problems:
        problems += differences(exact(base), exact(doc), subset)
    if not problems:
        held_to = ("" if not report else "its kinds and " if base is None
                   else "the committed full file's rows and " if subset else "the committed copy and ")
        print(f"bench OK: {path} (held to {held_to}the predicates)")
    return problems


def check(path):
    try:
        with open(path, encoding="utf-8") as f:
            problems = check_doc(path, json.load(f))
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        problems = [f"unreadable or not in the expected shape: {e!r}"]
    return [f"{path}: {p}" for p in problems]


def main(argv):
    paths = argv[1:]
    if not paths:
        os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
        # Untracked files (a smoke tier's, perhaps left by an older
        # checkout) are checked only when named.
        tracked = subprocess.run(["git", "ls-files", "BENCH_*.json"], capture_output=True, text=True, check=True)
        paths = sorted(tracked.stdout.split())
    problems = [p for path in paths for p in check(path)]
    for p in problems:
        print(f"bench gate FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

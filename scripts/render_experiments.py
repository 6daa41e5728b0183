#!/usr/bin/env python3
"""Fills every table of EXPERIMENTS.md from the committed BENCH rows.

  render_experiments.py [EXPERIMENTS.md]

A table is a block between an opening marker that names a file at the
repository root and one of its table titles,

  <!-- BENCH_skeptic.json: E8: reconfigurations caused by 30 flap cycles -->

and the closing marker `<!-- /BENCH -->`. The document is rewritten in
place with each block holding that table, aligned, rendered from the file
on disk, between blank lines (a line right after a pipe table would join
it as a row). Exits non-zero if the rewrite changed the document (it was stale:
commit the re-rendered file), if a line starting with `|` lies outside
every block, or if a marker names a file or title that does not exist.

A cell reads as its column's kind says (the kinds `check_bench.py` holds):
counts and text as they are, `ns` as µs below 1 ms and ms from 1 ms up,
reals and walls to three decimals, yes/no, and `-` for no value.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPEN = re.compile(r"<!-- (BENCH_\w+\.json): (.+) -->$")
CLOSE = "<!-- /BENCH -->"


def cell(kind, v):
    if v is None:
        return "-"
    if kind == "ns":
        return f"{v / 1e3:.2f} µs" if v < 1_000_000 else f"{v / 1e6:.2f} ms"
    if kind in ("real", "wall"):
        return f"{v:.3f}"
    if kind == "bool":
        return "yes" if v else "no"
    return str(v)


def render(table):
    """The aligned pipe table, one string per line."""
    names = [name for name, _ in table["columns"]]
    grid = [names] + [[cell(kind, row[name]) for name, kind in table["columns"]]
                      for row in table["rows"]]
    widths = [max(len(r[i]) for r in grid) for i in range(len(names))]
    lines = ["|" + "|".join(f" {c.ljust(w)} " for c, w in zip(r, widths)) + "|" for r in grid]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return lines


def table(name, title):
    path = os.path.join(ROOT, name)
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        return next((t for t in json.load(f)["tables"] if t["title"] == title), None)


def main(doc):
    with open(doc, encoding="utf-8") as f:
        lines = f.read().split("\n")
    out, errors, stale = [], [], 0
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        out.append(line)
        if line.startswith("|"):
            errors.append(f"{doc}:{i}: a table outside every rendered block")
            continue
        m = OPEN.match(line)
        if not m:
            continue
        start = i
        while i < len(lines) and lines[i] != CLOSE and not OPEN.match(lines[i]):
            i += 1
        if i == len(lines) or lines[i] != CLOSE:
            errors.append(f"{doc}:{start}: no {CLOSE} before the next marker or the end")
            continue
        t = table(*m.groups())
        if t is None:
            errors.append(f"{doc}:{start}: {m[1]} has no table titled {m[2]!r}")
            continue
        block = [""] + render(t) + [""]
        stale += lines[start:i] != block
        out += block
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    if stale:
        with open(doc, "w", encoding="utf-8") as f:
            f.write("\n".join(out))
        print(f"{doc}: re-rendered {stale} stale table(s); commit the result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "EXPERIMENTS.md")))

#!/usr/bin/env sh
# Run a named fault scenario and pretty-print its merged reconfiguration
# timeline (per-epoch phase breakdown).
#
# Usage: scripts/trace.sh [scenario] [--critical-path] [--perfetto out.json]
#   single_link_cut        one trunk cut on a 4-switch ring (default)
#   switch_crash_revive    a switch dies and later rejoins
#   simultaneous_failures  four link cuts within 1 ms on a 4x4 torus
#   src_link_cut           one trunk cut on the 30-switch SRC network (E1)
#
# --critical-path appends each burst's per-phase per-node critical path
# (see also scripts/interruption.sh for the data-plane blackout view).
# --perfetto <out.json> exports the causal span tree in Chrome Trace
# Event Format; drop the file onto https://ui.perfetto.dev to scrub
# through epochs, per-switch phases and probe blackouts visually.
set -eu
cd "$(dirname "$0")/.."

scenario="${1:-single_link_cut}"
[ $# -gt 0 ] && shift
cargo run --release --quiet --example trace_timeline "$scenario" "$@"

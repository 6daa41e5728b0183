//! The metric registry: every name this benchmark reports, with its
//! unit, direction and clock. `BENCHMARK.json` lists the same names (a
//! unit test holds the two together).
//!
//! Two clocks. A *sim* metric is what the modelled Autonet costs; it is a
//! pure function of the inputs and must repeat exactly. A *wall* metric is
//! what the simulator costs on this host; it is noisy and is reported as a
//! median. A *count* is work done (events, epochs, messages); it repeats
//! exactly too. An optimisation of the simulator leaves every sim metric
//! and count identical; an optimisation of the protocol moves them.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: exact in the seed.
    Sim,
    /// Host time or memory: noisy.
    Wall,
    /// A work count: exact in the seed.
    Count,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

impl MetricDef {
    /// Whether two runs on the same inputs must report the same value.
    pub fn exact(&self) -> bool {
        self.clock != Clock::Wall
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Sim, Wall};

/// What a user of the system sees; every workload reports every one.
/// Regression bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, Wall),
    m("wall_s", "s", Lower, Wall),
    m("op_wall_ms_p50", "ms", Lower, Wall),
    m("recovery_ms_p50", "ms", Lower, Sim),
    m("recovery_ms_max", "ms", Lower, Sim),
];

/// End-to-end metrics kept out of `BENCHMARK.json`, with their bounds.
/// The driver compares runs across seeds, and the peak of a bring-up
/// storm's memory moves by a quarter from one simulation seed to the
/// next; for one seed it is steady, so result sets carry it and
/// `--compare` bounds it.
pub const END_TO_END_LOCAL: &[(MetricDef, f64)] = &[(m("peak_rss_mb", "MB", Lower, Wall), 0.10)];

/// Single-layer metrics from the traced pass. A workload that does not
/// exercise a layer reports 0 for it (README.md says which measure what).
pub const PER_LAYER: &[MetricDef] = &[
    // sim: queue and dispatch micro-probes.
    m("sim.calendar_hold_ns_4k", "ns", Lower, Wall),
    m("sim.calendar_hold_ns_64k", "ns", Lower, Wall),
    m("sim.heap_hold_ns_4k", "ns", Lower, Wall),
    m("sim.heap_hold_ns_64k", "ns", Lower, Wall),
    m("sim.dispatch_ns", "ns", Lower, Wall),
    m("sim.shard_dispatch_ns_p1", "ns", Lower, Wall),
    m("sim.shard_dispatch_ns_p2", "ns", Lower, Wall),
    m("sim.window_us", "us", Lower, Wall),
    // sim: shard telemetry totals of the 2-partition run.
    m("sim.windows", "count", Lower, Count),
    m("sim.busy_window_frac", "ratio", Higher, Count),
    m("sim.barrier_wait_frac", "ratio", Lower, Wall),
    m("sim.load_imbalance", "ratio", Lower, Count),
    m("sim.mailbox_msgs", "count", Lower, Count),
    m("sim.shard_work_s", "s", Lower, Wall),
    // net: the workload's own run.
    m("net.events", "count", Lower, Count),
    m("net.events_per_op", "count", Lower, Count),
    m("net.ctrl_msgs_per_op", "count", Lower, Count),
    m("net.cpu_queue_drops", "count", Lower, Count),
    m("net.ns_per_event", "ns", Lower, Wall),
    m("net.events_per_s", "1/s", Higher, Wall),
    m("net.wall_per_sim_s", "ratio", Lower, Wall),
    m("net.op_wall_ms_p90", "ms", Lower, Wall),
    m("net.new_ms", "ms", Lower, Wall),
    m("net.polls", "count", Lower, Count),
    m("net.consistency_check_us", "us", Lower, Wall),
    m("net.consistency_frac", "ratio", Lower, Wall),
    m("net.shard1_wall_s", "s", Lower, Wall),
    m("net.sharding_overhead_frac", "ratio", Lower, Wall),
    m("net.parallel_speedup", "ratio", Higher, Wall),
    m("net.probe_delivery_frac", "ratio", Higher, Count),
    m("net.blackout_ms_p50", "ms", Lower, Sim),
    m("net.blackout_ms_max", "ms", Lower, Sim),
    // core: protocol work and the route pipeline.
    m("core.epochs_per_op", "count", Lower, Count),
    m("core.reconfigs_per_op", "count", Lower, Count),
    m("core.route_cache.builds", "count", Lower, Count),
    m("core.route_cache.synthesized", "count", Lower, Count),
    m("core.route_cache.reuse_ratio", "ratio", Higher, Count),
    m("core.route_cache.wall_ms", "ms", Lower, Wall),
    m("core.route_cache.wall_frac", "ratio", Lower, Wall),
    m("core.route_build_ms", "ms", Lower, Wall),
    m("core.route_serve_us", "us", Lower, Wall),
    m("core.table_scratch_ms", "ms", Lower, Wall),
    m("core.ctrlmsg_encode_ns", "ns", Lower, Wall),
    m("core.ctrlmsg_decode_ns", "ns", Lower, Wall),
    m("core.phase.detect_ms", "ms", Lower, Sim),
    m("core.phase.close_ms", "ms", Lower, Sim),
    m("core.phase.tree_stable_ms", "ms", Lower, Sim),
    m("core.phase.address_ms", "ms", Lower, Sim),
    m("core.phase.table_ms", "ms", Lower, Sim),
    m("core.phase.reopen_ms", "ms", Lower, Sim),
    // wire / switch: the datapath the probes cross.
    m("wire.packet_encode_ns_64B", "ns", Lower, Wall),
    m("wire.packet_decode_ns_64B", "ns", Lower, Wall),
    m("wire.packet_decode_ns_1500B", "ns", Lower, Wall),
    m("wire.crc_ns_per_kb", "ns", Lower, Wall),
    m("switch.table_lookup_ns", "ns", Lower, Wall),
    // trace: recording and the offline pipeline.
    m("trace.records", "count", Lower, Count),
    m("trace.ns_per_record", "ns", Lower, Wall),
    m("trace.timeline_build_ms", "ms", Lower, Wall),
    m("trace.interruption_build_ms", "ms", Lower, Wall),
    m("trace.span_tree_ms", "ms", Lower, Wall),
    m("trace.jsonl_ms", "ms", Lower, Wall),
    m("trace.overhead_frac", "ratio", Lower, Wall),
    // check: the search engine.
    m("check.evals", "count", Lower, Count),
    m("check.violations", "count", Lower, Count),
    m("check.champion_blackout_ms", "ms", Lower, Sim),
    m("check.eval_ms_mean", "ms", Lower, Wall),
    m("check.boot_ms", "ms", Lower, Wall),
    m("check.boot_share", "ratio", Lower, Wall),
    // topo and the benchmark itself.
    m("topo.gen_ms", "ms", Lower, Wall),
    m("bench.spans", "count", Lower, Count),
    m("bench.span_overhead_frac", "ratio", Lower, Wall),
    // Self time of the benchmark's spans, by the layer function called.
    m("span.topo.gen.self_ms", "ms", Lower, Wall),
    m("span.net.new.self_ms", "ms", Lower, Wall),
    m("span.net.bringup.self_ms", "ms", Lower, Wall),
    m("span.net.schedule_fault.self_ms", "ms", Lower, Wall),
    m("span.net.run_for.self_ms", "ms", Lower, Wall),
    m("span.net.run_until_stable.self_ms", "ms", Lower, Wall),
    m("span.net.consistency_check.self_ms", "ms", Lower, Wall),
    m("span.trace.timeline_build.self_ms", "ms", Lower, Wall),
    m("span.trace.interruption_build.self_ms", "ms", Lower, Wall),
    m("span.check.search.self_ms", "ms", Lower, Wall),
];

/// Looks a metric up in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(END_TO_END_LOCAL.iter().map(|(d, _)| d))
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// The values one run measured, keyed by registered name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed beside a value: a ratio's base, a
    /// median's sample count.
    notes: BTreeMap<&'static str, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Sets a value with the base it was taken over (or its sample count).
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&self, name: &str) -> Option<&str> {
        self.notes.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repo root declares exactly the registry:
    /// same names in the same order, same units and directions, and a
    /// bound of at most 0.25 on every end-to-end metric.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                let better = if d.better == Lower { "lower" } else { "higher" };
                assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
                let bound = entry.get("bound").and_then(Value::as_f64);
                if key == "end_to_end" {
                    assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
                } else {
                    assert_eq!(bound, None, "per-layer metrics have no bound");
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}

//! E1 — Reconfiguration time across implementation generations (§6.6.5).
//!
//! Paper: on the 30-switch SRC network (≈4×8 torus, max switch-to-switch
//! distance 6), the first Autopilot took ~5 s per reconfiguration, the
//! optimized version ~0.5 s, and further tuning reached ~0.17 s. We rebuild
//! the same network and replay the same progression with the matching
//! control-processor cost and timer presets — continued one generation
//! past the paper by the `incremental` preset (shared route cache freeing
//! CPU headroom for tighter timers), and extended beyond src-30 with
//! fat_tree-256 rows at the scale-tier cost model.
//!
//! Only tracing-on rows have per-switch instants, read off the typed
//! spine: they record reconfig and detection (from the first close) and
//! the reconfiguration's critical path
//! (`Timeline::critical_path`): which phase dominated and how long the
//! table-distribute phase took — the acceptance instrument for the
//! incremental pipeline (table-distribute must shrink vs `tuned`). Every
//! time is the median over the row's faults.

use autonet_bench::{converge, measure_reconfiguration, quantile, Report, Table};
use autonet_net::NetParams;
use autonet_sim::SimDuration;
use autonet_topo::{gen, LinkId, Topology};
use autonet_trace::Timeline;

struct PresetRow<'a> {
    name: &'a str,
    params: NetParams,
    paper: &'a str,
    topo_label: &'a str,
    mk_topo: &'a dyn Fn() -> Topology,
    faults: &'a [usize],
}

/// Fills the row's times into table `times` and the route-cache work
/// counters of its last network into table `cache`.
fn measure_preset(spec: &PresetRow<'_>, times: &mut Table, cache: &mut Table) {
    let mut reconfig = Vec::new();
    let mut detection = Vec::new();
    let mut total = Vec::new();
    let mut table_dist: Vec<SimDuration> = Vec::new();
    let mut dominants: Vec<&'static str> = Vec::new();
    let mut cache_stats = None;
    // Independent faults on different links of fresh networks.
    for (i, &link) in spec.faults.iter().enumerate() {
        let topo = (spec.mk_topo)();
        let mut net = converge(topo, spec.params, 100 + i as u64);
        if spec.params.tracing {
            // Drop bring-up records so the timeline sees only the fault's
            // reconfiguration.
            let _ = net.drain_trace_records();
        }
        if let Some(m) = measure_reconfiguration(&mut net, LinkId(link)) {
            reconfig.extend(m.reconfiguration);
            detection.extend(m.detection);
            total.push(m.total);
        }
        if spec.params.tracing {
            let records = net.drain_trace_records();
            // Burst-aware: a single cut can straddle coalesced epochs
            // (detect/close in one, settle in the next).
            if let Some(cp) = Timeline::build(&records).last_fault_critical_path() {
                dominants.push(cp.dominant().phase);
                if let Some(seg) = cp.segments.iter().find(|s| s.phase == "table-distribute") {
                    table_dist.push(seg.duration());
                }
            }
        }
        cache_stats = net.route_cache_stats();
    }
    // The phase that dominated most faults (ties to the last seen).
    let dominant = dominants
        .iter()
        .copied()
        .max_by_key(|p| dominants.iter().filter(|q| *q == p).count());
    times.row([
        spec.name.into(),
        spec.topo_label.into(),
        spec.paper.into(),
        total.len().into(),
        quantile(&reconfig, 0.5).into(),
        quantile(&detection, 0.5).into(),
        quantile(&total, 0.5).into(),
        dominant.into(),
        quantile(&table_dist, 0.5).into(),
    ]);
    let s = cache_stats.expect("every network shares a route cache");
    cache.row([
        spec.name.into(),
        spec.topo_label.into(),
        s.builds.into(),
        s.served_memo.into(),
        s.delta_reused.into(),
        s.synthesized.into(),
    ]);
}

fn main() {
    println!("E1: reconfiguration time on the 30-switch SRC network");
    println!("(single link failure; time from fault to every switch reopened)");
    let src30: &dyn Fn() -> Topology = &|| gen::src_network(1991);
    let fat256: &dyn Fn() -> Topology = &|| gen::fat_tree(&[8, 2, 4], 99);
    let src_faults = [0usize, 11, 23];
    let mut times = Table::new(
        "E1: reconfiguration time (median over the faults), paper vs measured",
        &[
            "implementation",
            "topology",
            "paper reconfig",
            "faults",
            "reconfig",
            "detection",
            "fault-to-open",
            "dominant phase",
            "table-distribute",
        ],
    );
    let mut cache = Table::new(
        "E23: route-cache work of each row's last network (bring-up + one fault)",
        &[
            "implementation",
            "topology",
            "builds",
            "served memo",
            "delta reused",
            "synthesized",
        ],
    );
    for (name, params, paper) in [
        ("naive", NetParams::naive(), "~5000 ms"),
        ("optimized", NetParams::optimized(), "~500 ms"),
        ("tuned", NetParams::tuned(), "~170 ms"),
        // The perf configuration: typed event tracing off, so nothing
        // reaches the spine and only fault-to-open is measured. It must
        // match the tuned row exactly — tracing is observability, not
        // behavior (scripts/check_bench.py holds it to that).
        (
            "tuned, tracing off",
            NetParams {
                tracing: false,
                ..NetParams::tuned()
            },
            "~170 ms",
        ),
        // One generation past the paper: the shared route cache removes
        // table recomputation from the per-epoch CPU budget, so the freed
        // headroom buys tighter timers and faster packet handling.
        ("incremental", NetParams::incremental(), "(projection)"),
    ] {
        measure_preset(
            &PresetRow {
                name,
                params,
                paper,
                topo_label: "src-30",
                mk_topo: src30,
                faults: &src_faults,
            },
            &mut times,
            &mut cache,
        );
    }
    // Beyond src-30: the same fault drill on a 256-switch fat-tree at the
    // scale-tier CPU model (see NetParams::scale: the 68000 model boots
    // this size but spends ~13 ms per hop on the topology flood), traced
    // for the critical path.
    measure_preset(
        &PresetRow {
            name: "scale, traced",
            params: NetParams {
                tracing: true,
                ..NetParams::scale()
            },
            paper: "-",
            topo_label: "fat_tree-256",
            mk_topo: fat256,
            faults: &src_faults,
        },
        &mut times,
        &mut cache,
    );
    Report::new("reconfig").table(times).table(cache).finish();
    println!(
        "\nShape check: each generation should improve by roughly an order\n\
         of magnitude, with the tuned version well under one second and\n\
         `incremental` beating `tuned`."
    );
}

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
//! Tracing-on rows also record the reconfiguration's critical path
//! (`Timeline::critical_path`): which phase dominated and how long the
//! table-distribute phase took — the acceptance instrument for the
//! incremental pipeline (table-distribute must shrink vs `tuned`).

use autonet_bench::{
    converge, mean, measure_reconfiguration, median, ms, ms_f64, print_table, write_bench_json,
};
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

fn measure_preset(spec: &PresetRow<'_>, rows: &mut Vec<Vec<String>>, json: &mut Vec<String>) {
    let mut reconfig = Vec::new();
    let mut detection = Vec::new();
    let mut total = Vec::new();
    let mut table_dist: Vec<SimDuration> = Vec::new();
    let mut dominants: Vec<&'static str> = Vec::new();
    let mut cache_stats = None;
    let wall_start = std::time::Instant::now();
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
            reconfig.push(m.reconfiguration);
            detection.push(m.detection);
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
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    // The phase that dominated most faults (ties to the last seen).
    let dominant = dominants
        .iter()
        .copied()
        .max_by_key(|p| dominants.iter().filter(|q| *q == p).count());
    rows.push(vec![
        format!("{} ({})", spec.name, spec.topo_label),
        spec.paper.to_string(),
        ms(mean(&reconfig)),
        ms(mean(&detection)),
        ms(mean(&total)),
        dominant.unwrap_or("-").to_string(),
    ]);
    let dominant_json = match dominant {
        Some(p) => format!("{p:?}"),
        None => "null".to_string(),
    };
    let table_dist_json = if table_dist.is_empty() {
        "null".to_string()
    } else {
        format!("{:.3}", ms_f64(median(&table_dist)))
    };
    let cache_json = match cache_stats {
        Some(s) => format!(
            "{{\"builds\": {}, \"served_memo\": {}, \"delta_reused\": {}, \"synthesized\": {}}}",
            s.builds, s.served_memo, s.delta_reused, s.synthesized
        ),
        None => "null".to_string(),
    };
    json.push(format!(
        "    {{\"preset\": {:?}, \"topology\": {:?}, \"faults\": {}, \
         \"median_reconfig_ms\": {:.3}, \"median_detection_ms\": {:.3}, \"median_total_ms\": {:.3}, \
         \"dominant_phase\": {}, \"median_table_distribute_ms\": {}, \"wall_ms\": {:.1}, \
         \"route_cache\": {}}}",
        spec.name,
        spec.topo_label,
        reconfig.len(),
        ms_f64(median(&reconfig)),
        ms_f64(median(&detection)),
        ms_f64(median(&total)),
        dominant_json,
        table_dist_json,
        wall_ms,
        cache_json,
    ));
}

fn main() {
    println!("E1: reconfiguration time on the 30-switch SRC network");
    println!("(single link failure; time from fault to every switch reopened)");
    let src30: &dyn Fn() -> Topology = &|| gen::src_network(1991);
    let fat256: &dyn Fn() -> Topology = &|| gen::fat_tree(&[8, 2, 4], 99);
    let src_faults = [0usize, 11, 23];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, params, paper) in [
        ("naive", NetParams::naive(), "~5000 ms"),
        ("optimized", NetParams::optimized(), "~500 ms"),
        ("tuned", NetParams::tuned(), "~170 ms"),
        // The perf configuration: typed event tracing off (zero-capacity
        // rings, nothing reaches the spine). Virtual times must match the
        // tuned row exactly — tracing is observability, not behavior.
        (
            "tuned, tracing off",
            NetParams {
                tracing: false,
                ..NetParams::tuned()
            },
            "~170 ms",
        ),
        // The route cache off: virtual times must again match `tuned`
        // exactly — the cache only removes redundant work, byte-identical
        // tables either way.
        (
            "tuned, no route cache",
            NetParams {
                route_cache: false,
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
            &mut rows,
            &mut json,
        );
    }
    // Beyond src-30: the same fault drill on a 256-switch fat-tree at the
    // scale-tier CPU model (see NetParams::scale: the 68000 model boots
    // this size but spends ~13 ms per hop on the topology flood). One row
    // traced for the critical path, one at the
    // full-speed tracing-off configuration.
    for (name, params) in [
        (
            "scale, traced",
            NetParams {
                tracing: true,
                ..NetParams::scale()
            },
        ),
        ("scale", NetParams::scale()),
    ] {
        measure_preset(
            &PresetRow {
                name,
                params,
                paper: "-",
                topo_label: "fat_tree-256",
                mk_topo: fat256,
                faults: &src_faults,
            },
            &mut rows,
            &mut json,
        );
    }
    print_table(
        "E1: reconfiguration time, paper vs measured",
        &[
            "implementation",
            "paper reconfig",
            "measured reconfig",
            "detection",
            "fault-to-open",
            "dominant phase",
        ],
        &rows,
    );
    println!(
        "\nShape check: each generation should improve by roughly an order\n\
         of magnitude, with the tuned version well under one second and\n\
         `incremental` beating `tuned`."
    );
    let body = format!(
        "{{\n  \"experiment\": \"reconfig_time\",\n  \"unit\": \"ms\",\n  \"presets\": [\n{}\n  ]\n}}\n",
        json.join(",\n")
    );
    let path = write_bench_json("reconfig", &body);
    println!("wrote {}", path.display());
}

//! E22 — sim-kernel scale: 256–1024-switch data centers (ROADMAP).
//!
//! The paper ran 31 switches; modern reproductions want thousands. This
//! bench locks in the kernel's scaling trajectory: for fat-tree and
//! expander topologies at 256, 576 and 1024 switches it brings the
//! network up from cold, cuts a core trunk, and reports wall-clock cost,
//! kernel throughput (events/sec) and the wall-clock price of one
//! simulated second. The acceptance bar: the 1024-switch fat-tree
//! trunk-cut reconfiguration completes in under 10 s of wall clock.
//!
//! Each row is measured as a controlled matrix plus one observed run:
//!
//! 1. a **perf pass** — the untraced scale preset on the classic
//!    kernel, exactly the configuration the committed trajectory (and
//!    the acceptance bar) was recorded under — and the same scenario,
//!    still untraced, through [`PartitionedNetwork`] at 1 and at 2
//!    partitions, so the price of the sharded executor (×1 − classic)
//!    and what the second core buys (×1 / ×2) are each one subtraction
//!    with tracing held fixed;
//! 2. a **profile pass** — the same scenario through
//!    [`PartitionedNetwork`] with tracing and shard telemetry on, which
//!    answers *where the wall time goes*: barrier-wait fraction,
//!    load-imbalance index, the route-cache wall split, per-shard
//!    execution profiles, and (for the flagship row) the causal span
//!    tree exported as a Perfetto-loadable Chrome trace under
//!    `artifacts/`. The profile pass's own wall cost is reported as
//!    `profile_wall_s` so the price of observation stays visible.
//!
//! `SCALE_SMOKE=1` runs only the 256-switch rows (the CI smoke tier).

use autonet_bench::{print_table, write_artifact, write_bench_json};
use autonet_core::{MsgDisposition, RouteCacheStats};
use autonet_net::{Driver, Net, NetParams, Network, PartitionedNetwork};
use autonet_sim::{ShardTelemetry, SimDuration, SimTime};
use autonet_topo::{gen, LinkId, SwitchId, Topology};
use autonet_trace::SpanTree;
use std::time::Instant;

struct Row {
    name: String,
    switches: usize,
    links: usize,
    partitions: usize,
    // The perf pass on the classic kernel.
    classic: Walls,
    events_per_sec: f64,
    wall_per_sim_sec: f64,
    // The same scenario, untraced, on the sharded executor.
    sharded1: Walls,
    sharded2: Walls,
    // Attribution columns from the profile pass.
    profile_wall: f64,
    profile_events: u64,
    barrier_wait_frac: f64,
    load_imbalance: f64,
    barrier_wait_p50: SimDuration,
    barrier_wait_p99: SimDuration,
    barrier_wait_p999: SimDuration,
    route_cache: Option<RouteCacheStats>,
    shards: Vec<ShardTelemetry>,
    trace_path: Option<std::path::PathBuf>,
}

/// Sim and wall clock of one run: bring-up, then cut to healed.
struct Walls {
    bring_sim: SimDuration,
    bring_wall: f64,
    bring: Work,
    cut_sim: SimDuration,
    cut_wall: f64,
    events: u64,
}

/// The exact work of a bring-up: a pure function of topology, preset and
/// seed, so a change in any of these is a change in the protocol.
struct Work {
    events: u64,
    by_kind: Vec<(&'static str, u64)>,
    ctrl_msgs: u64,
    epochs: u64,
    msgs: MsgDisposition,
}

impl Work {
    fn of<D: Driver>(net: &Net<D>) -> Work {
        Work {
            events: net.events_processed(),
            by_kind: net.events_by_kind(),
            ctrl_msgs: net.stats().control_sent,
            epochs: net.autopilot(SwitchId(0)).epoch().0,
            msgs: net.reconfig_msgs(),
        }
    }

    /// Share of the handled reconfiguration messages that were stale.
    fn stale_frac(&self) -> f64 {
        self.msgs.stale as f64 / self.msgs.total().max(1) as f64
    }
}

/// The scenario every pass runs, on either kernel: cold bring-up, cut
/// trunk 0, run until healed.
fn cycle<D: Driver>(net: &mut Net<D>) -> Option<Walls> {
    let wall = Instant::now();
    net.run_until_stable_every(SimDuration::from_millis(100), SimTime::from_secs(300))?;
    let bring_wall = wall.elapsed().as_secs_f64();
    let bring_sim = SimDuration::from_nanos(net.now().as_nanos());
    let bring = Work::of(net);
    net.schedule_link_down(net.now() + SimDuration::from_millis(10), LinkId(0));
    let cut_from = net.now();
    let wall = Instant::now();
    net.run_until_stable_every(
        SimDuration::from_millis(50),
        net.now() + SimDuration::from_secs(60),
    )?;
    Some(Walls {
        bring_sim,
        bring_wall,
        bring,
        cut_sim: net.now().saturating_since(cut_from),
        cut_wall: wall.elapsed().as_secs_f64(),
        events: net.events_processed(),
    })
}

/// How many event-loop shards the profile pass runs with: the machine's
/// parallelism, clamped to [2, 8] so telemetry always exercises the
/// threaded path and huge hosts don't shard a 256-switch world to dust.
fn partitions() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Perf pass then profile pass over one topology. When `trace_to` is
/// set, the profile pass exports its causal span tree in Chrome Trace
/// Event Format under `artifacts/` for Perfetto.
fn measure(name: &str, topo: Topology, trace_to: Option<&str>) -> Option<Row> {
    let switches = topo.num_switches();
    let links = topo.num_links();
    let nparts = partitions();

    // Perf pass: the committed-trajectory configuration, untouched, then
    // the same scenario, still untraced, on the sharded kernel.
    let scale = NetParams::scale();
    let classic = cycle(&mut Network::new(topo.clone(), scale, 2))?;
    let (work, m) = (&classic.bring, classic.bring.msgs);
    let kinds: Vec<String> = work
        .by_kind
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|(kind, n)| format!("{kind} {n}"))
        .collect();
    println!(
        "  {name}: bring-up {} events ({}), {} control messages, {} epochs; \
         reconfiguration messages joined {} / current {} / stale {} ({:.1}% stale)",
        work.events,
        kinds.join(", "),
        work.ctrl_msgs,
        work.epochs,
        m.joined,
        m.current,
        m.stale,
        work.stale_frac() * 100.0,
    );
    let total_wall = classic.bring_wall + classic.cut_wall;
    let total_sim = (classic.bring_sim + classic.cut_sim).as_nanos() as f64 / 1e9;
    let sharded1 = cycle(&mut PartitionedNetwork::new(topo.clone(), scale, 2, 1))?;
    let sharded2 = cycle(&mut PartitionedNetwork::new(topo.clone(), scale, 2, 2))?;

    // Profile pass: same scenario, partitioned kernel, tracing and shard
    // telemetry on. The scale preset disables tracing; the profile pass
    // pays for it on purpose — attribution is the whole point.
    let params = NetParams {
        tracing: true,
        ..NetParams::scale()
    };
    let mut prof = PartitionedNetwork::new(topo, params, 2, nparts);
    let profiled = cycle(&mut prof)?;
    let profile_wall = profiled.bring_wall + profiled.cut_wall;

    let shards = prof.shard_telemetry().unwrap_or_default();
    let metrics = prof.kernel_metrics();
    let q = |q: f64| {
        metrics
            .as_ref()
            .and_then(|m| m.histogram("kernel.shard_barrier_wait"))
            .map(|h| h.quantile_upper_bound(q))
            .unwrap_or(SimDuration::ZERO)
    };

    let trace_path = trace_to.map(|rel| {
        let records = prof.merged_trace_records();
        let timeline = autonet_trace::Timeline::build(&records);
        let tree = SpanTree::build(&timeline, None);
        let path = write_artifact(rel, &tree.to_chrome_trace());
        println!(
            "  {name}: span trace ({} epochs) -> {}",
            tree.epochs.len(),
            path.display()
        );
        path
    });

    Some(Row {
        name: name.to_string(),
        switches,
        links,
        partitions: nparts,
        events_per_sec: classic.events as f64 / total_wall,
        classic,
        wall_per_sim_sec: total_wall / total_sim,
        sharded1,
        sharded2,
        profile_wall,
        profile_events: profiled.events,
        barrier_wait_frac: prof.barrier_wait_fraction().unwrap_or(0.0),
        load_imbalance: prof.load_imbalance().unwrap_or(1.0),
        barrier_wait_p50: q(0.50),
        barrier_wait_p99: q(0.99),
        barrier_wait_p999: q(0.999),
        route_cache: prof.route_cache_stats(),
        shards,
        trace_path,
    })
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn shard_json(t: &ShardTelemetry) -> String {
    format!(
        "{{ \"events\": {}, \"windows\": {}, \"busy_windows\": {}, \
         \"work_ms\": {:.3}, \"barrier_wait_ms\": {:.3}, \
         \"mailbox_in\": {}, \"mailbox_out\": {}, \"utilization\": {:.4} }}",
        t.events,
        t.windows,
        t.busy_windows,
        ns_ms(t.work_ns),
        ns_ms(t.barrier_wait_ns),
        t.mailbox_in,
        t.mailbox_out,
        t.utilization(),
    )
}

fn route_cache_json(rc: &RouteCacheStats) -> String {
    format!(
        "{{ \"builds\": {}, \"served_memo\": {}, \"delta_reused\": {}, \
         \"synthesized\": {}, \"unroutable\": {}, \
         \"build_wall_ms\": {:.3}, \"serve_wall_ms\": {:.3}, \
         \"delta_wall_ms\": {:.3} }}",
        rc.builds,
        rc.served_memo,
        rc.delta_reused,
        rc.synthesized,
        rc.unroutable,
        ns_ms(rc.build_wall_ns),
        ns_ms(rc.serve_wall_ns),
        ns_ms(rc.delta_wall_ns),
    )
}

fn main() {
    let smoke = std::env::var("SCALE_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    println!(
        "E22: sim-kernel scale (scale preset; profile pass: {} partitions + tracing{})",
        partitions(),
        if smoke { ", smoke tier" } else { "" }
    );

    // The three fat-tree rows (pods x aggregation x core) and matched
    // expander graphs at the same switch counts. The flagship fat-tree
    // of each tier exports its causal span trace for Perfetto.
    let flagship = if smoke {
        "fat_tree 256"
    } else {
        "fat_tree 1024"
    };
    let mut cases: Vec<(String, Topology)> = vec![
        ("fat_tree 256".into(), gen::fat_tree(&[8, 2, 4], 99)),
        ("expander 256".into(), gen::expander(256, 4, 99)),
    ];
    if !smoke {
        cases.push(("fat_tree 576".into(), gen::fat_tree(&[8, 3, 6], 99)));
        cases.push(("expander 576".into(), gen::expander(576, 4, 99)));
        cases.push(("fat_tree 1024".into(), gen::fat_tree(&[8, 4, 8], 99)));
        cases.push(("expander 1024".into(), gen::expander(1024, 4, 99)));
    }

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (name, topo) in cases {
        let n = topo.num_switches();
        let trace_to =
            (name == flagship).then(|| format!("e22_{}.trace.json", name.replace(' ', "_")));
        match measure(&name, topo, trace_to.as_deref()) {
            Some(row) => {
                table.push(vec![
                    row.name.clone(),
                    row.switches.to_string(),
                    row.links.to_string(),
                    format!("{:.1}", row.classic.bring_wall),
                    format!("{:.2}", row.classic.cut_wall),
                    format!(
                        "{:.1} / {:.2}",
                        row.sharded1.bring_wall, row.sharded1.cut_wall
                    ),
                    format!(
                        "{:.1} / {:.2}",
                        row.sharded2.bring_wall, row.sharded2.cut_wall
                    ),
                    format!("{:.0}k", row.events_per_sec / 1e3),
                    format!("{:.1}%", row.barrier_wait_frac * 100.0),
                    format!("{:.2}", row.load_imbalance),
                ]);
                rows.push(row);
            }
            None => println!("  {name} ({n} switches): DID NOT CONVERGE"),
        }
    }
    print_table(
        "E22: bring-up + trunk-cut cost by topology",
        &[
            "topology",
            "switches",
            "links",
            "bring-up wall (s)",
            "cut wall (s)",
            "sharded x1 (s)",
            "sharded x2 (s)",
            "events/s",
            "barrier wait",
            "imbalance",
        ],
        &table,
    );

    let json: Vec<String> = rows
        .iter()
        .map(|r| {
            let shards: Vec<String> = r.shards.iter().map(shard_json).collect();
            format!(
                "    {{ \"topology\": \"{}\", \"switches\": {}, \"links\": {}, \
                 \"partitions\": {}, \
                 \"bringup_sim_ms\": {:.3}, \"bringup_wall_s\": {:.3}, \
                 \"bringup_events\": {}, \"bringup_ctrl_msgs\": {}, \
                 \"bringup_epochs\": {}, \"stale_msg_frac\": {:.4}, \
                 \"cut_sim_ms\": {:.3}, \"cut_wall_s\": {:.3}, \
                 \"events\": {}, \"events_per_sec\": {:.0}, \
                 \"wall_per_sim_sec\": {:.3}, \
                 \"sharded1_bringup_wall_s\": {:.3}, \"sharded1_cut_wall_s\": {:.3}, \
                 \"sharded1_events\": {}, \
                 \"sharded2_bringup_wall_s\": {:.3}, \"sharded2_cut_wall_s\": {:.3}, \
                 \"sharded2_events\": {}, \
                 \"profile_wall_s\": {:.3}, \"profile_events\": {}, \
                 \"barrier_wait_frac\": {:.4}, \"load_imbalance\": {:.4}, \
                 \"barrier_wait_p50_us\": {:.3}, \"barrier_wait_p99_us\": {:.3}, \
                 \"barrier_wait_p999_us\": {:.3}, \
                 \"route_cache\": {}, \
                 \"shards\": [{}] }}",
                r.name,
                r.switches,
                r.links,
                r.partitions,
                r.classic.bring_sim.as_millis_f64(),
                r.classic.bring_wall,
                r.classic.bring.events,
                r.classic.bring.ctrl_msgs,
                r.classic.bring.epochs,
                r.classic.bring.stale_frac(),
                r.classic.cut_sim.as_millis_f64(),
                r.classic.cut_wall,
                r.classic.events,
                r.events_per_sec,
                r.wall_per_sim_sec,
                r.sharded1.bring_wall,
                r.sharded1.cut_wall,
                r.sharded1.events,
                r.sharded2.bring_wall,
                r.sharded2.cut_wall,
                r.sharded2.events,
                r.profile_wall,
                r.profile_events,
                r.barrier_wait_frac,
                r.load_imbalance,
                r.barrier_wait_p50.as_micros_f64(),
                r.barrier_wait_p99.as_micros_f64(),
                r.barrier_wait_p999.as_micros_f64(),
                r.route_cache
                    .as_ref()
                    .map(route_cache_json)
                    .unwrap_or_else(|| "null".to_string()),
                shards.join(", "),
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"experiment\": \"scale\",\n  \"preset\": \"scale\",\n  \
         \"smoke\": {},\n  \"topologies\": [\n{}\n  ]\n}}\n",
        smoke,
        json.join(",\n")
    );
    // The smoke tier writes its own artifact so a CI smoke run never
    // clobbers the committed full trajectory point.
    let path = write_bench_json(if smoke { "scale_smoke" } else { "scale" }, &body);
    println!("wrote {}", path.display());

    // The acceptance bar from the roadmap: a 1024-switch fat-tree heals a
    // core trunk cut in under 10 s of wall clock (perf pass — observation
    // cost is accounted separately in profile_wall_s).
    if let Some(big) = rows.iter().find(|r| r.name == "fat_tree 1024") {
        let cut_wall = big.classic.cut_wall;
        assert!(
            cut_wall < 10.0,
            "1024-switch trunk-cut reconfiguration took {cut_wall:.1} s wall (bar: 10 s)"
        );
        println!("acceptance: 1024-switch cut healed in {cut_wall:.1} s wall (< 10 s)");
    }
    // The flagship row must have produced a Perfetto-loadable trace.
    if let Some(f) = rows.iter().find(|r| r.name == flagship) {
        assert!(
            f.trace_path.as_ref().is_some_and(|p| p.exists()),
            "flagship row {flagship} did not emit its span trace"
        );
    }
}

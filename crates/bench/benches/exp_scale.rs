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
//!    with tracing held fixed; the shared route cache's work counters and
//!    wall split are the classic run's (with threads, which of two
//!    simultaneous asks builds and which is served the memo is a race);
//! 2. a **profile pass** — the same scenario through
//!    [`PartitionedNetwork`] with tracing and shard telemetry on, which
//!    answers *where the wall time goes*: barrier-wait fraction,
//!    load-imbalance index, per-shard execution profiles, and (for the
//!    flagship row) the causal span tree exported as a Perfetto-loadable
//!    Chrome trace under `artifacts/`. The profile pass's own wall is in
//!    its row, so the price of observation stays visible.
//!
//! `SCALE_SMOKE=1` runs only the 256-switch rows (the CI smoke tier).

use autonet_bench::{write_artifact, Report, Table, Value};
use autonet_core::{MsgDisposition, ReconfigCause};
use autonet_net::{Driver, HandlerProfile, Net, NetParams, NetStats, Network, PartitionedNetwork};
use autonet_sim::{bucket_quantile, SimDuration, SimTime};
use autonet_topo::{gen, LinkId, SwitchId, Topology};
use autonet_trace::SpanTree;
use std::time::Instant;

/// Sim and wall clock of one run — bring-up, then cut to healed — and the
/// exact work of the bring-up: a pure function of topology, preset and
/// seed, so a change in it is a change in the protocol.
struct Cycle {
    /// Power-on to the last switch's open: what the protocol took, not the
    /// settle poll that noticed it.
    bring_sim: SimDuration,
    bring_wall: f64,
    bring_events: u64,
    bring_ctrl_msgs: u64,
    bring_epochs: u64,
    bring_msgs: MsgDisposition,
    /// Epochs the switches entered during bring-up, by cause.
    bring_causes: Vec<(ReconfigCause, u64)>,
    /// The trunk failing to the last switch's reopen.
    cut_sim: SimDuration,
    cut_wall: f64,
    /// Sim time the run covered, settle polls included.
    ran: SimDuration,
    /// Events the cut cost, by `Event` variant: what the kernel handles
    /// between the stable network and the healed one.
    cut_kinds: Vec<(&'static str, u64)>,
    /// The cut's counters: `ticks_run` and `ticks_superseded` (together
    /// every `SwitchTick`), and `samples_run`.
    cut_stats: NetStats,
    events: u64,
    /// The whole run's counters, for its `TopologyDown` floods.
    stats: NetStats,
}

/// The scenario every pass runs, on either kernel: cold bring-up, cut
/// trunk 0, run until healed.
fn cycle<D: Driver>(net: &mut Net<D>) -> Option<Cycle> {
    let wall = Instant::now();
    let up = net.run_until_stable_every(SimDuration::from_millis(100), SimTime::from_secs(300))?;
    let bring_wall = wall.elapsed().as_secs_f64();
    let bring_events = net.events_processed();
    let bring_ctrl_msgs = net.stats().control_sent;
    let bring_epochs = net.autopilot(SwitchId(0)).epoch().0;
    let bring_msgs = net.reconfig_msgs();
    let bring_causes = net.epochs_by_cause();
    let cut_at = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(cut_at, LinkId(0));
    let kinds_before = net.events_by_kind();
    let stats_before = net.stats();
    let wall = Instant::now();
    let healed = net.run_until_stable_every(
        SimDuration::from_millis(50),
        net.now() + SimDuration::from_secs(60),
    )?;
    let cut_kinds = net.events_by_kind().into_iter().zip(kinds_before);
    Some(Cycle {
        bring_sim: up.saturating_since(SimTime::ZERO),
        bring_wall,
        bring_events,
        bring_ctrl_msgs,
        bring_epochs,
        bring_msgs,
        bring_causes,
        cut_sim: healed.saturating_since(cut_at),
        cut_wall: wall.elapsed().as_secs_f64(),
        ran: net.now().saturating_since(SimTime::ZERO),
        cut_kinds: cut_kinds.map(|((k, n), (_, n0))| (k, n - n0)).collect(),
        cut_stats: NetStats {
            ticks_run: net.stats().ticks_run - stats_before.ticks_run,
            ticks_superseded: net.stats().ticks_superseded - stats_before.ticks_superseded,
            samples_run: net.stats().samples_run - stats_before.samples_run,
            ..NetStats::default()
        },
        events: net.events_processed(),
        stats: net.stats(),
    })
}

/// How many event-loop shards the profile pass runs with. A constant, not
/// the host's core count: `profile events` (one extra event per fault per
/// extra shard) and the per-shard table's row count are exact-gated.
const PARTITIONS: usize = 2;

/// The report's eight tables, one row per topology in each but `shards`
/// (one per shard of the profile pass).
struct Tables {
    cost: Table,
    work: Table,
    profile: Table,
    handlers: Table,
    route_cache: Table,
    shards: Table,
    kinds: Table,
    causes: Table,
}

/// The `Event` variants the cut table names; the rest are its `other`.
const KINDS: [&str; 4] = ["SwitchTick", "SwitchSample", "SwitchRx", "SwitchCpuDone"];

fn tables() -> Tables {
    Tables {
        cost: Table::new(
            "E22: bring-up + trunk-cut cost by topology (scale preset, untraced; wall in seconds)",
            &[
                "topology",
                "switches",
                "links",
                "bring-up sim",
                "cut sim",
                "classic bring-up",
                "classic cut",
                "sharded x1 bring-up",
                "sharded x1 cut",
                "sharded x2 bring-up",
                "sharded x2 cut",
                "classic k events/s",
                "classic wall per sim-second",
            ],
        ),
        work: Table::new(
            "E22: exact work of the run (classic bring-up, then whole cycles)",
            &[
                "topology",
                "bring-up events",
                "bring-up control messages",
                "bring-up epochs",
                "reconfiguration messages joined",
                "current",
                "stale",
                "stale share",
                "classic events",
                "sharded x1 events",
                "sharded x2 events",
                "topology floods sent",
                "encoded",
                "decoded",
            ],
        ),
        profile: Table::new(
            "E25: profile pass (sharded, tracing and telemetry on)",
            &[
                "topology",
                "partitions",
                "profile events",
                "load imbalance",
                "profile wall (s)",
                "barrier wait fraction",
                "barrier wait p50 (µs)",
                "barrier wait p99 (µs)",
                "barrier wait p99.9 (µs)",
            ],
        ),
        handlers: Table::new(
            "E25: profile-pass events by kind, with each kind's handler wall \
             (count × timed mean, one event in 1009 timed; ms)",
            &[
                "topology",
                KINDS[0],
                "tick ms",
                KINDS[1],
                "sample ms",
                KINDS[2],
                "rx ms",
                KINDS[3],
                "cpu ms",
                "other",
                "other ms",
                "timed",
            ],
        ),
        route_cache: Table::new(
            "E22: the shared route cache over the classic cycle",
            &[
                "topology",
                "builds",
                "served memo",
                "delta reused",
                "synthesized",
                "unroutable",
                "build wall (ms)",
                "serve wall (ms)",
                "delta wall (ms)",
            ],
        ),
        shards: Table::new(
            "E25: per-shard profile",
            &[
                "topology",
                "shard",
                "events",
                "windows",
                "busy windows",
                "utilization",
                "mailbox in",
                "mailbox out",
                "work (ms)",
                "barrier wait (ms)",
            ],
        ),
        kinds: Table::new(
            "E22: kernel events of the classic trunk cut, by kind",
            &[
                "topology",
                KINDS[0],
                "ticks run",
                "ticks superseded",
                KINDS[1],
                "samples run",
                KINDS[2],
                KINDS[3],
                "other",
                "timer share",
            ],
        ),
        causes: Table::new(
            "E22: epochs entered during the classic bring-up, by cause (summed over switches; \
             epoch-message is a join, the rest are starts)",
            &std::iter::once("topology")
                .chain(ReconfigCause::ALL.map(ReconfigCause::tag))
                .collect::<Vec<_>>(),
        ),
    }
}

/// Perf pass then profile pass over one topology, one row into each table.
/// When `trace_to` is set, the profile pass exports its causal span tree in
/// Chrome Trace Event Format under `artifacts/` for Perfetto. Returns the
/// classic kernel's cut-to-healed wall seconds and the trace's path.
fn measure(
    name: &str,
    topo: Topology,
    trace_to: Option<&str>,
    t: &mut Tables,
) -> Option<(f64, Option<std::path::PathBuf>)> {
    let switches = topo.num_switches();
    let links = topo.num_links();

    // Perf pass: the committed-trajectory configuration, untouched, then
    // the same scenario, still untraced, on the sharded kernel.
    let scale = NetParams::scale();
    let mut net = Network::new(topo.clone(), scale, 2);
    let classic = cycle(&mut net)?;
    let rc = net
        .route_cache_stats()
        .expect("every network shares a route cache");
    drop(net);
    let total_wall = classic.bring_wall + classic.cut_wall;
    let total_sim = classic.ran.as_secs_f64();
    let sharded1 = cycle(&mut PartitionedNetwork::new(topo.clone(), scale, 2, 1))?;
    let sharded2 = cycle(&mut PartitionedNetwork::new(topo.clone(), scale, 2, 2))?;
    let wall = Value::Wall;
    let ms = |ns: u64| wall(ns as f64 / 1e6);
    t.cost.row([
        name.into(),
        switches.into(),
        links.into(),
        classic.bring_sim.into(),
        classic.cut_sim.into(),
        wall(classic.bring_wall),
        wall(classic.cut_wall),
        wall(sharded1.bring_wall),
        wall(sharded1.cut_wall),
        wall(sharded2.bring_wall),
        wall(sharded2.cut_wall),
        wall(classic.events as f64 / total_wall / 1e3),
        wall(total_wall / total_sim),
    ]);
    let msgs = classic.bring_msgs;
    t.work.row([
        name.into(),
        classic.bring_events.into(),
        classic.bring_ctrl_msgs.into(),
        classic.bring_epochs.into(),
        msgs.joined.into(),
        msgs.current.into(),
        msgs.stale.into(),
        (msgs.stale as f64 / msgs.total().max(1) as f64).into(),
        classic.events.into(),
        sharded1.events.into(),
        sharded2.events.into(),
        classic.stats.topology_sent.into(),
        classic.stats.topology_encoded.into(),
        classic.stats.topology_decoded.into(),
    ]);
    let causes = classic.bring_causes.iter().map(|&(_, n)| n.into());
    t.causes.row(std::iter::once(name.into()).chain(causes));
    let of = |kind| {
        classic
            .cut_kinds
            .iter()
            .find(|&&(k, _)| k == kind)
            .unwrap()
            .1
    };
    let total: u64 = classic.cut_kinds.iter().map(|&(_, n)| n).sum();
    let [tick, sample, rx, cpu_done] = KINDS.map(of);
    t.kinds.row([
        name.into(),
        tick.into(),
        classic.cut_stats.ticks_run.into(),
        classic.cut_stats.ticks_superseded.into(),
        sample.into(),
        classic.cut_stats.samples_run.into(),
        rx.into(),
        cpu_done.into(),
        (total - tick - sample - rx - cpu_done).into(),
        ((tick + sample) as f64 / total.max(1) as f64).into(),
    ]);

    t.route_cache.row([
        name.into(),
        rc.builds.into(),
        rc.served_memo.into(),
        rc.delta_reused.into(),
        rc.synthesized.into(),
        rc.unroutable.into(),
        ms(rc.build_wall_ns),
        ms(rc.serve_wall_ns),
        ms(rc.delta_wall_ns),
    ]);

    // Profile pass: same scenario, partitioned kernel, tracing and shard
    // telemetry on. The scale preset disables tracing; the profile pass
    // pays for it on purpose — attribution is the whole point.
    let params = NetParams {
        tracing: true,
        ..NetParams::scale()
    };
    let mut prof = PartitionedNetwork::new(topo, params, 2, PARTITIONS);
    let profiled = cycle(&mut prof)?;
    let shards = prof.shard_telemetry().unwrap_or_default();
    let wait_us = |q: f64| {
        let waits = shards.iter().map(|s| &s.barrier_wait_buckets);
        wall(bucket_quantile(waits, q).as_secs_f64() * 1e6)
    };
    t.profile.row([
        name.into(),
        shards.len().into(),
        profiled.events.into(),
        prof.load_imbalance().into(),
        wall(profiled.bring_wall + profiled.cut_wall),
        prof.barrier_wait_fraction().map(wall).into(),
        wait_us(0.50),
        wait_us(0.99),
        wait_us(0.999),
    ]);
    let handlers = prof.handler_profile();
    let (named, other): (Vec<&HandlerProfile>, Vec<_>) =
        handlers.iter().partition(|h| KINDS.contains(&h.kind));
    let mut cells = vec![name.into()];
    for h in named {
        cells.extend([h.events.into(), wall(h.wall_s() * 1e3)]);
    }
    let other_events = other.iter().map(|h| h.events).sum::<u64>();
    let other_wall = other.iter().map(|h| h.wall_s()).sum::<f64>();
    let timed = handlers.iter().map(|h| h.timed).sum::<u64>();
    cells.extend([other_events.into(), wall(other_wall * 1e3), timed.into()]);
    t.handlers.row(cells);
    for (i, s) in shards.iter().enumerate() {
        t.shards.row([
            name.into(),
            i.into(),
            s.events.into(),
            s.windows.into(),
            s.busy_windows.into(),
            s.utilization().into(),
            s.mailbox_in.into(),
            s.mailbox_out.into(),
            ms(s.work_ns),
            ms(s.barrier_wait_ns),
        ]);
    }

    let trace_path = trace_to.map(|rel| {
        let records = prof.merged_trace();
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
    Some((classic.cut_wall, trace_path))
}

fn main() {
    let smoke = std::env::var("SCALE_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    println!(
        "E22: sim-kernel scale (scale preset; profile pass: {PARTITIONS} partitions + tracing{})",
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
    let mut cases: Vec<(&str, Topology)> = vec![
        ("fat_tree 256", gen::fat_tree(&[8, 2, 4], 99)),
        ("expander 256", gen::expander(256, 4, 99)),
    ];
    if !smoke {
        cases.push(("fat_tree 576", gen::fat_tree(&[8, 3, 6], 99)));
        cases.push(("expander 576", gen::expander(576, 4, 99)));
        cases.push(("fat_tree 1024", gen::fat_tree(&[8, 4, 8], 99)));
        cases.push(("expander 1024", gen::expander(1024, 4, 99)));
    }

    let mut t = tables();
    for (name, topo) in cases {
        let n = topo.num_switches();
        let trace_to =
            (name == flagship).then(|| format!("e22_{}.trace.json", name.replace(' ', "_")));
        let Some((cut_wall, trace)) = measure(name, topo, trace_to.as_deref(), &mut t) else {
            println!("  {name} ({n} switches): DID NOT CONVERGE");
            continue;
        };
        // The acceptance bar from the roadmap: a 1024-switch fat-tree heals
        // a core trunk cut in under 10 s of wall clock (perf pass — the cost
        // of observation is the profile pass's own wall).
        if name == "fat_tree 1024" {
            assert!(
                cut_wall < 10.0,
                "1024-switch trunk-cut reconfiguration took {cut_wall:.1} s wall (bar: 10 s)"
            );
            println!("acceptance: 1024-switch cut healed in {cut_wall:.1} s wall (< 10 s)");
        }
        // The flagship row must have produced a Perfetto-loadable trace.
        if name == flagship {
            assert!(
                trace.is_some_and(|p| p.exists()),
                "flagship row {flagship} did not emit its span trace"
            );
        }
    }
    // The smoke tier writes its own file so a CI smoke run never clobbers
    // the committed full trajectory point.
    Report::new(if smoke { "scale_smoke" } else { "scale" })
        .table(t.cost)
        .table(t.work)
        .table(t.route_cache)
        .table(t.profile)
        .table(t.shards)
        .table(t.kinds)
        .table(t.causes)
        .table(t.handlers)
        .finish();
}

//! `ft256_cut_heal` and `ft256_cut_heal_sharded2`: the same 256-switch
//! fat tree, seed and link order through the classic kernel and through
//! the 2-partition sharded kernel.
//!
//! Why these two. A cut-and-heal cycle is ~480 ms of simulated time of
//! which ~15 ms is reconfiguration; the rest is the skeptics holding the
//! healed link. So the classic workload measures the steady-state cost of
//! the kernel: idle `SwitchTick`/`SwitchSample` events, the calendar
//! queue and stability polling, with protocol and route cache doing
//! little. The sharded workload runs the same inputs through the other
//! executor, where barriers, windows, mailboxes and worker respawn
//! dominate; its numbers minus the classic ones are the price of
//! sharding, one subtraction. Quiescent cycles are where the sharded
//! kernel is worst and bring-up (`setup_s`) where it is busiest.

use autonet_net::{NetParams, Network, PartitionedNetwork};
use autonet_topo::{gen, Topology};

use super::{
    end_to_end, route_cache_metrics, span_metrics, timed, Args, Checks, Net, Outcome, Section,
    BRINGUP_DEADLINE, BRINGUP_POLL,
};
use crate::inputs::{derive, shuffled};
use crate::metrics::Metrics;
use crate::probes;
use crate::spans::{Spans, NO_OP};

/// 256 switches, 896 links.
const ARITIES: [usize; 3] = [8, 2, 4];
const TOPO_SEED: u64 = 99;
/// Cut-and-heal cycles per second of timed section (reference box).
const CLASSIC_CYCLES_PER_S: f64 = 2.4;
const SHARDED_CYCLES_PER_S: f64 = 0.2;
/// Cold bring-ups per run; `setup_s` is their median.
const CLASSIC_SETUPS: usize = 3;
const SHARDED_SETUPS: usize = 2;

struct Inputs {
    sim_seed: u64,
    links: Vec<usize>,
}

fn inputs(seed: u64, cycles: usize) -> Inputs {
    let n_links = gen::fat_tree(&ARITIES, TOPO_SEED).num_links();
    let order = shuffled(n_links, derive(seed, 2));
    Inputs {
        sim_seed: derive(seed, 1),
        links: (0..cycles).map(|i| order[i % n_links]).collect(),
    }
}

/// What identifies a settled bring-up: it must repeat exactly.
type BootSignature = (u64, u64, u64);

/// Generates the topology, builds the network with `build` and runs it
/// to first quiescence, `repeats` times; keeps the last network. Every
/// repeat must process the same events to the same instant and epoch.
fn bring_up<N: Net>(
    repeats: usize,
    build: impl Fn(Topology) -> N,
    spans: &mut Spans,
    checks: &mut Checks,
) -> (Option<N>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut first: Option<BootSignature> = None;
    let mut last = None;
    for _ in 0..repeats {
        // One network alive at a time, or the peak RSS is two of them.
        drop(last.take());
        let (net, wall) = timed(|| {
            let topo = spans.within("topo.gen", NO_OP, || gen::fat_tree(&ARITIES, TOPO_SEED));
            let mut net = spans.within("net.new", NO_OP, || build(topo));
            let up = spans.within("net.bringup", NO_OP, || {
                net.run_until_stable_every(BRINGUP_POLL, BRINGUP_DEADLINE)
            });
            up.map(|_| net)
        });
        setup_s.push(wall);
        let Some(net) = checks.accept(net.ok_or_else(|| "bring-up never stable".to_string()))
        else {
            return (None, setup_s);
        };
        let sig = (
            net.events_processed(),
            net.now().as_nanos(),
            super::epoch_of(&net),
        );
        let same = *first.get_or_insert(sig) == sig;
        checks.check(same, || {
            format!("bring-up not deterministic: {sig:?} after {first:?}")
        });
        last = Some(net);
    }
    (last, setup_s)
}

fn classic_net(params: NetParams, sim_seed: u64) -> impl Fn(Topology) -> Network {
    move |topo| Network::new(topo, params, sim_seed)
}

fn sharded_net(
    params: NetParams,
    sim_seed: u64,
    parts: usize,
) -> impl Fn(Topology) -> PartitionedNetwork {
    move |topo| PartitionedNetwork::new(topo, params, sim_seed, parts)
}

fn traced_params() -> NetParams {
    NetParams {
        tracing: true,
        ..NetParams::scale()
    }
}

pub fn classic(args: Args) -> Outcome {
    let cycles = args.ops(CLASSIC_CYCLES_PER_S, 4);
    let setups = if args.smoke { 1 } else { CLASSIC_SETUPS };
    let inp = inputs(args.seed, cycles);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut spans = Spans::new(args.traced);

    if !args.traced {
        let build = classic_net(NetParams::scale(), inp.sim_seed);
        let (net, setup_s) = bring_up(setups, build, &mut spans, &mut checks);
        let mut sec = Section::default();
        if let Some(mut net) = net {
            sec = Section::cut_heal(&mut net, &inp.links, 0, &mut spans, &mut checks);
            checks.accept(net.check_against_reference());
        }
        end_to_end(&setup_s, &sec, &mut metrics);
        return Outcome::done(checks, metrics, spans, &sec);
    }

    // Traced pass: half the cycles, twice. First with spans and the
    // program's tracing on, then as shipped (no spans, tracing off); the
    // difference is what tracing costs where it ships disabled.
    let links = &inp.links[..cycles.div_ceil(2)];
    let build = classic_net(traced_params(), inp.sim_seed);
    let (net, _) = bring_up(1, build, &mut spans, &mut checks);
    let Some(mut net) = net else {
        return Outcome::done(checks, metrics, spans, &Section::default());
    };
    let cache0 = net.route_cache_stats();
    let traced = Section::cut_heal(&mut net, links, 0, &mut spans, &mut checks);
    let cache1 = net.route_cache_stats();
    checks.accept(net.check_against_reference());
    let records = net.trace_log().len();
    let check_us = probes::consistency_check_us(|| net.control_plane_consistent());
    drop(net);

    let build = classic_net(NetParams::scale(), inp.sim_seed);
    let (shipped, _) = replay(build, links, &mut checks);

    traced.layer_metrics(shipped.wall_s, &mut metrics);
    route_cache_metrics(cache0, cache1, traced.wall_s, &mut metrics);
    tracing_cost(
        &traced,
        traced.wall_s,
        &shipped,
        records,
        &mut checks,
        &mut metrics,
    );
    traced.polling_metrics(check_us, shipped.wall_s, &mut metrics);
    let topo = gen::fat_tree(&ARITIES, TOPO_SEED);
    let (_, gen_s) = timed(|| gen::fat_tree(&ARITIES, TOPO_SEED));
    metrics.set("topo.gen_ms", gen_s * 1e3);
    metrics.set(
        "net.new_ms",
        probes::net_new_ms(&topo, NetParams::scale(), inp.sim_seed),
    );
    probes::calendar_queue(&mut metrics);
    probes::dispatch(&mut metrics);
    probes::route_pipeline(&topo, &mut metrics);
    probes::control_codec(&topo, &mut metrics);
    span_metrics(&spans, traced.wall_s, &mut metrics);
    Outcome::done(checks, metrics, spans, &traced)
}

/// What the program's own tracing costs: the same ops with it on
/// (`on_wall_s` of wall) and off, and that difference per record it
/// wrote. Tracing must not change behaviour: both runs must have
/// processed the same events and measured the same recoveries.
pub fn tracing_cost(
    on: &Section,
    on_wall_s: f64,
    off: &Section,
    records: usize,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    checks.check(
        on.events == off.events && on.recovery_ms == off.recovery_ms,
        || {
            format!(
                "tracing changed behaviour: {} vs {}",
                on.exact(),
                off.exact()
            )
        },
    );
    let delta_s = on_wall_s - off.wall_s;
    out.set("trace.records", records as f64);
    out.set_noted(
        "trace.overhead_frac",
        delta_s / off.wall_s,
        format!("{on_wall_s:.3} s on vs {:.3} s off", off.wall_s),
    );
    out.set_noted(
        "trace.ns_per_record",
        delta_s * 1e9 / records.max(1) as f64,
        format!("{:.1} ms over {records} records", delta_s * 1e3),
    );
}

/// The same cycles on a network of another kind: one bring-up, no spans.
/// Returns what the cycles measured and the network they ran on.
fn replay<N: Net>(
    build: impl Fn(Topology) -> N,
    links: &[usize],
    checks: &mut Checks,
) -> (Section, Option<N>) {
    let mut off = Spans::new(false);
    let (mut net, _) = bring_up(1, build, &mut off, checks);
    let sec = net.as_mut().map_or_else(Section::default, |net| {
        Section::cut_heal(net, links, 0, &mut off, checks)
    });
    (sec, net)
}

pub fn sharded2(args: Args) -> Outcome {
    let cycles = args.ops(SHARDED_CYCLES_PER_S, 1);
    let setups = if args.smoke || args.traced {
        1
    } else {
        SHARDED_SETUPS
    };
    let inp = inputs(args.seed, cycles);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut spans = Spans::new(args.traced);

    // The three executors of the sharding comparison run with the same
    // tracing setting, so that each ratio changes one variable: off for
    // the end-to-end run, on for the traced pass (shard telemetry rides
    // the tracing switch).
    let params = if args.traced {
        traced_params()
    } else {
        NetParams::scale()
    };
    let build = sharded_net(params, inp.sim_seed, 2);
    let (net, setup_s) = bring_up(setups, build, &mut spans, &mut checks);
    let Some(mut net) = net else {
        end_to_end(&setup_s, &Section::default(), &mut metrics);
        return Outcome::done(checks, metrics, spans, &Section::default());
    };
    let cache0 = net.route_cache_stats();
    let two = Section::cut_heal(&mut net, &inp.links, 0, &mut spans, &mut checks);
    let cache1 = net.route_cache_stats();
    let telemetry = net.shard_telemetry();
    let barrier_wait_frac = net.barrier_wait_fraction();
    let load_imbalance = net.load_imbalance();
    drop(net);

    // The classic kernel on the same inputs is the reference output: the
    // two executors must agree, after every cut, on which switches are
    // open and on the agreed topology.
    let (one_kernel, net) = replay(classic_net(params, inp.sim_seed), &inp.links, &mut checks);
    if let Some(net) = net {
        checks.accept(net.check_against_reference());
    }
    checks.check(two.cut_digests == one_kernel.cut_digests, || {
        format!(
            "classic and 2-partition control planes disagree: {:x?} vs {:x?}",
            one_kernel.cut_digests, two.cut_digests
        )
    });

    if !args.traced {
        end_to_end(&setup_s, &two, &mut metrics);
        return Outcome::done(checks, metrics, spans, &two);
    }

    let (one_shard, _) = replay(
        sharded_net(params, inp.sim_seed, 1),
        &inp.links,
        &mut checks,
    );
    // Partition count must be invisible: the same work at 1 and 2. Each
    // fault (a cut and a heal per op) is delivered to every shard, so the
    // second shard processes one more event per fault; nothing else may
    // differ.
    checks.check(
        two.events == one_shard.events + 2 * two.ops
            && (
                two.ctrl_msgs,
                two.epochs,
                &two.recovery_ms,
                &two.cut_digests,
            ) == (
                one_shard.ctrl_msgs,
                one_shard.epochs,
                &one_shard.recovery_ms,
                &one_shard.cut_digests,
            ),
        || {
            format!(
                "1 and 2 partitions differ: {} vs {}",
                one_shard.exact(),
                two.exact()
            )
        },
    );

    two.layer_metrics(two.wall_s, &mut metrics);
    route_cache_metrics(cache0, cache1, two.wall_s, &mut metrics);
    metrics.set("net.shard1_wall_s", one_shard.wall_s);
    metrics.set_noted(
        "net.sharding_overhead_frac",
        (one_shard.wall_s - one_kernel.wall_s) / one_kernel.wall_s,
        format!(
            "{:.3} s at 1 partition vs {:.3} s classic",
            one_shard.wall_s, one_kernel.wall_s
        ),
    );
    metrics.set_noted(
        "net.parallel_speedup",
        one_shard.wall_s / two.wall_s,
        format!(
            "{:.3} s at 1 partition / {:.3} s at 2, {} cores",
            one_shard.wall_s,
            two.wall_s,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    );
    if let Some(shards) = telemetry {
        let sum =
            |f: fn(&autonet_sim::ShardTelemetry) -> u64| -> u64 { shards.iter().map(f).sum() };
        metrics.set(
            "sim.windows",
            shards.iter().map(|t| t.windows).max().unwrap_or(0) as f64,
        );
        metrics.set_noted(
            "sim.busy_window_frac",
            sum(|t| t.busy_windows) as f64 / sum(|t| t.windows).max(1) as f64,
            format!("over {} shard-windows", sum(|t| t.windows)),
        );
        metrics.set_noted(
            "sim.barrier_wait_frac",
            barrier_wait_frac.unwrap_or(0.0),
            format!(
                "{:.3} s waiting, {:.3} s working",
                sum(|t| t.barrier_wait_ns) as f64 / 1e9,
                sum(|t| t.work_ns) as f64 / 1e9
            ),
        );
        metrics.set_noted(
            "sim.load_imbalance",
            load_imbalance.unwrap_or(0.0),
            format!(
                "hottest shard over the mean of {} events",
                sum(|t| t.events)
            ),
        );
        metrics.set("sim.mailbox_msgs", sum(|t| t.mailbox_out) as f64);
        metrics.set("sim.shard_work_s", sum(|t| t.work_ns) as f64 / 1e9);
    }
    probes::heap_queue(&mut metrics);
    probes::sharded_kernel(&mut metrics);
    span_metrics(&spans, two.wall_s, &mut metrics);
    Outcome::done(checks, metrics, spans, &two)
}

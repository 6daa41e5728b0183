//! `src30_probed_cut_heal`: the paper's own 30-switch SRC network with a
//! dual-homed host per switch, as shipped (`NetParams::tuned()`: tracing
//! on, the paper-faithful 200 us/packet control processor), probed every
//! 10 ms between neighbouring hosts while every one of its 56 links is
//! cut and healed.
//!
//! Why it exists. These are the reproduction's headline simulated
//! numbers: recovery time and probe blackout on the network the paper
//! measured. The working set is small, so what costs wall time here is
//! the fixed cost per event, the host/switch datapath the probes cross,
//! trace recording and the offline trace pipeline; queue size and route
//! computation do not.

use autonet_net::{NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{gen, HostId, SwitchId, Topology};
use autonet_trace::{to_jsonl, InterruptionConfig, InterruptionReport, SpanTree, Timeline};

use super::cut_heal::tracing_cost;
use super::{end_to_end, span_metrics, timed, Args, Checks, Outcome, Section};
use crate::inputs::{derive, shuffled};
use crate::metrics::Metrics;
use crate::probes;
use crate::spans::{Spans, NO_OP};
use crate::stats::median;

const TOPO_SEED: u64 = 1991;
/// Cut-and-heal cycles per second of timed section (reference box);
/// 10 s is seven whole passes over the 56 links.
const CYCLES_PER_S: f64 = 39.2;
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Hosts learn their addresses ~600 ms after boot; then the probes run
/// for a second before the first fault.
const LEARNING: SimDuration = SimDuration::from_secs(2);
const WARM_UP: SimDuration = SimDuration::from_secs(1);
/// After the last heal: probes in flight resolve, hosts relearn.
const TAIL: SimDuration = SimDuration::from_secs(1);

fn topology(host_seed: u64) -> Topology {
    let mut topo = gen::src_network(TOPO_SEED);
    gen::add_dual_homed_hosts(&mut topo, 1, host_seed);
    topo
}

/// Boots the network, lets hosts learn addresses and starts the probes.
fn set_up(
    params: NetParams,
    host_seed: u64,
    sim_seed: u64,
    spans: &mut Spans,
) -> Result<Network, String> {
    let topo = spans.within("topo.gen", NO_OP, || topology(host_seed));
    let n_hosts = topo.num_hosts();
    let mut net = spans.within("net.new", NO_OP, || Network::new(topo, params, sim_seed));
    spans
        .within("net.bringup", NO_OP, || {
            net.run_until_stable(SimTime::from_secs(120))
        })
        .ok_or("bring-up never stable")?;
    let pairs: Vec<(HostId, HostId)> = (0..n_hosts)
        .map(|i| (HostId(i), HostId((i + 1) % n_hosts)))
        .collect();
    spans.within("net.run_for", NO_OP, || {
        net.run_for(LEARNING);
        net.start_probes(&pairs, PROBE_INTERVAL);
        net.run_for(WARM_UP);
    });
    Ok(net)
}

/// One pass: a network of its own, then one cycle per link.
struct Pass {
    sim_seed: u64,
    links: Vec<usize>,
}

fn passes(seed: u64, cycles: usize) -> Vec<Pass> {
    let n_links = topology(0).num_links();
    (0..cycles.div_ceil(n_links))
        .map(|p| {
            let order = shuffled(n_links, derive(seed, 200 + p as u64));
            let take = (cycles - p * n_links).min(n_links);
            Pass {
                sim_seed: derive(seed, 100 + p as u64),
                links: order[..take].to_vec(),
            }
        })
        .collect()
}

/// The offline products of one pass.
struct Offline {
    blackout_ms: Vec<f64>,
    probes_sent: u64,
    probes_delivered: u64,
    timeline_s: f64,
    interruption_s: f64,
}

/// Rebuilds the timeline and the interruption ledger of a finished pass;
/// every blackout must be explained by a reconfiguration epoch.
fn offline(
    net: &Network,
    spans: &mut Spans,
    checks: &mut Checks,
) -> (Offline, Timeline, InterruptionReport) {
    let (timeline, timeline_s) = timed(|| {
        spans.within("trace.timeline_build", NO_OP, || {
            Timeline::build(net.trace_log().records())
        })
    });
    let (report, interruption_s) = timed(|| {
        spans.within("trace.interruption_build", NO_OP, || {
            InterruptionReport::build(
                &net.probe_pairs(),
                net.probe_records(),
                &timeline,
                net.now(),
                InterruptionConfig {
                    interval: PROBE_INTERVAL,
                    min_run: 2,
                },
            )
        })
    });
    let unexplained = report.unexplained().count();
    checks.check(unexplained == 0, || {
        format!("{unexplained} blackout windows no reconfiguration explains")
    });
    let off = Offline {
        blackout_ms: report
            .windows()
            .map(|w| w.duration().as_millis_f64())
            .collect(),
        probes_sent: report
            .pairs
            .iter()
            .map(|p| p.delivered + p.dropped + p.dead_letters)
            .sum(),
        probes_delivered: report.pairs.iter().map(|p| p.delivered).sum(),
        timeline_s,
        interruption_s,
    };
    (off, timeline, report)
}

pub fn run(args: Args) -> Outcome {
    let cycles = args.ops(CYCLES_PER_S, 14);
    let host_seed = derive(args.seed, 3);
    let mut plan = passes(args.seed, cycles);
    if args.traced {
        // Half the work, run twice (tracing on, then off).
        plan.truncate(plan.len().div_ceil(2));
    }
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut spans = Spans::new(args.traced);

    let mut setup_s = Vec::new();
    let mut all = Section::default();
    let mut cycles_s = 0.0;
    let mut blackout_ms = Vec::new();
    let (mut sent, mut delivered, mut records) = (0u64, 0u64, 0usize);
    let (mut timeline_s, mut interruption_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut first_op = 0;
    for pass in &plan {
        let (net, wall) =
            timed(|| set_up(NetParams::tuned(), host_seed, pass.sim_seed, &mut spans));
        setup_s.push(wall);
        let Some(mut net) = checks.accept(net) else {
            continue;
        };
        let mut sec = Section::cut_heal(&mut net, &pass.links, first_op, &mut spans, &mut checks);
        first_op += pass.links.len() as u32;
        cycles_s += sec.wall_s;
        // The tail and the offline pipeline belong to the timed section:
        // a user waits for the blackout report, not for the last heal.
        let ((off, timeline, report), post_s) = timed(|| {
            spans.within("net.run_for", NO_OP, || net.run_for(TAIL));
            offline(&net, &mut spans, &mut checks)
        });
        sec.wall_s += post_s;
        all.absorb(sec);
        blackout_ms.extend(off.blackout_ms);
        sent += off.probes_sent;
        delivered += off.probes_delivered;
        records += net.trace_log().len();
        timeline_s.push(off.timeline_s);
        interruption_s.push(off.interruption_s);
        last = Some((net, timeline, report));
    }

    if !args.traced {
        end_to_end(&setup_s, &all, &mut metrics);
        return Outcome::done(checks, metrics, spans, &all);
    }

    // The same cycles with the program's tracing off. Nothing offline
    // can be built from such a run; only its cycle wall is compared.
    let mut off_spans = Spans::new(false);
    let mut untraced = Section::default();
    let params = NetParams {
        tracing: false,
        ..NetParams::tuned()
    };
    for pass in &plan {
        if let Some(mut net) =
            checks.accept(set_up(params, host_seed, pass.sim_seed, &mut off_spans))
        {
            untraced.absorb(Section::cut_heal(
                &mut net,
                &pass.links,
                0,
                &mut off_spans,
                &mut checks,
            ));
        }
    }
    // Throughput is taken over the cycles as shipped (tracing on, and the
    // spans' cost is below a microsecond per op).
    all.layer_metrics(cycles_s, &mut metrics);
    tracing_cost(
        &all,
        cycles_s,
        &untraced,
        records,
        &mut checks,
        &mut metrics,
    );
    if let Some(m) = median(&blackout_ms) {
        metrics.set_noted(
            "net.blackout_ms_p50",
            m,
            format!("n = {}", blackout_ms.len()),
        );
        metrics.set(
            "net.blackout_ms_max",
            blackout_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    metrics.set_noted(
        "net.probe_delivery_frac",
        delivered as f64 / sent.max(1) as f64,
        format!("{delivered} of {sent} probes"),
    );
    metrics.set(
        "trace.timeline_build_ms",
        median(&timeline_s).unwrap_or(0.0) * 1e3,
    );
    metrics.set(
        "trace.interruption_build_ms",
        median(&interruption_s).unwrap_or(0.0) * 1e3,
    );
    if let Some((net, timeline, report)) = &last {
        let (tree, tree_s) = timed(|| SpanTree::build(timeline, Some(report)));
        checks.accept(tree.check_well_formed());
        metrics.set("trace.span_tree_ms", tree_s * 1e3);
        let (jsonl, jsonl_s) = timed(|| to_jsonl(net.trace_log().records()));
        std::hint::black_box(jsonl.len());
        metrics.set("trace.jsonl_ms", jsonl_s * 1e3);

        // The datapath the probes cross: packet codec, CRC, table lookup
        // on an installed table with the probed hosts' addresses.
        probes::wire_codec(&mut metrics);
        let addrs: Vec<_> = (0..net.topology().num_hosts())
            .filter_map(|h| net.host(HostId(h)).short_address())
            .collect();
        probes::table_lookup(net.forwarding_table(SwitchId(0)), &addrs, &mut metrics);
        let check_us = probes::consistency_check_us(|| net.control_plane_consistent());
        all.polling_metrics(check_us, cycles_s, &mut metrics);
    }
    let (_, gen_s) = timed(|| topology(host_seed));
    metrics.set("topo.gen_ms", gen_s * 1e3);
    span_metrics(&spans, all.wall_s, &mut metrics);
    Outcome::done(checks, metrics, spans, &all)
}

//! `ft576_bringup`: cold bring-up of a 576-switch, 2448-link fat tree on
//! the classic kernel, from `Network::new` to first quiescence.
//!
//! Why it exists. Bring-up is the storm: an epoch flood, thousands of
//! route-cache builds and dense control traffic over 2.25 times the
//! working set of the `ft256_*` workloads. It uses the kernel and the
//! network layer the opposite way from `ft256_cut_heal` (dense control
//! traffic instead of idle ticks), so a gain for one that costs the
//! other shows. One op is one bring-up; each op gets its own simulation
//! seed so that ops are samples, not copies.

use autonet_net::{NetParams, Network};
use autonet_sim::SimTime;
use autonet_topo::{gen, SwitchId, Topology};

use super::cut_heal::tracing_cost;
use super::{
    end_to_end, route_cache_metrics, span_metrics, timed, Args, Checks, Outcome, Section,
    BRINGUP_DEADLINE, BRINGUP_POLL,
};
use crate::inputs::derive;
use crate::metrics::Metrics;
use crate::probes;
use crate::spans::{Spans, NO_OP};
use crate::stats::median;

/// 576 switches, 2448 links; the smoke tier boots the 256-switch tree.
const ARITIES: [usize; 3] = [8, 3, 6];
const SMOKE_ARITIES: [usize; 3] = [8, 2, 4];
const TOPO_SEED: u64 = 99;
/// Bring-ups per second of timed section (reference box): one takes ~8 s.
const BRINGUPS_PER_S: f64 = 0.12;
/// Topology generations per run; `setup_s` is their median. Many,
/// because one takes a fraction of a millisecond.
const SETUPS: usize = 41;

fn topology(smoke: bool) -> Topology {
    gen::fat_tree(if smoke { &SMOKE_ARITIES } else { &ARITIES }, TOPO_SEED)
}

/// Boots one network per seed and folds the bring-ups into a section.
/// Returns the section and the last network, settled.
fn boot_all(
    topo: &Topology,
    params: NetParams,
    sim_seeds: &[u64],
    spans: &mut Spans,
    checks: &mut Checks,
) -> (Section, Option<Network>) {
    let mut sec = Section::default();
    let mut last = None;
    for (op, &sim_seed) in sim_seeds.iter().enumerate() {
        let op = op as u32;
        let ((net, settled), wall) = timed(|| {
            let mut net = spans.within("net.new", op, || {
                Network::new(topo.clone(), params, sim_seed)
            });
            let settled = spans.within("net.bringup", op, || {
                net.run_until_stable_every(BRINGUP_POLL, BRINGUP_DEADLINE)
            });
            (net, settled)
        });
        sec.ops += 1;
        let settled =
            checks.accept(settled.ok_or_else(|| format!("op {op}: bring-up never stable")));
        let Some(settled) = settled else { continue };
        let consistent = spans.within("net.consistency_check", op, || {
            net.control_plane_consistent()
        });
        checks.check(consistent, || {
            format!("op {op}: inconsistent after bring-up")
        });
        checks.accept(net.check_against_reference());
        let stats = net.stats();
        sec.op_wall_ms.push(wall * 1e3);
        sec.recovery_ms
            .push(settled.saturating_since(SimTime::ZERO).as_millis_f64());
        sec.wall_s += wall;
        sec.sim_s += net.now().as_nanos() as f64 / 1e9;
        sec.events += net.events_processed();
        sec.ctrl_msgs += stats.control_sent;
        sec.cpu_queue_drops += stats.cpu_queue_drops;
        sec.epochs += net.autopilot(SwitchId(0)).epoch().0;
        sec.reconfigs += net.total_reconfigs_triggered();
        sec.polls += net.now().as_nanos() / BRINGUP_POLL.as_nanos();
        last = Some(net);
    }
    (sec, last)
}

pub fn run(args: Args) -> Outcome {
    let ops = args.ops(BRINGUPS_PER_S, 1);
    let sim_seeds: Vec<u64> = (0..ops as u64).map(|k| derive(args.seed, 10 + k)).collect();
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut spans = Spans::new(args.traced);

    // Set-up is topology generation only; everything else is the op.
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| timed(|| spans.within("topo.gen", NO_OP, || topology(args.smoke))).1)
        .collect();
    let topo = topology(args.smoke);

    if !args.traced {
        let (sec, _) = boot_all(
            &topo,
            NetParams::scale(),
            &sim_seeds,
            &mut spans,
            &mut checks,
        );
        end_to_end(&setup_s, &sec, &mut metrics);
        return Outcome::done(checks, metrics, spans, &sec);
    }

    // Traced pass: one bring-up with spans and the program's tracing on,
    // then the same one as shipped.
    let seed = &sim_seeds[..1];
    let params = NetParams {
        tracing: true,
        ..NetParams::scale()
    };
    let (traced, net) = boot_all(&topo, params, seed, &mut spans, &mut checks);
    let mut records = 0;
    if let Some(net) = &net {
        records = net.trace_log().len();
        // One cache per network, so its counters cover exactly this op.
        route_cache_metrics(
            Some(Default::default()),
            net.route_cache_stats(),
            traced.wall_s,
            &mut metrics,
        );
        let check_us = probes::consistency_check_us(|| net.control_plane_consistent());
        traced.polling_metrics(check_us, traced.wall_s, &mut metrics);
    }
    drop(net);
    let mut off = Spans::new(false);
    let (shipped, _) = boot_all(&topo, NetParams::scale(), seed, &mut off, &mut checks);
    traced.layer_metrics(shipped.wall_s, &mut metrics);
    tracing_cost(
        &traced,
        traced.wall_s,
        &shipped,
        records,
        &mut checks,
        &mut metrics,
    );
    metrics.set("topo.gen_ms", median(&setup_s).unwrap_or(0.0) * 1e3);
    metrics.set(
        "net.new_ms",
        probes::net_new_ms(&topo, NetParams::scale(), sim_seeds[0]),
    );
    probes::route_pipeline(&topo, &mut metrics);
    span_metrics(&spans, traced.wall_s, &mut metrics);
    Outcome::done(checks, metrics, spans, &traced)
}

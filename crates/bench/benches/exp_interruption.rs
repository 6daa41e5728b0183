//! E21 — Data-plane service interruption under a single link cut.
//!
//! Paper: reconfiguration closes the *whole* network (§4), so every host
//! pair goes dark for the closed span, and the tuned implementation
//! restores service in well under a second (§6.6.5). The probes measure
//! that interruption directly: continuous tagged flows over every host,
//! a trunk cut, and per-pair blackout windows from the
//! `InterruptionReport` — plus the critical-path attribution of the
//! reconfiguration that caused them.

use autonet_bench::{converge, quantile, Report, Table, Value};
use autonet_net::NetParams;
use autonet_sim::SimDuration;
use autonet_topo::{gen, HostId, LinkId, Topology};
use autonet_trace::{InterruptionConfig, InterruptionReport, Timeline};

/// Probe cadence: well below the tuned closed span, so every blackout is
/// sampled by several probes.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(10);

/// One row: the topology's name, pairs, pairs dark, the median, p90 and max
/// over the dark pairs' longest windows, and the critical path.
fn measure(name: &str, topo: Topology, cut: LinkId, seed: u64) -> Vec<Value> {
    let n_hosts = topo.num_hosts();
    let mut net = converge(topo, NetParams::tuned(), seed);
    // Let the hosts learn addresses, then establish the steady baseline.
    net.run_for(SimDuration::from_secs(2));
    let pairs: Vec<(HostId, HostId)> = (0..n_hosts)
        .map(|i| (HostId(i), HostId((i + 1) % n_hosts)))
        .collect();
    net.start_probes(&pairs, PROBE_INTERVAL);
    net.run_for(SimDuration::from_secs(1));
    // The fault, reconvergence, and time for hosts to relearn addresses.
    net.schedule_link_down(net.now() + SimDuration::from_millis(10), cut);
    net.run_for(SimDuration::from_millis(50));
    net.run_until_stable(net.now() + SimDuration::from_secs(120))
        .expect("network must reconverge after a single cut");
    net.run_for(SimDuration::from_secs(4));

    let timeline = Timeline::build(net.trace_log().records());
    let report = InterruptionReport::build(
        &net.probe_pairs(),
        net.probe_records(),
        &timeline,
        net.now(),
        InterruptionConfig {
            interval: PROBE_INTERVAL,
            min_run: 2,
        },
    );
    let per_pair_max: Vec<SimDuration> = report
        .pairs
        .iter()
        .filter_map(|p| p.max_blackout())
        .collect();
    // A cut usually triggers a short cascade of epochs; attribute the
    // longest one (the reconfiguration that dominated the blackout).
    let cp = timeline
        .epochs
        .iter()
        .filter_map(|r| timeline.critical_path(r.epoch))
        .max_by_key(|cp| cp.total);
    let dominant = cp.as_ref().map(|cp| cp.dominant());
    vec![
        name.into(),
        report.pairs.len().into(),
        per_pair_max.len().into(),
        quantile(&per_pair_max, 0.5).into(),
        quantile(&per_pair_max, 0.9).into(),
        report.max_blackout().into(),
        cp.as_ref().map(|cp| cp.total).into(),
        cp.as_ref().map(|cp| cp.coverage()).into(),
        dominant.map(|d| d.phase).into(),
        dominant.map(|d| d.node).into(),
    ]
}

fn main() {
    println!("E21: service interruption across a single trunk cut");
    println!("(probe flows over every host; blackout = consecutive probe losses)");
    let cases: [(&str, Topology, LinkId); 3] = [
        ("src-30", gen::src_network(1991), LinkId(11)),
        ("ring-8", gen::ring(8, 2), LinkId(0)),
        ("torus-4x4", gen::torus(4, 4, 3), LinkId(5)),
    ];
    let mut t = Table::new(
        "E21: blackout windows after one trunk cut (10 ms probes; dark = two or more lost in a row)",
        &[
            "topology",
            "pairs",
            "pairs dark",
            "median blackout",
            "p90 blackout",
            "max blackout",
            "critical path",
            "coverage",
            "dominant phase",
            "on node",
        ],
    );
    for (name, mut topo, cut) in cases {
        gen::add_dual_homed_hosts(&mut topo, 1, 7);
        t.row(measure(name, topo, cut, 42));
    }
    Report::new("interruption").table(t).finish();
    println!(
        "\nShape check: every pair goes dark for roughly the closed span\n\
         (the paper closes the whole network during reconfiguration), the\n\
         max stays well under one second, and the critical path accounts\n\
         for all of the reconfiguration latency."
    );
}

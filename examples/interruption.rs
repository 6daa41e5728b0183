//! Service-interruption demo: probe flows between every host, one trunk
//! cut, and the per-pair blackout ledger — the observability workflow
//! behind EXPERIMENTS.md E21.
//!
//! Run with: `cargo run --release --example interruption [topology]`
//!
//! Topologies (one dual-homed host per switch, ring of probe pairs):
//!   ring   4-switch ring (default)
//!   src    the 30-switch SRC network from the paper
//!
//! Prints the `InterruptionReport` (per-pair delivery counts, blackout
//! windows, duration quantiles) and the critical path of the cut's fault
//! burst — which node's phase the blackout was waiting on.

use autonet::net::{NetParams, Network};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, HostId, LinkId};
use autonet::trace::{InterruptionConfig, InterruptionReport, Timeline};

/// Probe cadence: well below the tuned closed span so every blackout is
/// sampled by several probes.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(2);

fn main() {
    let topology = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ring".to_string());
    let (mut topo, cut) = match topology.as_str() {
        "ring" => (gen::ring(4, 5), LinkId(0)),
        "src" => (gen::src_network(1991), LinkId(11)),
        other => {
            eprintln!("unknown topology '{other}'; pick one of: ring, src");
            std::process::exit(2);
        }
    };
    gen::add_dual_homed_hosts(&mut topo, 1, 9);
    let n = topo.num_hosts();

    let mut net = Network::new(topo, NetParams::tuned(), 1);
    net.run_until_stable(SimTime::from_secs(120))
        .expect("bring-up converges");
    // Hosts learn addresses, then a steady probed baseline.
    net.run_for(SimDuration::from_secs(3));
    let pairs: Vec<(HostId, HostId)> = (0..n).map(|i| (HostId(i), HostId((i + 1) % n))).collect();
    net.start_probes(&pairs, PROBE_INTERVAL);
    net.run_for(SimDuration::from_secs(1));

    println!("topology: {topology} ({n} hosts; one probe per pair per {PROBE_INTERVAL})");
    println!("cutting link {} ...\n", cut.0);
    let cut_at = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(cut_at, cut);
    net.run_for(SimDuration::from_millis(50));
    net.run_until_stable(net.now() + SimDuration::from_secs(120))
        .expect("network reconverges after the cut");
    net.run_for(SimDuration::from_secs(3));

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
    println!("{report}");

    // A cut usually triggers a short cascade of epochs; its burst folds
    // them into one path from the first detection to the last reopen.
    let cut_burst = timeline
        .critical_paths()
        .find(|(cp, _)| cp.segments[0].start >= cut_at);
    if let Some((cp, _)) = cut_burst {
        println!("critical path of the cut's reconfiguration:");
        println!("{cp}");
    }
}

//! E3 — Termination detection vs timeout-based opening (§4.1, §6.6.1).
//!
//! Paper: Perlman's algorithm never lets a node be sure tree formation has
//! finished, so a timeout-based implementation must either wait far longer
//! than actual convergence (slow) or risk opening with an incomplete
//! topology (inconsistent tables — "to do so would invite deadlock").
//! The stability extension tells the root the exact moment the tree is
//! done. We run both on the same network and fault.
//!
//! An early timeout does not leave a wrong table behind for good: a switch
//! refuses a topology that cannot route, and a later epoch repairs it. What
//! it costs is churn — epochs burned, refused topologies, extra reopens —
//! so that is what each row reports next to the reopen latency.

use autonet_bench::{Report, Table, Value};
use autonet_core::{Event, TerminationMode};
use autonet_net::{NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{gen, LinkId, Topology};

/// Highest epoch any switch has reached.
fn epoch(net: &Network) -> u64 {
    let epochs = net
        .topology()
        .switch_ids()
        .map(|s| net.autopilot(s).epoch().0);
    epochs.max().unwrap_or(0)
}

fn run_mode(name: &str, topo: Topology, mode: TerminationMode, seed: u64) -> Vec<Value> {
    let mut params = NetParams::tuned();
    params.autopilot.termination = mode;
    let mut net = Network::new(topo, params, seed);
    // Bring-up: a fixed, generous budget rather than the consistency
    // predicate, because an aggressive timeout may never satisfy it.
    net.run_for(SimTime::from_secs(20).saturating_since(net.now()));
    let n = net.topology().num_switches();
    let settled = net.control_plane_consistent();
    let bringup_epochs = epoch(&net);
    let fault_at = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(fault_at, LinkId(0));
    net.run_for(SimDuration::from_secs(20));
    // What the one cut cost, from the typed spine: every reopen after it.
    let records = net.trace_log().records();
    let mut last_open = vec![None; n];
    let mut opens = 0u64;
    for r in records.iter().filter(|r| r.time > fault_at) {
        if let Event::NetworkOpened { .. } = r.event {
            last_open[r.node] = Some(r.time);
            opens += 1;
        }
    }
    // And over the whole run: every topology a switch was handed that
    // could not route, so it kept its cleared table.
    let unroutable = records
        .iter()
        .filter(|r| matches!(r.event, Event::UnroutableTopology { .. }))
        .count();
    // Fault to last reopen, if every switch reopened.
    let reopen = last_open
        .iter()
        .copied()
        .collect::<Option<Vec<SimTime>>>()
        .and_then(|t| t.into_iter().max())
        .map(|t| t.saturating_since(fault_at));
    vec![
        name.into(),
        reopen.into(),
        settled.into(),
        bringup_epochs.into(),
        (epoch(&net) - bringup_epochs).into(),
        opens.into(),
        unroutable.into(),
        net.control_plane_consistent().into(),
    ]
}

fn main() {
    println!("E3: stability-based termination vs quiescence timeouts");
    println!("(30-switch SRC network, 20 s of bring-up, one link failure, 20 s more)");
    let mut t = Table::new(
        "E3: what one link failure costs, by how the root decides the tree is done",
        &[
            "termination",
            "fault-to-all-open",
            "settled at fault",
            "epochs in bring-up",
            "epochs after fault",
            "reopens after fault",
            "unroutable topologies (whole run)",
            "settled at end",
        ],
    );
    let timeout = |ms| TerminationMode::RootQuiescence(SimDuration::from_millis(ms));
    for (name, mode) in [
        ("stability (the paper)", TerminationMode::Stability),
        ("timeout 1 ms", timeout(1)),
        ("timeout 2 ms", timeout(2)),
        ("timeout 5 ms", timeout(5)),
        ("timeout 50 ms", timeout(50)),
        ("timeout 250 ms", timeout(250)),
        ("timeout 1000 ms", timeout(1000)),
    ] {
        t.row(run_mode(name, gen::src_network(81), mode, 7));
    }
    Report::new("termination").table(t).finish();
    println!(
        "\nShape check: stability boots in a dozen epochs, heals in one and\n\
         reopens at the earliest safe instant. Timeouts shorter than the\n\
         tree's real convergence fire on partial trees: epochs by the\n\
         hundred in bring-up, topologies that cannot route, a cut that\n\
         costs extra epochs and reopens, or a network still unsettled when\n\
         the fault arrives. Timeouts long enough to be safe do stability's\n\
         work exactly and pay their margin on every reconfiguration."
    );
}

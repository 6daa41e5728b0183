//! Quickstart: build an Autonet, watch it configure itself, break it,
//! watch it reconfigure, and read the merged trace log — the workflow of
//! companion paper §6.7.
//!
//! Run with: `cargo run --example quickstart`

use autonet::net::{NetParams, Network};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, LinkId, SwitchId};

fn main() {
    // A 3x3 torus of switches with two dual-homed hosts per switch.
    let mut topo = gen::torus(3, 3, 42);
    gen::add_dual_homed_hosts(&mut topo, 2, 7);
    println!(
        "topology: {} switches, {} trunk links, {} dual-homed hosts",
        topo.num_switches(),
        topo.num_links(),
        topo.num_hosts()
    );

    let mut net = Network::new(topo, NetParams::tuned(), 1);

    // Power on: every switch boots, classifies its ports, verifies its
    // neighbors, and the distributed reconfiguration runs to completion.
    let converged = net
        .run_until_stable(SimTime::from_secs(30))
        .expect("the network must configure itself");
    println!("\nself-configuration complete at t = {converged}");
    let root_uid = net.autopilot(SwitchId(0)).global().unwrap().root;
    println!("spanning-tree root: {root_uid}");
    for s in [SwitchId(0), SwitchId(4), SwitchId(8)] {
        let ap = net.autopilot(s);
        println!(
            "  switch {:?}: uid {}, number {:?}, epoch {}, {} good trunk ports",
            s,
            ap.uid(),
            ap.switch_number().unwrap(),
            ap.epoch(),
            ap.good_ports().len()
        );
    }
    net.check_against_reference()
        .expect("matches graph-theoretic reference");

    // Give the hosts a moment to learn their short addresses, then send.
    net.run_for(SimDuration::from_secs(3));
    let h0 = autonet::topo::HostId(0);
    let h9 = autonet::topo::HostId(9);
    let dst = net.topology().host(h9).uid;
    println!(
        "\nhost 0 ({}) -> host 9 ({}), 1 KiB",
        net.host(h0).short_address().unwrap(),
        net.host(h9).short_address().unwrap()
    );
    net.schedule_host_send(net.now() + SimDuration::from_millis(1), h0, dst, 1024, 1);
    net.run_for(SimDuration::from_millis(100));
    let d = net
        .deliveries()
        .iter()
        .find(|d| d.tag == 1)
        .expect("delivered");
    println!("delivered to {:?} at {}", d.host, d.time);

    // Now cut a trunk cable.
    println!("\ncutting trunk link 0 ...");
    let cut_at = net.now() + SimDuration::from_millis(5);
    net.schedule_link_down(cut_at, LinkId(0));
    net.run_for(SimDuration::from_millis(20));
    let healed = net
        .run_until_stable(net.now() + SimDuration::from_secs(30))
        .expect("must reconfigure around the cut");
    println!(
        "network reconfigured and reopened {} after the cut",
        healed.saturating_since(cut_at)
    );
    net.check_against_reference().expect("still consistent");

    // Traffic still flows.
    net.schedule_host_send(net.now() + SimDuration::from_millis(1), h0, dst, 1024, 2);
    net.run_for(SimDuration::from_millis(100));
    assert!(net.deliveries().iter().any(|d| d.tag == 2));
    println!("post-reconfiguration delivery confirmed");

    // The merged event log of every switch, the paper's debugging
    // workflow (§6.7).
    println!("\nmerged reconfiguration log (last 12 entries):");
    for record in net.merged_trace().iter().rev().take(12).rev() {
        println!("  {record}");
    }
}

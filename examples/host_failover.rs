//! Alternate host ports: no single failure disconnects a host (§3.9,
//! §6.8.3). We crash the switch a host is actively using and watch the
//! driver fail over to the alternate port, re-learn its short address,
//! advertise it, and resume traffic.
//!
//! Run with: `cargo run --release --example host_failover`

use autonet::net::{NetParams, Network};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, HostId};

fn main() {
    // A ring of four switches; host 0 is dual-homed to switches 0 and 1.
    let mut topo = gen::ring(4, 23);
    gen::add_dual_homed_hosts(&mut topo, 1, 9);
    let h = HostId(0);
    let spec = topo.host(h).clone();
    println!(
        "host {:?}: primary on {:?} port {}, alternate on {:?} port {}",
        h,
        spec.primary.switch,
        spec.primary.port,
        spec.alternate.unwrap().switch,
        spec.alternate.unwrap().port
    );

    let mut net = Network::new(topo, NetParams::tuned(), 4);
    net.run_until_stable(SimTime::from_secs(30))
        .expect("converges");
    net.run_for(SimDuration::from_secs(3));
    let addr_before = net.host(h).short_address().expect("address learned");
    println!("address before failure: {addr_before}");

    // Background traffic: a peer host pings our host every 100 ms.
    let peer = HostId(2);
    let dst = net.topology().host(h).uid;
    let t0 = net.now();
    for i in 0..200u64 {
        net.schedule_host_send(
            t0 + SimDuration::from_millis(100) * i,
            peer,
            dst,
            256,
            1000 + i,
        );
    }

    // Crash the host's active switch.
    let victim = spec.primary.switch;
    let crash_at = t0 + SimDuration::from_secs(2);
    net.schedule_switch_down(crash_at, victim);
    println!("crashing {victim:?} (the host's active switch) at {crash_at}");

    net.run_for(SimDuration::from_secs(20));

    // The failover and the re-learned address, from the host's own state.
    let host = net.host(h);
    let sw_t = host.switched_at();
    assert!(sw_t > crash_at, "driver must fail over");
    println!(
        "\nfailover to controller port {} after {}",
        host.active_port(),
        sw_t.saturating_since(crash_at)
    );
    let addr_t = host
        .address_changed_at()
        .filter(|&t| t > sw_t)
        .expect("address re-learned on the alternate switch");
    let addr = host.short_address().expect("address known");
    println!(
        "new address {addr} learned {} after the crash",
        addr_t.saturating_since(crash_at)
    );
    assert_ne!(
        addr, addr_before,
        "the alternate port has a different short address"
    );

    // Traffic delivered after the failover proves end-to-end recovery.
    let delivered_after = net
        .deliveries()
        .iter()
        .filter(|d| d.host == h && d.time > addr_t)
        .count();
    println!("frames delivered to the host after recovery: {delivered_after}");
    assert!(
        delivered_after > 0,
        "traffic must resume on the alternate port"
    );

    let outage_frames = net
        .deliveries()
        .iter()
        .filter(|d| d.host == h && d.time > crash_at && d.time < addr_t)
        .count();
    println!("frames delivered during the outage window: {outage_frames}");
    println!(
        "\ntotal outage (crash -> new address advertised): {}",
        addr_t.saturating_since(crash_at)
    );
}

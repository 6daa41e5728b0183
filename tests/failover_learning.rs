//! Integration: host failover and short-address learning end to end,
//! through real reconfigurations.

use autonet::net::{NetParams, Network};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, HostId, SwitchId};

/// A ring with one dual-homed host per switch, converged and with
/// addresses learned.
fn ready_network(seed: u64) -> Network {
    let mut topo = gen::ring(4, 51);
    gen::add_dual_homed_hosts(&mut topo, 1, 53);
    let mut net = Network::new(topo, NetParams::tuned(), seed);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    net.run_for(SimDuration::from_secs(3));
    for h in net.topology().host_ids() {
        assert!(
            net.host(h).short_address().is_some(),
            "{h:?} must have an address"
        );
    }
    net
}

#[test]
fn host_survives_active_switch_crash() {
    let mut net = ready_network(61);
    let h = HostId(0);
    let primary = net.topology().host(h).primary.switch;
    let crash_at = net.now() + SimDuration::from_millis(10);
    net.schedule_switch_down(crash_at, primary);
    net.run_for(SimDuration::from_secs(15));
    // The driver failed over within a few seconds and re-learned an
    // address on the alternate switch.
    let sw_time = net.host(h).switched_at();
    assert!(sw_time > crash_at, "failover must happen");
    let took = sw_time.saturating_since(crash_at);
    // The driver counts 3 s of silence from the *last successful contact*,
    // which can precede the crash by up to one liveness interval (2 s), so
    // the observed post-crash delay is 1–3 s plus scheduling slack.
    assert!(
        took >= SimDuration::from_millis(900) && took < SimDuration::from_secs(5),
        "failover after {took}, expected ~1-4 s"
    );
    assert_eq!(net.host(h).active_port(), 1);
    let addr = net.host(h).short_address().expect("re-learned");
    assert!(net.host(h).address_changed_at() > Some(sw_time));
    let alternate = net.topology().host(h).alternate.unwrap();
    let alt_number = net
        .autopilot(alternate.switch)
        .switch_number()
        .expect("alternate switch numbered");
    assert_eq!(
        addr,
        autonet::wire::ShortAddress::assigned(alt_number, alternate.port)
    );
    // Traffic reaches it at the new address.
    let peer = HostId(2);
    let dst = net.topology().host(h).uid;
    net.schedule_host_send(net.now() + SimDuration::from_millis(5), peer, dst, 128, 77);
    net.run_for(SimDuration::from_secs(2));
    assert!(net.deliveries().iter().any(|d| d.tag == 77 && d.host == h));
}

#[test]
fn peers_relearn_changed_address_without_timeouts() {
    // After failover the host's short address changes; the gratuitous ARP
    // broadcast lets peers update immediately (§6.8.1).
    let mut net = ready_network(67);
    let h = HostId(1);
    let peer = HostId(3);
    let dst = net.topology().host(h).uid;
    // Prime the peer's cache.
    net.schedule_host_send(net.now() + SimDuration::from_millis(5), peer, dst, 64, 1);
    net.run_for(SimDuration::from_secs(1));
    let learned_before = net.host(peer).localnet().lookup(dst).expect("cached");
    // Force the host onto its alternate port.
    let primary = net.topology().host(h).primary.switch;
    net.schedule_switch_down(net.now() + SimDuration::from_millis(10), primary);
    net.run_for(SimDuration::from_secs(12));
    let addr_after = net.host(h).short_address().expect("re-learned");
    assert_ne!(addr_after, learned_before);
    // The peer's cache was updated by the gratuitous ARP (it may since
    // have gone stale, but it must not still hold the dead address).
    let cached = net.host(peer).localnet().lookup(dst).expect("still cached");
    assert_eq!(cached, addr_after, "peer must track the new address");
    // And a fresh send is unicast straight to the new address.
    let unicast_before = net.host(peer).localnet_stats().unicast_sent;
    net.schedule_host_send(net.now() + SimDuration::from_millis(5), peer, dst, 64, 2);
    net.run_for(SimDuration::from_secs(1));
    assert!(net.deliveries().iter().any(|d| d.tag == 2 && d.host == h));
    assert!(net.host(peer).localnet_stats().unicast_sent > unicast_before);
}

#[test]
fn gratuitous_arps_prime_every_cache_at_bring_up() {
    // When a host learns its address it broadcasts an ARP reply, so by the
    // time the network settles every host already knows every other —
    // first contact goes out unicast with no broadcast fallback at all.
    let mut net = ready_network(71);
    let a = HostId(0);
    let b = HostId(2);
    let dst = net.topology().host(b).uid;
    assert!(
        net.host(a).localnet().lookup(dst).is_some(),
        "cache must be primed by b's gratuitous ARP"
    );
    net.schedule_host_send(net.now() + SimDuration::from_millis(5), a, dst, 64, 1);
    net.schedule_host_send(net.now() + SimDuration::from_secs(1), a, dst, 64, 2);
    net.run_for(SimDuration::from_secs(2));
    let s = net.host(a).localnet_stats();
    assert_eq!(s.broadcast_fallback_sent, 0, "no broadcast data needed");
    assert!(s.unicast_sent >= 2);
    let delivered: Vec<_> = net.deliveries().iter().filter(|d| d.host == b).collect();
    assert_eq!(delivered.len(), 2);
}

#[test]
fn dead_destination_falls_back_to_broadcast_after_arp_timeout() {
    let mut net = ready_network(73);
    let a = HostId(0);
    let b = HostId(2);
    let dst = net.topology().host(b).uid;
    // Learn b's address.
    net.schedule_host_send(net.now() + SimDuration::from_millis(5), a, dst, 64, 1);
    net.run_for(SimDuration::from_secs(1));
    assert!(net.host(a).localnet().lookup(dst).is_some());
    // Kill both of b's links: b is unreachable.
    let t = net.now() + SimDuration::from_millis(10);
    net.schedule_host_link_down(t, b, 0);
    net.schedule_host_link_down(t, b, 1);
    // Send again (entry now stale -> ARP rides along, gets no answer).
    net.schedule_host_send(net.now() + SimDuration::from_secs(3), a, dst, 64, 2);
    net.run_for(SimDuration::from_secs(6));
    // The unanswered ARP reset the cache entry to broadcast.
    assert_eq!(
        net.host(a).localnet().lookup(dst),
        Some(autonet::wire::ShortAddress::BROADCAST_HOSTS),
        "entry must decay to broadcast when the peer is gone"
    );
    // Repair b's primary cable. 15 s covers the driver's 10 s retry of the
    // still-dead alternate (§6.8.3) before it settles back on port 0.
    net.schedule_host_link_up(net.now() + SimDuration::from_millis(10), b, 0);
    net.run_for(SimDuration::from_secs(15));
    assert_eq!(net.host(b).active_port(), 0);
    net.schedule_host_send(net.now() + SimDuration::from_millis(5), a, dst, 64, 3);
    net.run_for(SimDuration::from_secs(1));
    assert!(
        net.deliveries().iter().any(|d| d.tag == 3 && d.host == b),
        "a frame sent after the repair must reach b"
    );
    let b_address = net.host(b).short_address().expect("b is addressed again");
    assert_eq!(
        net.host(a).localnet().lookup(dst),
        Some(b_address),
        "a must re-learn b's address"
    );
}

#[test]
fn single_failure_never_disconnects_any_host() {
    // The availability claim of §3.9, checked for every single-switch
    // failure in the ring: every host can still be reached by someone.
    for victim in 0..4usize {
        let mut net = ready_network(80 + victim as u64);
        let crash_at = net.now() + SimDuration::from_millis(10);
        net.schedule_switch_down(crash_at, SwitchId(victim));
        net.run_for(SimDuration::from_secs(15));
        let _ = net.run_until_stable(net.now() + SimDuration::from_secs(30));
        // Every host sends to its ring-neighbor host; every frame must
        // arrive (all hosts still attached via primary or alternate).
        let n = net.topology().num_hosts();
        let t0 = net.now() + SimDuration::from_millis(100);
        for i in 0..n {
            let dst = net.topology().host(HostId((i + 1) % n)).uid;
            net.schedule_host_send(t0, HostId(i), dst, 64, 1000 + i as u64);
        }
        net.run_for(SimDuration::from_secs(5));
        for i in 0..n {
            assert!(
                net.deliveries().iter().any(|d| d.tag == 1000 + i as u64),
                "victim {victim}: frame from host {i} lost"
            );
        }
    }
}

//! Integration: routes computed by the control plane drive the
//! slot-accurate datapath. Up\*/down\* tables deliver everything without
//! deadlock where cyclically-dependent routes wedge the fabric solid.

use std::collections::BTreeMap;

use autonet::autopilot::{compute_forwarding_table, global_from_view_simple, RouteKind};
use autonet::switch::datapath::{DatapathConfig, DatapathSim, DpHostId, DpSwitchId, RunOutcome};
use autonet::switch::{ForwardingEntry, PortSet};
use autonet::topo::{gen, SwitchId, Topology};
use autonet::wire::{ShortAddress, Uid};

/// Builds a slot-level datapath from a topology (hosts on their primary
/// attachments) with tables computed by the control-plane algorithm.
/// Returns the sim plus each host's (id, short address).
fn datapath_with_computed_tables(
    topo: &Topology,
    config: DatapathConfig,
) -> (DatapathSim, Vec<(DpHostId, ShortAddress)>) {
    let global = global_from_view_simple(&topo.view_all()).expect("non-empty topology");
    let mut sim = DatapathSim::new(config);
    let sw: Vec<DpSwitchId> = topo.switch_ids().map(|_| sim.add_switch()).collect();
    // Wire trunk links with their real latencies.
    for lid in topo.link_ids() {
        let spec = topo.link(lid);
        if spec.is_loopback() {
            continue;
        }
        sim.connect_switches(
            sw[spec.a.switch.0],
            spec.a.port,
            sw[spec.b.switch.0],
            spec.b.port,
            spec.timing.latency_slots().max(1) as usize,
        );
    }
    // Hosts on their primary ports.
    let mut hosts = Vec::new();
    for hid in topo.host_ids() {
        let spec = topo.host(hid);
        let h = sim.add_host();
        sim.connect_host(h, sw[spec.primary.switch.0], spec.primary.port, 7);
        let num = global
            .number_of(topo.switch(spec.primary.switch).uid)
            .expect("numbered");
        hosts.push((h, ShortAddress::assigned(num, spec.primary.port)));
    }
    // Load the control plane's tables, with primary host ports live.
    let live: BTreeMap<SwitchId, Vec<u8>> = topo
        .switch_ids()
        .map(|s| {
            (
                s,
                topo.hosts_at(s)
                    .filter(|(_, _, alt)| !alt)
                    .map(|(p, _, _)| p)
                    .collect(),
            )
        })
        .collect();
    for s in topo.switch_ids() {
        let uid = topo.switch(s).uid;
        let table = compute_forwarding_table(&global, uid, &live[&s], RouteKind::UpDown)
            .expect("switch in topology");
        *sim.table_mut(sw[s.0]) = table;
    }
    (sim, hosts)
}

/// A topology for the datapath tests: a 3x3 torus with one single-homed
/// host per switch.
fn torus_with_hosts(seed: u64) -> Topology {
    let mut topo = gen::torus(3, 3, seed);
    for s in 0..9 {
        let suid = 0x10_0000 + s as u64;
        topo.attach_host(Uid::new(0xBEEF_0000 + suid), SwitchId(s), None)
            .expect("port available");
    }
    topo
}

#[test]
fn computed_updown_tables_deliver_all_pairs() {
    let topo = torus_with_hosts(3);
    let (mut sim, hosts) = datapath_with_computed_tables(&topo, DatapathConfig::default());
    // Every host sends one packet to every other host.
    let mut expected = 0;
    for (i, &(h, _)) in hosts.iter().enumerate() {
        for (j, &(_, addr)) in hosts.iter().enumerate() {
            if i != j {
                sim.send(h, addr, 200, false);
                expected += 1;
            }
        }
    }
    let outcome = sim.run_until_drained(30_000_000, 50_000);
    assert_eq!(outcome, RunOutcome::Drained);
    assert_eq!(sim.deliveries().len(), expected);
    assert_eq!(sim.stats().discarded, 0, "no packet may fall off a route");
    assert_eq!(sim.stats().fifo_overflows, 0);
}

#[test]
fn heavy_updown_traffic_never_deadlocks() {
    // Long packets, all-pairs, limited buffering: the stress pattern that
    // wedges cyclic routes. Up*/down* must drain it.
    let topo = torus_with_hosts(5);
    let (mut sim, hosts) = datapath_with_computed_tables(&topo, DatapathConfig::default());
    for round in 0..3 {
        for (i, &(h, _)) in hosts.iter().enumerate() {
            let j = (i + 1 + round) % hosts.len();
            if j != i {
                sim.send(h, hosts[j].1, 4000, false);
            }
        }
    }
    let outcome = sim.run_until_drained(80_000_000, 100_000);
    assert_eq!(outcome, RunOutcome::Drained);
    assert_eq!(sim.stats().discarded, 0);
}

#[test]
fn cyclic_routes_deadlock_on_a_ring_where_updown_does_not() {
    // Hand-built clockwise routes on a 4-ring: every packet takes two
    // clockwise hops. The channel-dependency cycle wedges for real once
    // packets are longer than the buffering.
    fn build(clockwise: bool) -> (DatapathSim, Vec<(DpHostId, ShortAddress)>) {
        let mut topo = gen::ring(4, 0);
        for s in 0..4 {
            topo.attach_host(Uid::new(0xCAFE + s as u64), SwitchId(s), None)
                .expect("port");
        }
        if !clockwise {
            let (sim, hosts) = datapath_with_computed_tables(&topo, DatapathConfig::default());
            return (sim, hosts);
        }
        // Manual clockwise tables. Ring links from gen::ring: link i joins
        // switch i (port 2 for i>0, port 1 for i=0... ports assigned in
        // creation order), so derive ports from the topology itself.
        let mut sim = DatapathSim::new(DatapathConfig::default());
        let sw: Vec<DpSwitchId> = (0..4).map(|_| sim.add_switch()).collect();
        for lid in topo.link_ids() {
            let spec = topo.link(lid);
            sim.connect_switches(
                sw[spec.a.switch.0],
                spec.a.port,
                sw[spec.b.switch.0],
                spec.b.port,
                7,
            );
        }
        let mut hosts = Vec::new();
        for hid in topo.host_ids() {
            let spec = topo.host(hid);
            let h = sim.add_host();
            sim.connect_host(h, sw[spec.primary.switch.0], spec.primary.port, 7);
            hosts.push((
                h,
                ShortAddress::assigned(spec.primary.switch.0 as u16 + 1, spec.primary.port),
            ));
        }
        // Clockwise next hop: the port on switch i leading to (i+1) % 4.
        let next_port = |i: usize| -> u8 {
            let view = topo.view_all();
            let port = view
                .neighbors(SwitchId(i))
                .find(|(_, _, far)| far.switch.0 == (i + 1) % 4)
                .map(|(p, _, _)| p)
                .expect("ring neighbor");
            port
        };
        for i in 0..4 {
            let dest_two_away = hosts[(i + 2) % 4].1;
            let dest_one_away = hosts[(i + 1) % 4].1;
            // From the host port: clockwise out.
            let host_port = topo.host(autonet::topo::HostId(i)).primary.port;
            for dst in [dest_two_away, dest_one_away] {
                sim.table_mut(sw[i]).set(
                    host_port,
                    dst,
                    ForwardingEntry::alternatives(PortSet::single(next_port(i))),
                );
            }
            // Transit: packets for the local host deliver; others continue
            // clockwise.
            let in_port = next_port((i + 3) % 4); // The port facing i-1 is
                                                  // where clockwise traffic
                                                  // arrives... derive below.
            let _ = in_port;
            for j in 0..4 {
                if j == i {
                    continue;
                }
                let arrive_port = topo
                    .view_all()
                    .neighbors(SwitchId(i))
                    .find(|(_, _, far)| far.switch.0 == (i + 3) % 4)
                    .map(|(p, _, _)| p)
                    .expect("ccw neighbor");
                if hosts[i].1 == hosts[j].1 {
                    continue;
                }
                // Transit packets continue clockwise.
                let entry = ForwardingEntry::alternatives(PortSet::single(next_port(i)));
                sim.table_mut(sw[i]).set(arrive_port, hosts[j].1, entry);
            }
            // Local delivery from the ring.
            let arrive_port = topo
                .view_all()
                .neighbors(SwitchId(i))
                .find(|(_, _, far)| far.switch.0 == (i + 3) % 4)
                .map(|(p, _, _)| p)
                .expect("ccw neighbor");
            sim.table_mut(sw[i]).set(
                arrive_port,
                hosts[i].1,
                ForwardingEntry::alternatives(PortSet::single(
                    topo.host(autonet::topo::HostId(i)).primary.port,
                )),
            );
        }
        (sim, hosts)
    }

    // Clockwise: all four hosts send 12 KB two hops clockwise at once.
    let (mut sim, hosts) = build(true);
    for i in 0..4 {
        sim.send(hosts[i].0, hosts[(i + 2) % 4].1, 12_000, false);
    }
    let outcome = sim.run_until_drained(10_000_000, 20_000);
    assert_eq!(
        outcome,
        RunOutcome::Deadlocked,
        "cyclic clockwise routes must wedge"
    );

    // Same offered pattern under computed up*/down* tables: drains.
    let (mut sim, hosts) = build(false);
    for i in 0..4 {
        sim.send(hosts[i].0, hosts[(i + 2) % 4].1, 12_000, false);
    }
    let outcome = sim.run_until_drained(10_000_000, 20_000);
    assert_eq!(outcome, RunOutcome::Drained);
    assert_eq!(sim.deliveries().len(), 4);
}

#[test]
fn broadcast_tables_flood_every_host_exactly_once() {
    let topo = torus_with_hosts(7);
    let (mut sim, hosts) = datapath_with_computed_tables(&topo, DatapathConfig::default());
    sim.send(hosts[4].0, ShortAddress::BROADCAST_HOSTS, 300, true);
    let outcome = sim.run_until_drained(30_000_000, 50_000);
    assert_eq!(outcome, RunOutcome::Drained);
    let mut seen = std::collections::BTreeMap::new();
    for d in sim.deliveries() {
        *seen.entry(d.host).or_insert(0u32) += 1;
    }
    assert_eq!(seen.len(), hosts.len(), "all hosts reached: {seen:?}");
    assert!(seen.values().all(|&c| c == 1), "no duplicates: {seen:?}");
}

use std::sync::Arc;

use autonet_core::{
    global_from_view_simple, ControlMsg, Epoch, Event, GlobalTopology, ReconfigCause, RouteCache,
};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{gen, HostId, LinkId, SwitchId, Topology};
use autonet_wire::Bytes;

use super::{DeliveryRecord, Driver, HandlerProfile, Net, NetWorld, Network, PartitionedNetwork};
use crate::params::NetParams;

fn stable<D: Driver>(mut net: Net<D>) -> Net<D> {
    let done = net.run_until_stable(SimTime::from_secs(30));
    assert!(done.is_some(), "network failed to converge");
    net
}

fn stable_net(topo: Topology, seed: u64) -> Network {
    stable(Network::new(topo, NetParams::tuned(), seed))
}

/// The same bring-up on the sharded kernel, two partitions.
fn stable_sharded(topo: Topology, seed: u64) -> PartitionedNetwork {
    stable(PartitionedNetwork::new(topo, NetParams::tuned(), seed, 2))
}

#[test]
fn line_converges_and_matches_reference() {
    let net = stable_net(gen::line(4, 42), 1);
    net.check_against_reference().expect("reference match");
}

/// On a network that has not settled, a zero step would poll forever at
/// the same instant.
#[test]
#[should_panic(expected = "a zero polling step never advances the clock")]
fn a_zero_polling_step_is_refused() {
    let mut net = Network::new(gen::line(4, 42), NetParams::tuned(), 1);
    net.run_until_stable_every(SimDuration::ZERO, SimTime::from_secs(1));
}

fn torus_matches_reference<D: Driver>(net: Net<D>) {
    net.check_against_reference().expect("reference match");
    // Every switch has 4 good ports on a 4x4 torus.
    for s in net.topology().switch_ids() {
        assert_eq!(net.autopilot(s).good_ports().len(), 4);
    }
    // Bring-up leaves trace records from every switch.
    let nodes: std::collections::BTreeSet<usize> =
        net.merged_trace().iter().map(|r| r.node).collect();
    assert_eq!(nodes.len(), 16);
}

#[test]
fn torus_converges() {
    torus_matches_reference(stable_net(gen::torus(4, 4, 7), 2));
    torus_matches_reference(stable_sharded(gen::torus(4, 4, 7), 2));
}

fn counters_add_up<D: Driver>(mut net: Net<D>) {
    net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(0));
    net.run_for(SimDuration::from_millis(500));
    let by_kind = net.events_by_kind();
    assert_eq!(
        by_kind.iter().map(|&(_, n)| n).sum::<u64>(),
        net.events_processed()
    );
    let of = |kind| by_kind.iter().find(|&&(k, _)| k == kind).unwrap().1;
    assert_eq!(of("SwitchBoot"), 16);
    assert!(of("SwitchCpuDone") > 0 && of("ProbeTick") == 0);
    // Every reconfiguration message was charged to the control processor
    // first, and every epoch was joined by message at the other switches.
    let msgs = net.reconfig_msgs();
    assert!(msgs.total() > 0 && msgs.total() <= of("SwitchCpuDone"));
    assert!(msgs.joined >= 15 && msgs.current > msgs.joined);
    // Every traced `reconfig-triggered` is one epoch in its cause's slot,
    // each join among them one joining message.
    let trace = net.merged_trace();
    let by_cause = net.epochs_by_cause();
    for &(cause, n) in &by_cause {
        let traced = trace
            .iter()
            .filter(|r| matches!(r.event, Event::ReconfigTriggered { cause: c, .. } if c == cause));
        assert_eq!(traced.count() as u64, n, "{cause}");
    }
    assert_eq!(by_cause[ReconfigCause::Boot as usize].1, 16);
    assert_eq!(
        by_cause[ReconfigCause::EpochMessage as usize].1,
        msgs.joined
    );
}

#[test]
fn event_and_message_counters_add_up_on_both_kernels() {
    counters_add_up(stable_net(gen::torus(4, 4, 7), 2));
    counters_add_up(stable_sharded(gen::torus(4, 4, 7), 2));
}

/// Lets the hosts learn their addresses, then sends one tagged frame
/// from host 0 to host 1.
fn exchange<D: Driver>(mut net: Net<D>) -> Net<D> {
    let h0 = HostId(0);
    let h1 = HostId(1);
    // Hosts poll the switch for addresses on their own (slower)
    // cadence; give them a few liveness rounds.
    net.run_for(SimDuration::from_secs(3));
    assert!(net.host(h0).short_address().is_some());
    assert!(net.host(h1).short_address().is_some());
    let dst = net.topology().host(h1).uid;
    let t0 = net.now();
    net.schedule_host_send(t0 + SimDuration::from_millis(10), h0, dst, 256, 99);
    net.run_for(SimDuration::from_secs(1));
    net
}

#[test]
fn hosts_learn_addresses_and_exchange_data() {
    let mut topo = gen::line(2, 0);
    gen::add_dual_homed_hosts(&mut topo, 1, 3);
    let delivered_once = |deliveries: &[DeliveryRecord]| {
        let d: Vec<_> = deliveries.iter().filter(|d| d.tag == 99).collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, HostId(1));
    };
    delivered_once(exchange(stable_net(topo.clone(), 3)).deliveries());
    delivered_once(&exchange(stable_sharded(topo, 3)).deliveries());
}

#[test]
fn link_failure_triggers_reconfiguration_and_reroutes() {
    let mut topo = gen::ring(4, 5);
    gen::add_dual_homed_hosts(&mut topo, 1, 9);
    let mut net = stable_net(topo, 4);
    let epoch_before = net.autopilot(SwitchId(0)).epoch();
    // Fail one ring link; the ring still connects everything.
    let t = net.now() + SimDuration::from_millis(50);
    net.schedule_link_down(t, LinkId(0));
    net.run_for(SimDuration::from_millis(100)); // Let the fault land.
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(30));
    assert!(done.is_some(), "must reconverge after link failure");
    assert!(net.autopilot(SwitchId(0)).epoch() > epoch_before);
    net.check_against_reference()
        .expect("reference match after failure");
    // Data still flows between hosts on opposite sides.
    let h0 = HostId(0);
    let h2 = HostId(2);
    let dst = net.topology().host(h2).uid;
    let sent_at = net.now() + SimDuration::from_millis(10);
    net.schedule_host_send(sent_at, h0, dst, 128, 7);
    net.run_for(SimDuration::from_secs(1));
    assert!(net.deliveries().iter().any(|d| d.tag == 7 && d.host == h2));
}

#[test]
fn partition_forms_two_networks() {
    // A line cut in the middle partitions into two halves, each of
    // which must configure itself.
    let topo = gen::line(4, 0);
    let mut net = stable_net(topo, 5);
    let cut = LinkId(1); // Between switches 1 and 2.
    let t = net.now() + SimDuration::from_millis(50);
    net.schedule_link_down(t, cut);
    net.run_for(SimDuration::from_millis(100));
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(30));
    assert!(done.is_some(), "both partitions must stabilize");
    let g0 = net.autopilot(SwitchId(0)).global().unwrap();
    let g3 = net.autopilot(SwitchId(3)).global().unwrap();
    assert_eq!(g0.switches.len(), 2);
    assert_eq!(g3.switches.len(), 2);
    assert_ne!(g0.root, g3.root);
    // Healing merges them again.
    let t2 = net.now() + SimDuration::from_millis(50);
    net.schedule_link_up(t2, cut);
    net.run_for(SimDuration::from_millis(100));
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(30));
    assert!(done.is_some(), "healed network must stabilize");
    assert_eq!(
        net.autopilot(SwitchId(0)).global().unwrap().switches.len(),
        4
    );
}

#[test]
fn switch_crash_and_reboot() {
    let topo = gen::ring(4, 11);
    let mut net = stable_net(topo, 6);
    let victim = SwitchId(2);
    let t = net.now() + SimDuration::from_millis(50);
    net.schedule_switch_down(t, victim);
    net.run_for(SimDuration::from_millis(100));
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(30));
    assert!(done.is_some());
    let g = net.autopilot(SwitchId(0)).global().unwrap();
    assert_eq!(
        g.switches.len(),
        3,
        "survivors configure without the victim"
    );
    // Power it back on.
    let t2 = net.now() + SimDuration::from_millis(50);
    net.schedule_switch_up(t2, victim);
    net.run_for(SimDuration::from_millis(100));
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(60));
    assert!(done.is_some());
    assert_eq!(
        net.autopilot(SwitchId(0)).global().unwrap().switches.len(),
        4
    );
}

#[test]
fn broadcast_reaches_all_hosts() {
    let mut topo = gen::line(3, 0);
    gen::add_dual_homed_hosts(&mut topo, 1, 13);
    let mut net = stable_net(topo, 7);
    let t = net.now() + SimDuration::from_millis(10);
    net.schedule_host_send(t, HostId(0), autonet_host::BROADCAST_UID, 64, 55);
    net.run_for(SimDuration::from_secs(1));
    let receivers: std::collections::BTreeSet<HostId> = net
        .deliveries()
        .iter()
        .filter(|d| d.tag == 55)
        .map(|d| d.host)
        .collect();
    // Flooding reaches every host port exactly once each, including
    // the sender's own.
    assert_eq!(receivers.len(), 3, "{receivers:?}");
}

#[test]
fn probes_measure_steady_service_and_cut_blackouts() {
    let mut topo = gen::ring(4, 5);
    gen::add_dual_homed_hosts(&mut topo, 1, 9);
    let mut net = stable_net(topo, 8);
    // Let hosts learn their short addresses before probing starts.
    net.run_for(SimDuration::from_secs(3));
    assert!(net.probe_records().is_empty(), "probes are opt-in");
    // The tuned protocol reconverges in a few milliseconds on this ring,
    // so probe faster than the blackout is long.
    let interval = SimDuration::from_millis(2);
    net.start_probes(&[(HostId(0), HostId(2)), (HostId(2), HostId(0))], interval);
    net.run_for(SimDuration::from_secs(2));
    let steady = net.probe_records().len();
    assert!(steady >= 1500, "two flows at 500 Hz for 2 s: {steady}");
    let delivered = net
        .probe_records()
        .iter()
        .filter(|p| p.delivered.is_some())
        .count();
    assert!(
        delivered * 100 >= steady * 95,
        "steady state delivers probes: {delivered}/{steady}"
    );
    // Probe traffic stays out of the workload accounting.
    assert!(net.deliveries().iter().all(|d| d.tag >> 63 == 0));

    // Cut a ring link and let the network reconverge and hosts relearn.
    let t = net.now() + SimDuration::from_millis(50);
    net.schedule_link_down(t, LinkId(0));
    net.run_for(SimDuration::from_millis(100));
    assert!(net
        .run_until_stable(net.now() + SimDuration::from_secs(30))
        .is_some());
    net.run_for(SimDuration::from_secs(5));

    let timeline = autonet_trace::Timeline::build(net.trace_log().records());
    let report = autonet_trace::InterruptionReport::build(
        &net.probe_pairs(),
        net.probe_records(),
        &timeline,
        net.now(),
        autonet_trace::InterruptionConfig {
            interval,
            min_run: 2,
        },
    );
    let windows: Vec<_> = report.windows().collect();
    assert!(
        !windows.is_empty(),
        "a cut link must interrupt service: {report}"
    );
    for w in &windows {
        assert!(w.start <= w.end);
        assert!(
            w.epoch.is_some(),
            "every blackout is explained by a reconfiguration: {w:?}"
        );
        assert!(w.restored, "service comes back after reconvergence: {w:?}");
    }
}

/// A world to drive the held flood by hand, its topology's flood content,
/// and that content as the `TopologyDown` of a given epoch.
fn flood_world() -> (NetWorld, GlobalTopology) {
    let cache = Arc::new(RouteCache::new());
    let (w, _) = NetWorld::build(gen::torus(3, 3, 5), NetParams::tuned(), 1, cache);
    let global = global_from_view_simple(&w.topo.view_all()).expect("non-empty");
    (w, global)
}

fn down(global: &GlobalTopology, epoch: u64) -> ControlMsg {
    let epoch = Epoch(epoch);
    let global = GlobalTopology {
        epoch,
        ..global.clone()
    };
    ControlMsg::TopologyDown { epoch, global }
}

#[test]
fn held_flood_misses_on_a_payload_one_byte_off() {
    let (mut w, g) = flood_world();
    let first = w.encode(&down(&g, 3));
    assert_eq!(w.decode(&first), Some(down(&g, 3)));
    // A copy of the bytes in another buffer is still the held flood.
    assert_eq!(w.decode(&Bytes::copy_from_slice(&first)), Some(down(&g, 3)));
    assert_eq!((w.stats.topology_encoded, w.stats.topology_decoded), (1, 0));
    // The next epoch's flood of the same topology: same length, one byte.
    let next = Bytes::from(down(&g, 4).encode());
    let differing = first.iter().zip(next.iter()).filter(|(a, b)| a != b);
    assert_eq!((first.len(), differing.count()), (next.len(), 1));
    assert_eq!(w.decode(&next), Some(down(&g, 4)), "its own epoch");
    assert_eq!(w.stats.topology_decoded, 1);
    // The single entry now holds epoch 4, so epoch 3 is a miss in turn —
    // and a send of the decoded message reuses the arriving bytes.
    let held = w.decode(&next).expect("held");
    assert_eq!(w.stats.topology_decoded, 1);
    assert!(std::ptr::eq(w.encode(&held).as_ptr(), next.as_ptr()));
    assert_eq!(w.decode(&first), Some(down(&g, 3)));
    assert_eq!((w.stats.topology_encoded, w.stats.topology_decoded), (1, 2));
    // Other messages, and bytes that are no message, never touch it.
    let ack = ControlMsg::TopologyDownAck { epoch: Epoch(3) };
    let ack_bytes = w.encode(&ack);
    assert_eq!(w.decode(&ack_bytes), Some(ack));
    assert_eq!(w.decode(&Bytes::from(vec![200u8])), None);
    assert_eq!(w.stats.topology_sent, 2);
}

#[test]
fn held_flood_misses_on_a_topology_edited_through_make_mut() {
    let (mut w, g) = flood_world();
    let first = w.encode(&down(&g, 3));
    assert!(std::ptr::eq(
        w.encode(&down(&g, 3)).as_ptr(),
        first.as_ptr()
    ));
    // The world holds a clone, so `make_mut` copies: the edit lands in a
    // new allocation and the held one keeps the content it was encoded from.
    let mut edited = g.clone();
    let before = Arc::as_ptr(&edited.switches);
    Arc::make_mut(&mut edited.switches)[0].proposed_number += 1;
    assert_ne!(before, Arc::as_ptr(&edited.switches));
    let msg = down(&edited, 3);
    let payload = w.encode(&msg);
    assert_eq!(payload, msg.encode());
    assert_ne!(payload, first);
    assert_eq!((w.stats.topology_sent, w.stats.topology_encoded), (3, 2));
}

#[test]
fn two_components_flooding_alternately_converge() {
    // A ring cut into two halves at one instant: both halves reconfigure
    // at once, their floods interleave, and the single held entry thrashes
    // between two topologies. It may miss; it must never serve one half
    // the other's flood.
    let mut net = stable_net(gen::ring(16, 5), 4);
    let before = net.stats();
    assert_eq!(before.topology_decoded, 0, "one component never decodes");
    let t = net.now() + SimDuration::from_millis(50);
    net.schedule_link_down(t, LinkId(0));
    net.schedule_link_down(t, LinkId(8));
    net.run_for(SimDuration::from_millis(100));
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(30));
    assert!(done.is_some(), "both halves must stabilize");
    net.check_against_reference().expect("reference match");
    let roots: std::collections::BTreeSet<_> = net
        .topology()
        .switch_ids()
        .map(|s| {
            let g = net.autopilot(s).global().expect("configured");
            assert_eq!(g.switches.len(), 8);
            assert!(g.switch(net.autopilot(s).uid()).is_some());
            g.root
        })
        .collect();
    assert_eq!(roots.len(), 2);
    let after = net.stats();
    assert!(
        after.topology_decoded > 0,
        "the halves displaced each other"
    );
}

/// Every switch's timer bound travels with a fork, and the fork runs
/// exactly the ticks and rounds the original runs; on a settled network
/// that is few of the grids' instants.
#[test]
fn timer_bounds_survive_a_fork() {
    let mut net = stable_net(gen::torus(3, 3, 5), 2);
    let mut fork = net.clone();
    let due = |net: &Network| -> Vec<SimTime> {
        let pool = &net.sim.world().switches;
        (0..pool.len())
            .map(|s| pool.autopilot(s).timer_due())
            .collect()
    };
    let rounds = |net: &Network| net.events_by_kind()[2];
    assert_eq!(due(&fork), due(&net));
    assert!(due(&net).iter().all(|&t| t > net.now()), "{:?}", due(&net));
    let (before, offered) = (net.stats(), rounds(&net).1);
    for n in [&mut net, &mut fork] {
        n.run_for(SimDuration::from_secs(1));
    }
    assert_eq!(due(&fork), due(&net));
    assert_eq!(fork.stats().ticks_run, net.stats().ticks_run);
    assert_eq!(fork.stats().samples_run, net.stats().samples_run);
    assert_eq!(fork.events_by_kind(), net.events_by_kind());
    // Nine switches on a 1.2 ms grid for a second.
    let (run, offered_ticks) = (net.stats().ticks_run - before.ticks_run, 9 * 833);
    assert!(
        run * 10 < offered_ticks,
        "{run} of ~{offered_ticks} ticks ran"
    );
    // And on the 5 ms sampling grid, whose events all stay.
    let (kind, n) = rounds(&net);
    assert_eq!(kind, "SwitchSample");
    let (run, offered) = (net.stats().samples_run - before.samples_run, n - offered);
    assert!(run * 10 < offered, "{run} of {offered} rounds ran");
}

/// A switch power-cycled within one sampling interval reboots with one
/// timer chain: the crashed incarnation's pending ticks and sample are
/// dropped when they come due instead of rescheduling beside the new
/// boot's. Samples stay on their grid, so the cycled window holds at most
/// one more than a clean one. Ticks follow the Autopilot's timers, so the
/// reboot's own bring-up arms more; the stale ones are exactly those the
/// crashed incarnation left queued (counted on a fork where it never
/// comes back), and they stop.
#[test]
fn a_quick_power_cycle_leaves_one_timer_chain() {
    let net = stable_net(gen::ring(4, 5), 3);
    // A 600 ms window's sample events and stale tick drops; every tick
    // event of it ran or was superseded.
    let window = |n: &mut Network| {
        let (before, stats) = (n.events_by_kind(), n.stats());
        n.run_for(SimDuration::from_millis(600));
        let (after, now) = (n.events_by_kind(), n.stats());
        let of = |kind| {
            let n = |v: &[(&str, u64)]| v.iter().find(|&&(k, _)| k == kind).unwrap().1;
            n(&after) - n(&before)
        };
        let handled = now.ticks_run + now.ticks_superseded;
        assert_eq!(
            of("SwitchTick"),
            handled - stats.ticks_run - stats.ticks_superseded
        );
        (of("SwitchSample"), now.ticks_stale - stats.ticks_stale)
    };
    let (clean, stale) = window(&mut net.clone());
    assert_eq!(stale, 0);
    let t = net.now() + SimDuration::from_millis(1);
    let mut crashed = net.clone();
    crashed.schedule_switch_down(t, SwitchId(1));
    let (_, left) = window(&mut crashed);
    assert!(left > 0, "the crash left no tick queued");
    assert_eq!(window(&mut crashed).1, 0, "the stale ticks went on");
    for gap in [SimDuration::ZERO, SimDuration::from_micros(500)] {
        let mut cycled = net.clone();
        cycled.schedule_switch_down(t, SwitchId(1));
        cycled.schedule_switch_up(t + gap, SwitchId(1));
        let (samples, stale) = window(&mut cycled);
        assert_eq!(stale, left, "{gap:?}: {stale} stale ticks, {left} left");
        assert_eq!(window(&mut cycled).1, 0, "{gap:?}: the stale ticks went on");
        // One stale sample comes due, and stops there.
        assert!(
            samples <= clean + 1,
            "{gap:?}: {samples} samples, {clean} clean"
        );
    }
}

/// A fork shares every installed table with the original until a switch
/// of one side installs a new one; the other side's tables never change.
#[test]
fn a_fork_shares_installed_tables_until_one_is_written() {
    let net = stable_net(gen::ring(6, 3), 2);
    let mut fork = net.clone();
    let ids: Vec<SwitchId> = net.topology().switch_ids().collect();
    let shared = |a: &Network, b: &Network| {
        ids.iter()
            .filter(|&&s| a.forwarding_table(s).same_image(b.forwarding_table(s)))
            .count()
    };
    assert_eq!(shared(&net, &fork), ids.len());
    let before: Vec<u64> = ids
        .iter()
        .map(|&s| net.forwarding_table(s).canonical_digest())
        .collect();
    let t = fork.now() + SimDuration::from_millis(1);
    fork.schedule_link_down(t, LinkId(0));
    fork.run_for(SimDuration::from_millis(100));
    assert!(fork
        .run_until_stable(fork.now() + SimDuration::from_secs(30))
        .is_some());
    fork.check_against_reference()
        .expect("the fork reconverged");
    assert!(
        shared(&net, &fork) < ids.len(),
        "the cut reinstalled tables"
    );
    let after: Vec<u64> = ids
        .iter()
        .map(|&s| net.forwarding_table(s).canonical_digest())
        .collect();
    assert_eq!(
        before, after,
        "the original saw none of the fork's installs"
    );
    net.check_against_reference()
        .expect("the original is untouched");
}

/// The reference audit covers every physical component, each against its
/// own root: after a ring is cut in two, an emptied installed table is
/// caught in either half, not only in the half holding the smallest UID.
#[test]
fn the_reference_audit_covers_every_component() {
    let mut net = stable_net(gen::ring(6, 3), 2);
    let t = net.now() + SimDuration::from_millis(1);
    net.schedule_link_down(t, LinkId(0));
    net.schedule_link_down(t, LinkId(3));
    net.run_for(SimDuration::from_millis(100));
    assert!(net
        .run_until_stable(net.now() + SimDuration::from_secs(30))
        .is_some());
    net.check_against_reference()
        .expect("both halves converged");
    let view = net.sim.world().physical_view();
    let components = autonet_topo::connected_components(&view);
    assert_eq!(components.len(), 2);
    for component in &components {
        let s = *component.last().expect("non-empty");
        assert!(net.autopilot(s).is_open());
        let mut emptied = net.clone();
        emptied.sim.world_mut().switches.table[s.0] = autonet_switch::ForwardingTable::new();
        let err = emptied
            .check_against_reference()
            .expect_err("an emptied table is caught");
        assert!(
            err.starts_with(&format!("switch {}: installed table", s.0)),
            "{err}"
        );
    }
}

/// With tracing on, one handled event in 1009 is timed, whatever its
/// kind, and each kind's estimate scales its timed mean by its exact
/// count; with tracing off none is.
#[test]
fn handler_profile_times_one_event_in_1009_while_tracing() {
    for tracing in [true, false] {
        let params = NetParams {
            tracing,
            ..NetParams::tuned()
        };
        let mut net = Network::new(gen::ring(4, 5), params, 3);
        net.run_for(SimDuration::from_millis(300));
        let profile = net.handler_profile();
        let events: u64 = profile.iter().map(|p| p.events).sum();
        let timed: u64 = profile.iter().map(|p| p.timed).sum();
        assert_eq!(events, net.events_processed());
        let every = u64::from(HandlerProfile::PROFILE_EVERY);
        assert_eq!(timed, if tracing { events / every } else { 0 });
        assert!(profile.iter().all(|p| p.timed <= p.events));
        let wall: f64 = profile.iter().map(HandlerProfile::wall_s).sum();
        assert_eq!(wall > 0.0, tracing, "{wall}");
    }
}

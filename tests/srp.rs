//! Integration: the source-routed debugging protocol (§6.7) across a real
//! network — including during a reconfiguration, which is the property SRP
//! exists for ("SRP packets continue to work during reconfiguration").

use autonet::autopilot::SrpPayload;
use autonet::net::{Driver, Net, NetParams, Network, PartitionedNetwork};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, LinkId, PortUse, SwitchId};
use autonet::wire::PortIndex;

/// The ports to walk from `from` along a switch path.
fn route_along<D: Driver>(net: &Net<D>, path: &[SwitchId]) -> Vec<PortIndex> {
    let topo = net.topology();
    let mut ports = Vec::new();
    for pair in path.windows(2) {
        let view = topo.view_all();
        let port = view
            .neighbors(pair[0])
            .find(|(_, _, far)| far.switch == pair[1])
            .map(|(p, _, _)| p)
            .expect("adjacent switches");
        ports.push(port);
    }
    ports
}

/// On either kernel; on the sharded one every hop of the line crosses a
/// shard boundary and the replies are read from the shard owning switch 0.
fn multi_hop_ping_and_state_on<D: Driver>(mut net: Net<D>) {
    let far_uid = net.topology().switch(SwitchId(3)).uid;
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    // Ping switch 3 from switch 0, three hops down the line.
    let route = route_along(&net, &[SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3)]);
    assert_eq!(route.len(), 3);
    net.schedule_srp(
        net.now() + SimDuration::from_millis(1),
        SwitchId(0),
        route.clone(),
        SrpPayload::Ping,
    );
    net.schedule_srp(
        net.now() + SimDuration::from_millis(2),
        SwitchId(0),
        route,
        SrpPayload::GetState,
    );
    net.run_for(SimDuration::from_secs(1));
    let replies = net.take_srp_replies(SwitchId(0));
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies
        .iter()
        .any(|r| matches!(r, SrpPayload::Pong { uid, .. } if *uid == far_uid)));
    assert!(replies
        .iter()
        .any(|r| matches!(r, SrpPayload::State { uid, open: true, .. } if *uid == far_uid)));
}

#[test]
fn multi_hop_ping_and_state() {
    let topo = gen::line(4, 0);
    multi_hop_ping_and_state_on(Network::new(topo.clone(), NetParams::tuned(), 3));
    multi_hop_ping_and_state_on(PartitionedNetwork::new(topo, NetParams::tuned(), 3, 4));
}

#[test]
fn srp_works_during_reconfiguration() {
    // Cut a link elsewhere in a ring and immediately ping across a
    // surviving path while the reconfiguration is still in flight.
    let topo = gen::ring(5, 0);
    let mut net = Network::new(topo, NetParams::tuned(), 5);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    let far_uid = net.topology().switch(SwitchId(2)).uid;
    let route = route_along(&net, &[SwitchId(0), SwitchId(1), SwitchId(2)]);
    let t = net.now() + SimDuration::from_millis(5);
    // The failed link is 3-4; the 0-1-2 path is unaffected physically.
    net.schedule_link_down(t, LinkId(3));
    // Fire the ping 2 ms after the fault — inside the reconfiguration
    // window for the tuned preset (~25 ms).
    net.schedule_srp(
        t + SimDuration::from_millis(2),
        SwitchId(0),
        route,
        SrpPayload::Ping,
    );
    net.run_for(SimDuration::from_millis(15));
    // The reply must already be back even though the network is (or was
    // just) closed for host traffic.
    let replies = net.take_srp_replies(SwitchId(0));
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, SrpPayload::Pong { uid, .. } if *uid == far_uid)),
        "{replies:?}"
    );
    net.run_until_stable(net.now() + SimDuration::from_secs(30))
        .expect("reconfiguration completes");
}

#[test]
fn srp_reply_reports_good_ports() {
    let topo = gen::torus(3, 3, 0);
    let mut net = Network::new(topo, NetParams::tuned(), 7);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    // One-hop state query to a neighbor.
    let (port, _, far) = {
        let topo = net.topology();
        let view = topo.view_all();
        let mut it = view.neighbors(SwitchId(0));
        it.next().expect("has neighbors")
    };
    let far_uid = net.topology().switch(far.switch).uid;
    net.schedule_srp(
        net.now() + SimDuration::from_millis(1),
        SwitchId(0),
        vec![port],
        SrpPayload::GetState,
    );
    net.run_for(SimDuration::from_secs(1));
    let replies = net.take_srp_replies(SwitchId(0));
    let state = replies
        .iter()
        .find_map(|r| match r {
            SrpPayload::State {
                uid,
                good_ports,
                open,
                ..
            } if *uid == far_uid => Some((*good_ports, *open)),
            _ => None,
        })
        .expect("state reply");
    assert_eq!(state, (4, true), "a torus switch has 4 good trunk ports");
    // Sanity: the port we used really is a trunk port.
    assert!(matches!(
        net.topology().port_use(SwitchId(0), port),
        PortUse::Link(_)
    ));
}

//! What the scenario engine does to a network, and how it asks whether
//! the network has settled.
//!
//! The engine drives the packet-level [`Net`] facade on either event
//! kernel: it advances virtual time, drains the typed event spine the
//! oracles fold over, applies each [`FaultOp`] through [`apply`], polls
//! [`quiescent`], and ends a run with `Net::check_against_reference`.
//! [`ProbeFlows`] is the one thing only the classic kernel has.

use autonet_net::{Driver, Net, Network, PartitionedNetwork};
use autonet_sim::SimDuration;
use autonet_topo::{HostId, LinkId, NetView, SwitchId, Topology};

use crate::scenario::FaultOp;

/// Links with exactly one end inside `side`.
pub(crate) fn crossing_links(topo: &Topology, side: &[usize]) -> Vec<LinkId> {
    let inside = |s: SwitchId| side.contains(&s.0);
    topo.link_ids()
        .filter(|&l| {
            let spec = topo.link(l);
            !spec.is_loopback() && inside(spec.a.switch) != inside(spec.b.switch)
        })
        .collect()
}

/// The one thing a campaign needs that only the classic kernel has:
/// service-interruption probe flows. The defaults are the sharded
/// kernel's answer.
pub trait ProbeFlows {
    /// Starts probe flows between `pairs` of hosts, one probe per pair
    /// per `interval`.
    ///
    /// # Panics
    ///
    /// Unless overridden: an armed blackout oracle with no probes behind
    /// it would pass vacuously. Run hosted campaigns on the classic
    /// kernel.
    fn start_probes(&mut self, _pairs: &[(HostId, HostId)], _interval: SimDuration) {
        panic!("probes are unsupported in partitioned mode (one network-wide tick)");
    }
    /// The probe ledger so far (empty when probes never started).
    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        Vec::new()
    }
    /// The probed `(src, dst)` host pairs, in pair-index order.
    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

impl ProbeFlows for PartitionedNetwork {}

impl ProbeFlows for Network {
    fn start_probes(&mut self, pairs: &[(HostId, HostId)], interval: SimDuration) {
        Network::start_probes(self, pairs, interval);
    }

    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        Network::probe_records(self).to_vec()
    }

    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        Network::probe_pairs(self)
    }
}

/// Schedules a fault operation on `net` at its current instant.
pub(crate) fn apply<D: Driver>(net: &mut Net<D>, op: &FaultOp, topo: &Topology) {
    let at = net.now();
    match op {
        FaultOp::LinkDown(l) => net.schedule_link_down(at, LinkId(*l)),
        FaultOp::LinkUp(l) => net.schedule_link_up(at, LinkId(*l)),
        FaultOp::SwitchDown(s) => net.schedule_switch_down(at, SwitchId(*s)),
        FaultOp::SwitchUp(s) => net.schedule_switch_up(at, SwitchId(*s)),
        FaultOp::HostPowerOff(h) | FaultOp::HostPowerOn(h) => {
            assert!(
                *h < topo.num_hosts(),
                "scenario addresses host {h} but the topology has {}",
                topo.num_hosts()
            );
            if matches!(op, FaultOp::HostPowerOff(_)) {
                net.schedule_host_power_off(at, HostId(*h));
            } else {
                net.schedule_host_power_on(at, HostId(*h));
            }
        }
        FaultOp::LinkFlaps {
            link,
            half_period_ms,
            cycles,
        } => net.schedule_link_flaps(
            at,
            LinkId(*link),
            SimDuration::from_millis(*half_period_ms),
            *cycles,
        ),
        FaultOp::Partition { side } => {
            for l in crossing_links(topo, side) {
                net.schedule_link_down(at, l);
            }
        }
        FaultOp::Heal { side } => {
            for l in crossing_links(topo, side) {
                net.schedule_link_up(at, l);
            }
        }
        FaultOp::Waypoint { .. } => {}
    }
}

/// Whether the control plane has settled on the engine's mirror of the
/// intended physical state. Settled includes one root per physical
/// component, each switch's agreed topology rooted there: the agreement
/// oracle checks open flags and epochs from the spine and leaves the
/// root to this answer.
pub(crate) fn quiescent<D: Driver>(net: &Net<D>, view: &NetView<'_>) -> bool {
    // The mirror records where the physical state *ends up*; mid-flap
    // the network's truth differs (a flapping link is transiently down,
    // which can partition the network into components that are each
    // internally consistent). Quiescence means the network has settled
    // on the *intended* physical state, so both must agree before the
    // consistency verdict counts.
    let topo = view.topology();
    let switches_match = topo
        .switch_ids()
        .all(|s| net.switch_is_up(s) == view.switch_up(s));
    // `link_usable` folds in endpoint switch state, so raw cable state
    // is only comparable where both ends are up (and never loopback).
    let links_match = topo.link_ids().all(|l| {
        let spec = topo.link(l);
        spec.is_loopback()
            || !view.switch_up(spec.a.switch)
            || !view.switch_up(spec.b.switch)
            || net.link_is_up(l) == view.link_usable(l)
    });
    switches_match && links_match && net.control_plane_consistent()
}

//! The integrated Autonet network simulator.
//!
//! This crate assembles everything below it into a running network:
//! switches (an [`autonet_core::Autopilot`] each, plus the forwarding-table
//! "hardware"), dual-homed hosts ([`autonet_host::HostController`]), and
//! point-to-point links with bandwidth and propagation delay, all driven by
//! the deterministic event loop of [`autonet_sim`]. On top it provides what
//! the experiments need:
//!
//! - construction from any [`autonet_topo::Topology`] ([`Network`]);
//! - a control-processor cost model ([`CpuModel`]) whose presets reproduce
//!   the naive → optimized → tuned performance progression of §6.6.5;
//! - hardware status synthesis: each switch's Autopilot sees exactly the
//!   status-bit fingerprints the paper describes (clean switch links, host
//!   directives, the alternate-host BadSyntax signature, `idhy` from
//!   condemned ports, code violations on broken cables, and reflection on
//!   uncabled ports);
//! - fault injection: link and switch failures/repairs and flapping links,
//!   scheduled in virtual time ([`Network::schedule_link_down`] et al.);
//! - host data traffic with delivery records, plus workload generators
//!   ([`workload`]);
//! - service-interruption probe flows ([`Network::start_probes`],
//!   [`SlotNet::start_probes`]), off by default and allocation-free when
//!   off;
//! - convergence/consistency checks and reconfiguration-time measurement
//!   ([`Network::run_until_stable`], [`Network::check_against_reference`]);
//! - the FDDI-style token-ring baseline for the aggregate-bandwidth
//!   comparison ([`TokenRing`]).

mod network;
mod params;
mod ring;
mod slotnet;
mod stats;
pub mod workload;

pub use autonet_core::{ProbeOutcome, ProbeRecord};
#[doc(hidden)]
pub use network::Driver;
pub use network::{
    link_flap_events, DeliveryRecord, HandlerProfile, Net, NetStats, Network, PartitionedNetwork,
};
pub use params::{CpuModel, NetParams};
pub use ring::{RingStats, TokenRing};
pub use slotnet::SlotNet;

use autonet_core::ControlMsg;
use autonet_wire::{Bytes, Packet, PacketType, PortIndex, ShortAddress};

/// The wire packet type carrying a control message.
fn control_packet_type(msg: &ControlMsg) -> PacketType {
    match msg {
        ControlMsg::Probe { .. } | ControlMsg::ProbeReply { .. } => PacketType::Probe,
        ControlMsg::ShortAddrRequest { .. } | ControlMsg::ShortAddrReply { .. } => {
            PacketType::HostSwitch
        }
        ControlMsg::Srp { .. } => PacketType::Srp,
        _ => PacketType::Reconfig,
    }
}

/// Encodes a control message into the packet the control processor puts on
/// the wire: one-hop addressed out of `port` (port 0 loops back to the
/// local control processor).
fn control_packet(port: PortIndex, msg: &ControlMsg) -> Packet {
    encoded_control_packet(port, msg, msg.encode().into())
}

/// [`control_packet`] around a `payload` the caller vouches is
/// `msg.encode()`.
fn encoded_control_packet(port: PortIndex, msg: &ControlMsg, payload: Bytes) -> Packet {
    let dst = if port >= 1 {
        ShortAddress::one_hop(port)
    } else {
        ShortAddress::TO_LOCAL_SWITCH
    };
    Packet::new(
        dst,
        ShortAddress::TO_LOCAL_SWITCH,
        control_packet_type(msg),
        payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::SrpPayload;
    use autonet_wire::Uid;

    #[test]
    fn control_packets_are_typed_and_one_hop_addressed() {
        let probe = ControlMsg::Probe {
            seq: 1,
            origin: Uid::new(9),
            origin_port: 2,
        };
        let p = control_packet(3, &probe);
        assert_eq!(p.ptype, PacketType::Probe);
        assert_eq!(p.dst, ShortAddress::one_hop(3));
        let srp = ControlMsg::Srp {
            route: vec![1],
            hop: 1,
            back_route: vec![],
            payload: SrpPayload::Ping,
        };
        assert_eq!(control_packet_type(&srp), PacketType::Srp);
        let req = ControlMsg::ShortAddrRequest {
            host_uid: Uid::new(1),
        };
        assert_eq!(control_packet_type(&req), PacketType::HostSwitch);
        // Round-trips through the wire codec.
        let decoded = Packet::decode(&p.encode()).expect("well-formed");
        assert_eq!(decoded, p);
    }

    /// The short-address service crosses the two stacks: what a booting
    /// host controller sends decodes as a `ControlMsg`, and the switch's
    /// reply, packed the way a switch sends it, teaches the host its
    /// address.
    #[test]
    fn service_messages_cross_the_host_and_switch_codecs() {
        use autonet_host::{HostAction, HostController, HostParams};
        use autonet_sim::SimTime;

        let host_uid = Uid::new(100);
        let mut host = HostController::new(host_uid, HostParams::default(), false);
        let sent = host.boot(SimTime::ZERO);
        let [HostAction::Transmit { packet, .. }] = sent.as_slice() else {
            panic!("boot sends one request: {sent:?}");
        };
        assert_eq!(packet.ptype, PacketType::HostSwitch);
        assert_eq!(
            ControlMsg::decode(&packet.payload),
            Ok(ControlMsg::ShortAddrRequest { host_uid })
        );
        let addr = ShortAddress::assigned(3, 4);
        let reply = control_packet(4, &ControlMsg::ShortAddrReply { host_uid, addr });
        host.on_packet(SimTime::from_millis(1), 0, &reply);
        assert_eq!(host.short_address(), Some(addr));
        assert_eq!(host.address_changed_at(), Some(SimTime::from_millis(1)));
    }
}

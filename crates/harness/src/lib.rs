//! The environment harness: one way to run an [`Autopilot`] anywhere.
//!
//! The paper's control program is a pure state machine (companion paper
//! §5.4): interrupt handlers feed it packets, status samples and timer
//! ticks, and it answers with [`Action`]s for the surrounding hardware to
//! execute. Every backend that hosts an Autopilot therefore needs the same
//! pieces of glue — transmit a control message, load a forwarding table,
//! read a port's hardware status, drive the tick/sample cadences, and
//! take the typed events an entry point hands over by value into whatever
//! log the backend keeps (the Autopilot keeps none). This crate factors
//! that glue out once:
//!
//! - [`Environment`] is the substrate contract: the handful of operations
//!   a backend must provide (and nothing about *when* they happen);
//! - [`NodeHarness`] owns one Autopilot, executes its actions against any
//!   `Environment`, and owns the tick/sample cadence bookkeeping derived
//!   from [`AutopilotParams`];
//! - [`control_packet`] is the one place a [`ControlMsg`] becomes a wire
//!   [`Packet`] (type tag + one-hop addressing), and
//!   [`encoded_control_packet`] the same for a backend that already holds
//!   the message's encoding;
//! - [`NetStats`] is the counters struct both simulation backends expose,
//!   so tests and benches read convergence and traffic metrics from one
//!   API regardless of substrate.
//!
//! The packet-level `Network` and the slot-level `SlotNet` in
//! `autonet-net` are both thin wrappers over this layer; a future real
//! hardware shim would be a third.
//!
//! [`Autopilot`]: autonet_core::Autopilot
//! [`Action`]: autonet_core::Action
//! [`AutopilotParams`]: autonet_core::AutopilotParams

mod env;
mod node;
mod stats;

pub use env::Environment;
pub use node::NodeHarness;
pub use stats::NetStats;

use autonet_core::ControlMsg;
use autonet_wire::{Bytes, Packet, PacketType, PortIndex, ShortAddress};

/// The wire packet type carrying a control message.
pub fn control_packet_type(msg: &ControlMsg) -> PacketType {
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
pub fn control_packet(port: PortIndex, msg: &ControlMsg) -> Packet {
    encoded_control_packet(port, msg, msg.encode().into())
}

/// [`control_packet`] around a `payload` the caller vouches is
/// `msg.encode()`.
pub fn encoded_control_packet(port: PortIndex, msg: &ControlMsg, payload: Bytes) -> Packet {
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
}

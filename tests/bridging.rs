//! Integration: the Autonet-to-Ethernet bridge (§6.8.2) gluing a LocalNet
//! host to a plain Ethernet station so they behave as one extended LAN —
//! learning which side each UID lives on, forwarding only what must cross,
//! and refusing what the Ethernet cannot carry.

use autonet::host::{
    Bridge, BridgeVerdict, EthFrame, EthernetSegment, LocalNet, Side, BROADCAST_UID, IP_ETHERTYPE,
};
use autonet::sim::{SimDuration, SimTime};
use autonet::wire::{Packet, ShortAddress, Uid};

/// A miniature extended LAN: one Autonet host (LocalNet), one Ethernet
/// station, a bridge between them, and manual plumbing of frames. The
/// Autonet side is a single logical segment (packets between Autonet
/// endpoints are delivered by short address directly).
struct ExtendedLan {
    autonet_host: LocalNet,
    bridge_localnet: LocalNet,
    bridge: Bridge,
    segment: EthernetSegment,
    /// Frames that arrived at the Ethernet station.
    eth_delivered: Vec<EthFrame>,
    /// Frames delivered to the Autonet host's client.
    auto_delivered: Vec<EthFrame>,
    now: SimTime,
}

const AUTO_HOST_UID: u64 = 0xA0;
const ETH_HOST_UID: u64 = 0xE0;
const BRIDGE_UID: u64 = 0xB0;

impl ExtendedLan {
    fn new() -> Self {
        let mut autonet_host = LocalNet::new(Uid::new(AUTO_HOST_UID));
        autonet_host.set_own_address(ShortAddress::assigned(1, 1));
        let mut bridge_localnet = LocalNet::new(Uid::new(BRIDGE_UID));
        bridge_localnet.set_own_address(ShortAddress::assigned(1, 2));
        let mut segment = EthernetSegment::new_10mbps();
        segment.attach(Uid::new(ETH_HOST_UID));
        segment.attach(Uid::new(BRIDGE_UID));
        ExtendedLan {
            autonet_host,
            bridge_localnet,
            bridge: Bridge::new(),
            segment,
            eth_delivered: Vec::new(),
            auto_delivered: Vec::new(),
            now: SimTime::from_secs(1),
        }
    }

    /// Delivers an Autonet packet to every Autonet endpoint it addresses
    /// (host and bridge), then pumps whatever the bridge forwards.
    fn autonet_carry(&mut self, packet: &Packet) {
        let host_addr = self.autonet_host.my_short().unwrap();
        let bridge_addr = self.bridge_localnet.my_short().unwrap();
        if packet.dst == host_addr || packet.dst.is_broadcast() {
            let (delivered, responses) = self.autonet_host.receive(self.now, packet);
            if let Some(f) = delivered {
                self.auto_delivered.push(f);
            }
            for r in responses {
                self.autonet_carry(&r.clone());
            }
        }
        // The bridge does not hear its own Autonet transmissions.
        if packet.src != bridge_addr && (packet.dst == bridge_addr || packet.dst.is_broadcast()) {
            // The bridge's LocalNet learns source mappings and answers
            // ARPs, but — unlike an ordinary host — the bridge hands every
            // frame to its forwarding engine regardless of destination UID:
            // "an Autonet bridge ... forwards most of the packets it
            // receives" (§6.8.2).
            let (_, responses) = self.bridge_localnet.receive(self.now, packet);
            for r in responses {
                self.autonet_carry(&r.clone());
            }
            if let Ok(frame) = EthFrame::decode(&packet.payload) {
                if frame.ethertype != autonet::host::ARP_ETHERTYPE
                    && frame.dst != Uid::new(BRIDGE_UID)
                {
                    self.bridge_to_ethernet(frame);
                }
            }
        }
    }

    fn bridge_to_ethernet(&mut self, frame: EthFrame) {
        if let BridgeVerdict::Forward {
            to: Side::Ethernet,
            ready_at,
        } = self.bridge.process(self.now, Side::Autonet, &frame)
        {
            let done = self.segment.transmit(ready_at, &frame);
            self.now = self.now.max(done);
            // Every station sees it; the Ethernet host filters by UID.
            if frame.dst == Uid::new(ETH_HOST_UID) || frame.is_broadcast() {
                self.eth_delivered.push(frame);
            }
        }
    }

    /// The Ethernet station transmits a frame on the shared segment.
    fn ethernet_send(&mut self, frame: EthFrame) {
        let done = self.segment.transmit(self.now, &frame);
        self.now = self.now.max(done);
        // The bridge hears everything on the segment.
        if let BridgeVerdict::Forward {
            to: Side::Autonet,
            ready_at,
        } = self.bridge.process(self.now, Side::Ethernet, &frame)
        {
            self.now = self.now.max(ready_at);
            // On the Autonet side, the bridge re-addresses by short
            // address via its LocalNet cache.
            let packets = self.bridge_localnet.transmit(self.now, &frame);
            for p in packets {
                self.autonet_carry(&p);
            }
        }
        // Other stations on the segment would also hear it (none here).
    }

    fn tick(&mut self, d: SimDuration) {
        self.now += d;
        self.autonet_host.on_tick(self.now);
        self.bridge_localnet.on_tick(self.now);
    }
}

#[test]
fn ethernet_station_reaches_autonet_host_and_back() {
    let mut lan = ExtendedLan::new();
    // Ethernet → Autonet: unknown destination is forwarded; the bridge's
    // LocalNet broadcasts it; the Autonet host receives and learns.
    let f1 = EthFrame::new(
        Uid::new(AUTO_HOST_UID),
        Uid::new(ETH_HOST_UID),
        IP_ETHERTYPE,
        &b"hello from ethernet"[..],
    );
    lan.ethernet_send(f1.clone());
    assert_eq!(lan.auto_delivered.len(), 1);
    assert_eq!(lan.auto_delivered[0].payload, f1.payload);
    // The bridge learned which side each UID is on.
    assert_eq!(
        lan.bridge.side_of(Uid::new(ETH_HOST_UID)),
        Some(Side::Ethernet)
    );

    // Autonet → Ethernet: the Autonet host replies by UID; LocalNet sends
    // to the bridge... here the destination is off-net, so the frame goes
    // out as a broadcast fallback the bridge picks up and forwards.
    lan.tick(SimDuration::from_millis(10));
    let reply = EthFrame::new(
        Uid::new(ETH_HOST_UID),
        Uid::new(AUTO_HOST_UID),
        IP_ETHERTYPE,
        &b"hello back"[..],
    );
    let packets = lan.autonet_host.transmit(lan.now, &reply);
    for p in packets {
        lan.autonet_carry(&p);
    }
    assert_eq!(lan.eth_delivered.len(), 1);
    assert_eq!(lan.eth_delivered[0].payload, reply.payload);
    assert_eq!(
        lan.bridge.side_of(Uid::new(AUTO_HOST_UID)),
        Some(Side::Autonet)
    );
}

#[test]
fn bridge_refuses_frames_too_long_for_ethernet() {
    let mut lan = ExtendedLan::new();
    // Teach the bridge the Ethernet host's side.
    lan.ethernet_send(EthFrame::new(
        Uid::new(AUTO_HOST_UID),
        Uid::new(ETH_HOST_UID),
        IP_ETHERTYPE,
        &b"x"[..],
    ));
    let before = lan.bridge.stats().refused;
    // An Autonet-size (>1514 B) frame cannot cross.
    let big = EthFrame::new(
        Uid::new(ETH_HOST_UID),
        Uid::new(AUTO_HOST_UID),
        IP_ETHERTYPE,
        vec![0u8; 4000],
    );
    lan.bridge_to_ethernet(big);
    assert_eq!(lan.bridge.stats().refused, before + 1);
    assert!(lan.eth_delivered.iter().all(|f| f.payload.len() <= 1500));
}

#[test]
fn broadcast_crosses_the_bridge() {
    let mut lan = ExtendedLan::new();
    let bc = EthFrame::new(
        BROADCAST_UID,
        Uid::new(ETH_HOST_UID),
        IP_ETHERTYPE,
        &b"anyone?"[..],
    );
    lan.ethernet_send(bc.clone());
    // The Autonet host received the broadcast through the bridge.
    assert!(lan
        .auto_delivered
        .iter()
        .any(|f| f.payload == bc.payload && f.is_broadcast()));
}

#[test]
fn same_side_traffic_is_not_forwarded() {
    let mut lan = ExtendedLan::new();
    // Teach the bridge two Ethernet-side UIDs.
    lan.ethernet_send(EthFrame::new(
        Uid::new(0xE1),
        Uid::new(ETH_HOST_UID),
        IP_ETHERTYPE,
        &b"a"[..],
    ));
    lan.ethernet_send(EthFrame::new(
        Uid::new(ETH_HOST_UID),
        Uid::new(0xE1),
        IP_ETHERTYPE,
        &b"b"[..],
    ));
    let discarded_before = lan.bridge.stats().discarded;
    // Now Ethernet-internal traffic is discarded by the bridge.
    lan.ethernet_send(EthFrame::new(
        Uid::new(0xE1),
        Uid::new(ETH_HOST_UID),
        IP_ETHERTYPE,
        &b"c"[..],
    ));
    assert_eq!(lan.bridge.stats().discarded, discarded_before + 1);
    assert!(lan.auto_delivered.is_empty());
}

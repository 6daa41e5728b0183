//! The event vocabulary of the packet-level simulation.

use autonet_core::{Epoch, SrpPayload};
use autonet_sim::SimTime;
use autonet_topo::{HostId, LinkId, SwitchId, Topology};
use autonet_wire::{Packet, PortIndex, ShortAddress, Uid};

/// Which physical path carried a packet (checked again at delivery so
/// packets in flight on a failing link are lost).
#[derive(Clone, Copy, Debug)]
#[doc(hidden)]
pub enum Via {
    Link(usize),
    HostLink(usize, usize),
    Reflection,
}

/// Simulation events (public only because the `World` impl exposes the
/// type; constructed exclusively through `Network` methods).
///
/// A switch's own timer and CPU events carry the incarnation (`inc`) of
/// the Autopilot that scheduled them; a reboot bumps it, so events of a
/// crashed incarnation that outlive a quick power cycle are dropped
/// instead of feeding the new one.
#[derive(Clone)]
#[doc(hidden)]
pub enum Event {
    SwitchBoot {
        s: usize,
    },
    SwitchTick {
        s: usize,
        inc: u32,
    },
    SwitchSample {
        s: usize,
        inc: u32,
    },
    SwitchRx {
        s: usize,
        port: PortIndex,
        packet: Packet,
        via: Via,
    },
    SwitchCpuDone {
        s: usize,
        port: PortIndex,
        packet: Packet,
        inc: u32,
    },
    HostBoot {
        h: usize,
    },
    HostTick {
        h: usize,
    },
    HostRx {
        h: usize,
        cport: usize,
        packet: Packet,
        via: Via,
    },
    HostSend {
        h: usize,
        dst: Uid,
        len: usize,
        tag: u64,
    },
    SrpRequest {
        s: usize,
        route: Vec<PortIndex>,
        payload: SrpPayload,
    },
    LinkDown {
        l: usize,
    },
    LinkUp {
        l: usize,
    },
    SwitchDown {
        s: usize,
    },
    SwitchUp {
        s: usize,
    },
    HostLinkDown {
        h: usize,
        which: usize,
    },
    HostLinkUp {
        h: usize,
        which: usize,
    },
    HostPowerOff {
        h: usize,
    },
    HostPowerOn {
        h: usize,
    },
    /// One round of service-interruption probes (self-rescheduling).
    ProbeTick,
}

impl Event {
    /// The variants by name, in [`kind`](Event::kind) order.
    pub(super) const KINDS: [&'static str; 19] = [
        "SwitchBoot",
        "SwitchTick",
        "SwitchSample",
        "SwitchRx",
        "SwitchCpuDone",
        "HostBoot",
        "HostTick",
        "HostRx",
        "HostSend",
        "SrpRequest",
        "LinkDown",
        "LinkUp",
        "SwitchDown",
        "SwitchUp",
        "HostLinkDown",
        "HostLinkUp",
        "HostPowerOff",
        "HostPowerOn",
        "ProbeTick",
    ];

    /// This event's index into [`KINDS`](Event::KINDS).
    pub(super) fn kind(&self) -> usize {
        match self {
            Event::SwitchBoot { .. } => 0,
            Event::SwitchTick { .. } => 1,
            Event::SwitchSample { .. } => 2,
            Event::SwitchRx { .. } => 3,
            Event::SwitchCpuDone { .. } => 4,
            Event::HostBoot { .. } => 5,
            Event::HostTick { .. } => 6,
            Event::HostRx { .. } => 7,
            Event::HostSend { .. } => 8,
            Event::SrpRequest { .. } => 9,
            Event::LinkDown { .. } => 10,
            Event::LinkUp { .. } => 11,
            Event::SwitchDown { .. } => 12,
            Event::SwitchUp { .. } => 13,
            Event::HostLinkDown { .. } => 14,
            Event::HostLinkUp { .. } => 15,
            Event::HostPowerOff { .. } => 16,
            Event::HostPowerOn { .. } => 17,
            Event::ProbeTick => 18,
        }
    }

    /// Whether the event flips replicated plant state (link, host-link
    /// and power flags). Under the sharded driver such an event goes to
    /// every shard under one stamp, and only the shard owning its
    /// [`node`](Event::node) keeps the observable effects.
    pub(super) fn is_plant_fault(&self) -> bool {
        matches!(
            self,
            Event::LinkDown { .. }
                | Event::LinkUp { .. }
                | Event::SwitchDown { .. }
                | Event::SwitchUp { .. }
                | Event::HostPowerOff { .. }
                | Event::HostPowerOn { .. }
                | Event::HostLinkDown { .. }
                | Event::HostLinkUp { .. }
        )
    }

    /// The dense id (switches, then hosts) of the node the event is
    /// addressed to; a link fault anchors at the link's `a` end.
    pub(super) fn node(&self, topo: &Topology) -> usize {
        match *self {
            Event::SwitchBoot { s }
            | Event::SwitchTick { s, .. }
            | Event::SwitchSample { s, .. }
            | Event::SwitchRx { s, .. }
            | Event::SwitchCpuDone { s, .. }
            | Event::SrpRequest { s, .. }
            | Event::SwitchDown { s }
            | Event::SwitchUp { s } => s,
            Event::LinkDown { l } | Event::LinkUp { l } => topo.link(LinkId(l)).a.switch.0,
            Event::HostBoot { h }
            | Event::HostTick { h }
            | Event::HostRx { h, .. }
            | Event::HostSend { h, .. }
            | Event::HostPowerOff { h }
            | Event::HostPowerOn { h }
            | Event::HostLinkDown { h, .. }
            | Event::HostLinkUp { h, .. } => topo.num_switches() + h,
            // One network-wide tick drawing on one shared world: only the
            // classic facade has the probe API that schedules it.
            Event::ProbeTick => unreachable!("probes exist only on the classic driver"),
        }
    }
}

/// Observable network happenings, timestamped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: NetEventKind,
}

/// Kinds of observable events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEventKind {
    /// A switch closed for host traffic (reconfiguration step 1).
    SwitchClosed(SwitchId),
    /// A switch reopened with the given epoch.
    SwitchOpened(SwitchId, Epoch),
    /// A host failed over to the other controller port.
    HostPortSwitched(HostId, usize),
    /// A host learned a short address.
    HostAddressLearned(HostId, ShortAddress),
    /// A fault-injection event took effect.
    Fault(String),
}

/// One delivered data frame.
#[derive(Clone, Debug)]
pub struct DeliveryRecord {
    /// Delivery time.
    pub time: SimTime,
    /// The receiving host.
    pub host: HostId,
    /// Sender UID.
    pub src: Uid,
    /// The workload tag (first 8 payload bytes), 0 if none.
    pub tag: u64,
    /// Payload length.
    pub len: usize,
}

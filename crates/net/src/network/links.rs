//! The wires: serialization and propagation, reflection off unterminated
//! cables, hardware status synthesis, and data-plane forwarding.

use autonet_sim::{Scheduler, SimDuration, SimTime};
use autonet_switch::LinkUnitStatus;
use autonet_topo::{HostId, LinkId, NetView, PortUse, SwitchId};
use autonet_wire::{Packet, PortIndex};

use super::events::{Event, Via};
use super::NetWorld;

pub(super) const HOST_LINK_LATENCY_NS: u64 = 7 * 80; // 100 m coax.
/// Link bandwidth in bits per second (100 Mbit/s).
const LINK_BPS: u64 = 100_000_000;
/// Host driver tick period.
pub(super) const HOST_TICK: SimDuration = SimDuration::from_millis(100);
pub(super) const SWITCH_TRANSIT: SimDuration = SimDuration::from_micros(2);

/// Wire time of a packet at the link rate.
pub(super) fn wire_time(bytes: usize) -> SimDuration {
    SimDuration::from_nanos(bytes as u64 * 8 * 1_000_000_000 / LINK_BPS)
}

impl NetWorld {
    /// The live physical view: up links and switches.
    pub(super) fn physical_view(&self) -> NetView<'_> {
        let mut view = self.topo.view_all();
        for (l, up) in self.link_up.iter().enumerate() {
            if !up {
                view.fail_link(LinkId(l));
            }
        }
        for (s, up) in self.switches.up.iter().enumerate() {
            if !up {
                view.fail_switch(SwitchId(s));
            }
        }
        view
    }

    /// Transmits `packet` out of switch `s` port `port`.
    pub(super) fn transmit_from_switch(
        &mut self,
        now: SimTime,
        s: usize,
        port: PortIndex,
        packet: Packet,
        sched: &mut Scheduler<'_, Event>,
    ) {
        match self.topo.port_use(SwitchId(s), port) {
            PortUse::Link(lid) => {
                let spec = self.topo.link(lid).clone();
                if !self.link_up[lid.0] {
                    return;
                }
                // Identify this end by (switch, port) so loopback cables
                // work too.
                let (dir, to, to_port) = if spec.a.switch.0 == s && spec.a.port == port {
                    (0, spec.b.switch.0, spec.b.port)
                } else {
                    (1, spec.a.switch.0, spec.a.port)
                };
                let start = self.link_busy[lid.0][dir].max(now);
                let done = start + wire_time(packet.wire_len());
                self.link_busy[lid.0][dir] = done;
                let arrive = done + SimDuration::from_nanos(spec.timing.latency_ns());
                sched.at(
                    arrive,
                    Event::SwitchRx {
                        s: to,
                        port: to_port,
                        packet,
                        via: Via::Link(lid.0),
                    },
                );
            }
            PortUse::Host(hid, alt) => {
                let which = usize::from(alt);
                if !self.host_link_up[hid.0][which] {
                    return;
                }
                let start = self.host_link_busy[hid.0][which][1].max(now);
                let done = start + wire_time(packet.wire_len());
                self.host_link_busy[hid.0][which][1] = done;
                if self.host_powered_off_at[hid.0].is_some() {
                    // The cable ends at an unpowered controller: the signal
                    // reflects and arrives back at this very port (§5.3).
                    let back = done + SimDuration::from_nanos(2 * HOST_LINK_LATENCY_NS);
                    sched.at(
                        back,
                        Event::SwitchRx {
                            s,
                            port,
                            packet,
                            via: Via::HostLink(hid.0, which),
                        },
                    );
                    return;
                }
                let arrive = done + SimDuration::from_nanos(HOST_LINK_LATENCY_NS);
                sched.at(
                    arrive,
                    Event::HostRx {
                        h: hid.0,
                        cport: which,
                        packet,
                        via: Via::HostLink(hid.0, which),
                    },
                );
            }
            PortUse::Free => {
                // An uncabled port reflects its own signal (§5.3): the
                // packet comes straight back.
                sched.after(
                    SimDuration::from_micros(2),
                    Event::SwitchRx {
                        s,
                        port,
                        packet,
                        via: Via::Reflection,
                    },
                );
            }
            PortUse::ControlProcessor => {
                // Port 0 loops to the local control processor.
                sched.after(
                    SimDuration::from_micros(1),
                    Event::SwitchRx {
                        s,
                        port: 0,
                        packet,
                        via: Via::Reflection,
                    },
                );
            }
        }
    }

    /// Transmits `packet` from host `h` controller port `cport`.
    pub(super) fn transmit_from_host(
        &mut self,
        now: SimTime,
        h: usize,
        cport: usize,
        packet: Packet,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let spec = self.topo.host(HostId(h));
        let attach = if cport == 0 {
            Some(spec.primary)
        } else {
            spec.alternate
        };
        let Some(attach) = attach else { return };
        if !self.host_link_up[h][cport] {
            return;
        }
        let start = self.host_link_busy[h][cport][0].max(now);
        let done = start + wire_time(packet.wire_len());
        self.host_link_busy[h][cport][0] = done;
        let arrive = done + SimDuration::from_nanos(HOST_LINK_LATENCY_NS);
        sched.at(
            arrive,
            Event::SwitchRx {
                s: attach.switch.0,
                port: attach.port,
                packet,
                via: Via::HostLink(h, cport),
            },
        );
    }

    /// Synthesizes the hardware status bits for one switch port (1 and up;
    /// port 0 is never sampled) from the physical state of whatever is
    /// cabled there.
    pub(super) fn synthesize_status(
        &self,
        now: SimTime,
        s: usize,
        port: PortIndex,
    ) -> LinkUnitStatus {
        let mut status = LinkUnitStatus::new();
        status.start_seen = true;
        status.progress_seen = true;
        // Broken cable, dark or unpowered far end: code violations.
        let mut broken = false;
        match self.topo.port_use(SwitchId(s), port) {
            // Reflection: a free port hears its own (switch-style) flow
            // control, so it looks like a clean switch link.
            PortUse::ControlProcessor | PortUse::Free => {}
            PortUse::Link(lid) => {
                let spec = self.topo.link(lid);
                let other = if spec.a.switch.0 == s && spec.a.port == port {
                    spec.b
                } else {
                    spec.a
                };
                if !self.link_up[lid.0] || !self.switches.up[other.switch.0] {
                    broken = true;
                } else {
                    // The far end sends idhy while it condemns the link
                    // (the pool mirrors the verdict into the dead-port
                    // flags after every Autopilot entry point). Under the
                    // sharded executor the far end may live on another
                    // shard, so the read goes through the barrier-latched
                    // snapshot instead of the live pool.
                    status.idhy_seen = match &self.latched {
                        Some(l) => l.is_dead(other.switch.0, other.port),
                        None => self.switches.dead[other.switch.0][other.port as usize],
                    };
                }
            }
            PortUse::Host(hid, alt) => {
                let which = usize::from(alt);
                if let Some(off_at) = self.host_powered_off_at[hid.0] {
                    // A reflecting link: the port hears its own flow
                    // control (looks switch-like) until the noise of the
                    // unterminated cable registers as code violations —
                    // "almost always", per §7; modeled as a detection delay.
                    broken = now.saturating_since(off_at) > self.params.reflect_detect_delay;
                } else if !self.host_link_up[hid.0][which] || !self.hosts.up[hid.0] {
                    broken = true;
                } else if match &self.latched {
                    Some(l) => l.host_active(hid.0) == which,
                    None => self.hosts.ctl[hid.0].active_port() == which,
                } {
                    status.is_host = true;
                } else {
                    // The alternate port carries sync only: the constant
                    // BadSyntax signature with no flow-control directives.
                    status.bad_syntax = true;
                }
            }
        }
        if broken {
            status.bad_code = true;
            status.start_seen = false;
        }
        status
    }

    /// Data-plane forwarding of one packet arriving at a switch.
    pub(super) fn forward_data(
        &mut self,
        now: SimTime,
        s: usize,
        in_port: PortIndex,
        packet: Packet,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let entry = self.switches.table[s].lookup(in_port, packet.dst);
        if entry.is_discard() {
            self.stats.data_discarded += 1;
            return;
        }
        if entry.broadcast {
            for port in entry.ports.iter() {
                if port == 0 {
                    continue; // The CP ignores data packets.
                }
                self.transmit_from_switch(now + SWITCH_TRANSIT, s, port, packet.clone(), sched);
            }
        } else {
            // Dynamic alternative choice: the hardware takes the first free
            // port; the packet-level equivalent is the least-busy one.
            let mut best: Option<(SimTime, PortIndex)> = None;
            for port in entry.ports.iter() {
                if port == 0 {
                    // Deliveries to the CP address reach the control
                    // processor; data packets there are ignored, matching
                    // the hardware (the CP just never consumes them).
                    continue;
                }
                let busy = self.port_busy_until(s, port);
                let better = match best {
                    None => true,
                    Some((b, _)) => busy < b,
                };
                if better {
                    best = Some((busy, port));
                }
            }
            match best {
                Some((_, port)) => {
                    self.transmit_from_switch(now + SWITCH_TRANSIT, s, port, packet, sched);
                }
                None => self.stats.data_discarded += 1,
            }
        }
    }

    fn port_busy_until(&self, s: usize, port: PortIndex) -> SimTime {
        match self.topo.port_use(SwitchId(s), port) {
            PortUse::Link(lid) => {
                let spec = self.topo.link(lid);
                let dir = usize::from(!(spec.a.switch.0 == s && spec.a.port == port));
                self.link_busy[lid.0][dir]
            }
            PortUse::Host(hid, alt) => self.host_link_busy[hid.0][usize::from(alt)][1],
            _ => SimTime::MAX,
        }
    }

    /// Whether the physical path a packet used is still intact.
    pub(super) fn via_intact(&self, via: Via) -> bool {
        match via {
            Via::Link(l) => self.link_up[l],
            Via::HostLink(h, w) => self.host_link_up[h][w],
            Via::Reflection => true,
        }
    }
}

//! Host controllers: boot/tick cadence, packet delivery and data
//! injection. Host state lives struct-of-arrays in the
//! [`HostPool`](super::pool::HostPool), indexed by dense id.

use autonet_host::{EthFrame, HostAction, HostController, IP_ETHERTYPE};
use autonet_sim::{Scheduler, SimTime};
use autonet_topo::HostId;
use autonet_wire::{Packet, Uid};

use super::events::{DeliveryRecord, Event, Via};
use super::links::HOST_TICK;
use super::{Driver, Net, NetWorld};

impl NetWorld {
    /// Executes a batch of host controller actions.
    pub(super) fn apply_host_actions(
        &mut self,
        now: SimTime,
        h: usize,
        actions: Vec<HostAction>,
        sched: &mut Scheduler<'_, Event>,
    ) {
        for action in actions {
            match action {
                HostAction::Transmit { port, packet } => {
                    self.transmit_from_host(now, h, port, packet, sched);
                }
                HostAction::Deliver(frame) => {
                    let tag = if frame.payload.len() >= 8 {
                        u64::from_be_bytes(frame.payload[..8].try_into().expect("8 bytes"))
                    } else {
                        0
                    };
                    if tag & super::probes::PROBE_TAG_BIT != 0 {
                        // A probe frame: record its fate, keep it out of
                        // the workload counters and delivery log.
                        self.note_probe_delivery(now, h, tag);
                        continue;
                    }
                    self.stats.data_delivered += 1;
                    self.deliveries.push(DeliveryRecord {
                        time: now,
                        host: HostId(h),
                        src: frame.src,
                        tag,
                        len: frame.payload.len(),
                    });
                }
            }
        }
    }

    pub(super) fn on_host_boot(
        &mut self,
        now: SimTime,
        h: usize,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.hosts.up[h] {
            return;
        }
        let actions = self.hosts.ctl[h].boot(now);
        self.apply_host_actions(now, h, actions, sched);
        sched.after(HOST_TICK, Event::HostTick { h });
    }

    pub(super) fn on_host_tick(
        &mut self,
        now: SimTime,
        h: usize,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.hosts.up[h] {
            return;
        }
        let actions = self.hosts.ctl[h].on_tick(now);
        self.apply_host_actions(now, h, actions, sched);
        sched.after(HOST_TICK, Event::HostTick { h });
    }

    pub(super) fn on_host_rx(
        &mut self,
        now: SimTime,
        h: usize,
        cport: usize,
        packet: Packet,
        via: Via,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.hosts.up[h] || !self.via_intact(via) {
            self.stats.lost_in_flight += 1;
            return;
        }
        let actions = self.hosts.ctl[h].on_packet(now, cport, &packet);
        self.apply_host_actions(now, h, actions, sched);
    }

    pub(super) fn on_host_send(
        &mut self,
        now: SimTime,
        h: usize,
        dst: Uid,
        len: usize,
        tag: u64,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.hosts.up[h] {
            return;
        }
        let mut payload = Vec::with_capacity(len.max(8));
        payload.extend_from_slice(&tag.to_be_bytes());
        payload.resize(len.max(8), 0);
        let frame = EthFrame::new(dst, self.hosts.ctl[h].uid(), IP_ETHERTYPE, payload);
        self.stats.data_sent += 1;
        let actions = self.hosts.ctl[h].send(now, frame);
        self.apply_host_actions(now, h, actions, sched);
    }
}

impl<D: Driver> Net<D> {
    /// A host's controller, for inspection.
    pub fn host(&self, h: HostId) -> &HostController {
        let node = self.topology().num_switches() + h.0;
        &self.sim.world_of(node).hosts.ctl[h.0]
    }

    /// Schedules a host data frame.
    pub fn schedule_host_send(&mut self, at: SimTime, h: HostId, dst: Uid, len: usize, tag: u64) {
        self.sim.schedule(
            at,
            Event::HostSend {
                h: h.0,
                dst,
                len,
                tag,
            },
        );
    }
}

//! One switch: a [`NodeHarness`] whose Autopilot calls a packet-level
//! [`Environment`] view.
//!
//! The harness owns the control program and its cadence; this module
//! supplies the substrate view ([`PacketEnv`]) and the event handlers
//! that decide *when* the entry points run. Switch state itself lives
//! struct-of-arrays in the [`SwitchPool`](super::pool::SwitchPool),
//! indexed by dense id.
//!
//! The topology flood of step 4 is the same message at every switch, so
//! the world holds the last one as a pair — payload and decoded
//! `TopologyDown` — and [`NetWorld::encode`] / [`NetWorld::decode`] are
//! `ControlMsg::{encode, decode}` through it. Both are memos of a pure
//! function keyed by its whole input (the arriving bytes; on send, an
//! allocation the held clone keeps alive and immutable), so a hit is
//! what the codec would return; debug builds assert that on every hit.

use autonet_core::{
    Autopilot, ControlMsg, Environment, Epoch, GlobalTopology, NodeHarness, PortState, SrpPayload,
};
use autonet_sim::{Scheduler, SimTime};
use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_topo::SwitchId;
use autonet_wire::{Bytes, PacketType, PortIndex};

use super::events::{Event, NetEventKind};
use super::{Driver, Net, NetWorld};
use crate::encoded_control_packet;

/// The per-event [`Environment`] for switch `s`: the whole world (with
/// `s`'s own harness temporarily removed), the event scheduler and the
/// event's time.
struct PacketEnv<'a, 'b> {
    w: &'a mut NetWorld,
    sched: &'a mut Scheduler<'b, Event>,
    s: usize,
    now: SimTime,
}

impl Environment for PacketEnv<'_, '_> {
    fn send(&mut self, port: PortIndex, msg: &ControlMsg) {
        let packet = encoded_control_packet(port, msg, self.w.encode(msg));
        self.w.stats.control_sent += 1;
        self.w
            .transmit_from_switch(self.now, self.s, port, packet, self.sched);
    }

    fn load_table(&mut self, table: ForwardingTable) {
        self.w.switches.table[self.s] = table;
    }

    fn read_status(&mut self, port: PortIndex) -> LinkUnitStatus {
        self.w.synthesize_status(self.now, self.s, port)
    }

    fn set_port_dead(&mut self, port: PortIndex, dead: bool) {
        self.w.switches.dead[self.s][port as usize] = dead;
    }

    fn network_opened(&mut self, epoch: Epoch) {
        self.w.stats.note_open(self.now);
        self.w.log_event(
            self.now,
            NetEventKind::SwitchOpened(SwitchId(self.s), epoch),
        );
    }

    fn network_closed(&mut self) {
        self.w.stats.note_close(self.now);
        self.w
            .log_event(self.now, NetEventKind::SwitchClosed(SwitchId(self.s)));
    }

    fn trace(&mut self, event: autonet_core::Event) {
        self.w.trace.record(self.now, self.s, event);
    }
}

impl NetWorld {
    /// `msg.encode()`, through the held flood: a `TopologyDown` that is
    /// the held message by identity (same epoch, [`same_object`]
    /// topology) leaves with the held bytes; any other is encoded and
    /// becomes the held flood.
    ///
    /// [`same_object`]: GlobalTopology::same_object
    pub(super) fn encode(&mut self, msg: &ControlMsg) -> Bytes {
        let ControlMsg::TopologyDown { epoch, global } = msg else {
            return msg.encode().into();
        };
        self.stats.topology_sent += 1;
        if let Some((
            payload,
            ControlMsg::TopologyDown {
                epoch: e,
                global: g,
            },
        )) = &self.flood
        {
            if e == epoch && g.same_object(global) {
                debug_assert_eq!(*payload, msg.encode());
                return payload.clone();
            }
        }
        self.stats.topology_encoded += 1;
        let payload = Bytes::from(msg.encode());
        // Held as `decode` would return it: the topology's own epoch field
        // is not on the wire, the message's is.
        let global = GlobalTopology {
            epoch: *epoch,
            ..global.clone()
        };
        let held = ControlMsg::TopologyDown {
            epoch: *epoch,
            global,
        };
        self.flood = Some((payload.clone(), held));
        payload
    }

    /// `ControlMsg::decode(payload)`, through the held flood: a payload
    /// byte-equal to the held one is the held message; any other is
    /// decoded and, if a `TopologyDown`, becomes the held flood.
    pub(super) fn decode(&mut self, payload: &Bytes) -> Option<ControlMsg> {
        if let Some((held, msg)) = &self.flood {
            // Length, then the sender's own buffer, then the bytes.
            if held.len() == payload.len()
                && (std::ptr::eq(held.as_ptr(), payload.as_ptr()) || held == payload)
            {
                debug_assert_eq!(ControlMsg::decode(payload).as_ref(), Ok(msg));
                return Some(msg.clone());
            }
        }
        let msg = ControlMsg::decode(payload).ok()?;
        if matches!(msg, ControlMsg::TopologyDown { .. }) {
            self.stats.topology_decoded += 1;
            self.flood = Some((payload.clone(), msg.clone()));
        }
        Some(msg)
    }

    /// Runs one entry point of switch `s` at `now`; the pool's put
    /// refreshes the dead-port mirror from the Autopilot's verdicts
    /// (port states only change inside entry points, so other switches
    /// reading the mirror see exactly the live state).
    fn with_harness(
        &mut self,
        now: SimTime,
        s: usize,
        sched: &mut Scheduler<'_, Event>,
        f: impl FnOnce(&mut NodeHarness, &mut PacketEnv<'_, '_>),
    ) {
        let mut h = self.switches.take(s);
        let mut env = PacketEnv {
            w: &mut *self,
            sched,
            s,
            now,
        };
        f(&mut h, &mut env);
        self.switches.put(s, h);
    }

    pub(super) fn on_switch_boot(
        &mut self,
        now: SimTime,
        s: usize,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.switches.up[s] {
            return;
        }
        self.with_harness(now, s, sched, |h, env| h.boot(now, env));
        self.schedule_tick(now, s, sched);
        self.schedule_sample(s, sched);
    }

    /// Whether an event stamped `inc` belongs to switch `s`'s running
    /// Autopilot: the switch is up and has not rebooted since.
    fn current(&self, s: usize, inc: u32) -> bool {
        self.switches.up[s] && self.switches.incarnation[s] == inc
    }

    /// Puts switch `s`'s next timer tick on the grid, one timer
    /// resolution after `now`: the one place this backend computes that
    /// instant, since a skipped tick never reaches the harness.
    fn schedule_tick(&self, now: SimTime, s: usize, sched: &mut Scheduler<'_, Event>) {
        let next = now + self.params.autopilot.timer_resolution;
        let inc = self.switches.incarnation[s];
        sched.at(next, Event::SwitchTick { s, inc });
    }

    /// Puts switch `s`'s next status sample where its harness wants it.
    fn schedule_sample(&self, s: usize, sched: &mut Scheduler<'_, Event>) {
        let next = self.switches.harness(s).next_sample();
        let inc = self.switches.incarnation[s];
        sched.at(next, Event::SwitchSample { s, inc });
    }

    /// A tick before the switch's timer mirror (`tick_due`) would make no
    /// call, so it costs one comparison and the reschedule. The event
    /// itself stays on the grid: ties break by insertion order, and one
    /// switch's tick and sample grids coincide every 30 ms (25 × 1.2 ms =
    /// 6 × 5 ms), so moving a tick would reorder same-instant events.
    pub(super) fn on_switch_tick(
        &mut self,
        now: SimTime,
        s: usize,
        inc: u32,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.current(s, inc) {
            return;
        }
        if now >= self.switches.tick_due[s] {
            self.stats.ticks_run += 1;
            self.with_harness(now, s, sched, |h, env| h.tick(now, env));
        }
        self.schedule_tick(now, s, sched);
    }

    pub(super) fn on_switch_sample(
        &mut self,
        now: SimTime,
        s: usize,
        inc: u32,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.current(s, inc) {
            return;
        }
        self.with_harness(now, s, sched, |h, env| h.sample(now, env));
        self.schedule_sample(s, sched);
    }

    pub(super) fn on_switch_rx(
        &mut self,
        now: SimTime,
        s: usize,
        port: PortIndex,
        packet: autonet_wire::Packet,
        via: super::events::Via,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.switches.up[s] || !self.via_intact(via) {
            self.stats.lost_in_flight += 1;
            return;
        }
        if packet.ptype != PacketType::Data
            && self.params.control_loss_rate > 0.0
            && self.rng.chance(self.params.control_loss_rate)
        {
            // A marginal link corrupted the packet; the CRC check on the
            // control processor rejects it.
            self.stats.lost_in_flight += 1;
            return;
        }
        match packet.ptype {
            PacketType::Data => self.forward_data(now, s, port, packet, sched),
            PacketType::HostSwitch
                if self.switches.autopilot(s).port_state(port) != PortState::Host =>
            {
                // A host's service packet (addressed 0000) reaches the
                // control processor only via the forwarding entry
                // installed when the port is classified s.host; before
                // that it is discarded like any host traffic.
                self.stats.data_discarded += 1;
            }
            _ => {
                // Control packet: charge the control processor. The real
                // 68000 had a finite receive-buffer pool; model it as a
                // bounded backlog — overload drops packets, and the
                // protocols recover by retransmission.
                let cost = self.params.cpu.cost(packet.payload.len());
                let backlog = self.switches.cpu_free[s].saturating_since(now);
                if backlog > self.params.cpu_backlog_cap {
                    self.stats.cpu_queue_drops += 1;
                    return;
                }
                let start = self.switches.cpu_free[s].max(now);
                self.switches.cpu_free[s] = start + cost;
                let inc = self.switches.incarnation[s];
                let done = Event::SwitchCpuDone {
                    s,
                    port,
                    packet,
                    inc,
                };
                sched.at(start + cost, done);
            }
        }
    }

    pub(super) fn on_switch_cpu_done(
        &mut self,
        now: SimTime,
        s: usize,
        port: PortIndex,
        packet: autonet_wire::Packet,
        inc: u32,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.switches.up[s] {
            return;
        }
        if self.switches.incarnation[s] != inc {
            // Queued before a crash the switch has since rebooted from.
            self.stats.lost_in_flight += 1;
            return;
        }
        if let Some(msg) = self.decode(&packet.payload) {
            self.with_harness(now, s, sched, |h, env| {
                h.autopilot_mut().on_packet(now, port, &msg, env)
            });
        }
    }

    pub(super) fn on_srp_request(
        &mut self,
        now: SimTime,
        s: usize,
        route: Vec<PortIndex>,
        payload: SrpPayload,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.switches.up[s] {
            return;
        }
        self.with_harness(now, s, sched, |h, env| {
            h.autopilot_mut().srp_request(route, payload, env)
        });
    }
}

impl<D: Driver> Net<D> {
    /// A switch's control program, for inspection.
    pub fn autopilot(&self, s: SwitchId) -> &Autopilot {
        self.sim.world_of(s.0).switches.autopilot(s.0)
    }

    /// A switch's currently loaded forwarding table.
    pub fn forwarding_table(&self, s: SwitchId) -> &ForwardingTable {
        &self.sim.world_of(s.0).switches.table[s.0]
    }

    /// Schedules a source-routed (SRP, §6.7) request originating at a
    /// switch's control processor. Collect answers with
    /// [`take_srp_replies`](Net::take_srp_replies).
    pub fn schedule_srp(
        &mut self,
        at: SimTime,
        from: SwitchId,
        route: Vec<PortIndex>,
        payload: SrpPayload,
    ) {
        self.sim.schedule(
            at,
            Event::SrpRequest {
                s: from.0,
                route,
                payload,
            },
        );
    }

    /// Drains the SRP answers received by a switch's control processor.
    pub fn take_srp_replies(&mut self, s: SwitchId) -> Vec<SrpPayload> {
        self.sim
            .world_of_mut(s.0)
            .switches
            .autopilot_mut(s.0)
            .srp_replies()
    }
}

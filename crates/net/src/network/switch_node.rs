//! One switch: an [`Autopilot`] calling a packet-level [`Environment`]
//! view.
//!
//! This module supplies the substrate view ([`PacketEnv`]) and the event
//! handlers that decide *when* the entry points run: each switch's ticks
//! and samples are events this backend schedules itself, a tick only
//! where the Autopilot's `timer_due` calls for one and a sampling round
//! only where a status could have moved. Switch
//! state lives struct-of-arrays in the
//! [`SwitchPool`](super::pool::SwitchPool), indexed by dense id.
//!
//! The topology flood of step 4 is the same message at every switch, so
//! the world holds the last one as a pair — payload and decoded
//! `TopologyDown` — and [`NetWorld::encode`] / [`NetWorld::decode`] are
//! `ControlMsg::{encode, decode}` through it. Both are memos of a pure
//! function keyed by its whole input (the arriving bytes; on send, an
//! allocation the held clone keeps alive and immutable), so a hit is
//! what the codec would return; debug builds assert that on every hit.

use autonet_core::{Autopilot, ControlMsg, Environment, GlobalTopology, PortState, SrpPayload};
use autonet_sim::{Scheduler, SimDuration, SimRng, SimTime};
use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_topo::SwitchId;
use autonet_wire::{Bytes, PacketType, PortIndex, MAX_PORTS};

use super::events::Event;
use super::{Driver, Net, NetWorld};
use crate::encoded_control_packet;

/// The per-event [`Environment`] for switch `s`: the whole world (with
/// `s`'s own Autopilot temporarily removed), the event scheduler and the
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
        let status = self.w.synthesize_status(self.now, self.s, port);
        self.w.switches.read[self.s][port as usize] = status;
        status
    }

    fn set_port_dead(&mut self, port: PortIndex, dead: bool) {
        self.w.switches.dead[self.s][port as usize] = dead;
    }

    fn network_opened(&mut self) {
        self.w.stats.note_open(self.now);
    }

    fn network_closed(&mut self) {
        self.w.stats.note_close(self.now);
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

    /// Runs one entry point of switch `s` at `now`, then re-arms the
    /// switch's tick from the Autopilot's timer bound.
    fn with_autopilot(
        &mut self,
        now: SimTime,
        s: usize,
        sched: &mut Scheduler<'_, Event>,
        f: impl FnOnce(&mut Autopilot, &mut PacketEnv<'_, '_>),
    ) {
        let mut ap = self.switches.take(s);
        let mut env = PacketEnv {
            w: &mut *self,
            sched,
            s,
            now,
        };
        f(&mut ap, &mut env);
        let due = ap.timer_due();
        self.switches.put(s, ap);
        self.arm_tick(now, s, due, sched);
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
        // The boot instant is the origin of both of the switch's grids.
        self.switches.last_tick[s] = now;
        self.with_autopilot(now, s, sched, |ap, env| ap.boot(now, env));
        self.schedule_sample(now, s, sched);
    }

    /// Whether an event stamped `inc` belongs to switch `s`'s running
    /// Autopilot: the switch is up and has not rebooted since.
    fn current(&self, s: usize, inc: u32) -> bool {
        self.switches.up[s] && self.switches.incarnation[s] == inc
    }

    /// Arms switch `s`'s tick at the first point of its timer grid that is
    /// at or after both `now` and `due`, the Autopilot's
    /// [`timer_due`](Autopilot::timer_due), and later than the last tick
    /// handled: the tick the fixed grid would run next. A tick armed no
    /// later stays; one armed later is superseded (its event is dropped
    /// when it comes due). The bound only falls between ticks, so one
    /// comparison settles most calls.
    fn arm_tick(&mut self, now: SimTime, s: usize, due: SimTime, sched: &mut Scheduler<'_, Event>) {
        let pool = &mut self.switches;
        if due >= pool.tick_at[s] {
            return;
        }
        let res = self.params.autopilot.timer_resolution.as_nanos();
        let last = pool.last_tick[s];
        let steps = due.max(now).saturating_since(last).as_nanos().div_ceil(res);
        let at = last.checked_add(SimDuration::from_nanos(res).saturating_mul(steps.max(1)));
        if let Some(at) = at.filter(|&at| at < pool.tick_at[s]) {
            pool.tick_at[s] = at;
            let inc = pool.incarnation[s];
            sched.at(at, Event::SwitchTick { s, inc });
        }
    }

    /// Puts switch `s`'s next status sample on the grid, one sampling
    /// interval after `now`.
    fn schedule_sample(&mut self, now: SimTime, s: usize, sched: &mut Scheduler<'_, Event>) {
        let next = now + self.params.autopilot.sampling_interval;
        self.switches.sample_at[s] = next;
        let inc = self.switches.incarnation[s];
        sched.at(next, Event::SwitchSample { s, inc });
    }

    /// A live tick always runs the Autopilot; any other is dropped. One
    /// tie rule keeps the fixed grid's order: there a sample was queued
    /// 5 ms ahead and a tick 1.2 ms ahead, so the sample of a shared
    /// instant ran first, and an armed tick that pops before its own
    /// switch's sample of the same instant queues again behind it.
    pub(super) fn on_switch_tick(
        &mut self,
        now: SimTime,
        s: usize,
        inc: u32,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.current(s, inc) {
            self.stats.ticks_superseded += 1;
            self.stats.ticks_stale += 1;
            return;
        }
        if now != self.switches.tick_at[s] {
            self.stats.ticks_superseded += 1;
            return;
        }
        if now == self.switches.sample_at[s] {
            self.stats.ticks_superseded += 1;
            sched.at(now, Event::SwitchTick { s, inc });
            return;
        }
        debug_assert!(
            now >= self.switches.autopilot(s).timer_due(),
            "switch {s}: an idle tick"
        );
        self.switches.tick_at[s] = SimTime::MAX;
        self.switches.last_tick[s] = now;
        self.stats.ticks_run += 1;
        self.with_autopilot(now, s, sched, |ap, env| ap.on_tick(now, env));
    }

    /// A sampling round runs unless it would read what the last round
    /// that ran read and the Autopilot reports every sampler settled under
    /// that: then it would move nothing and repeat the verdicts held. Both
    /// kernels apply the rule; the sharded one reads the latched statuses
    /// it would sample.
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
        if self.switches.autopilot(s).sampling_settled()
            && (1..MAX_PORTS as PortIndex)
                .all(|p| self.synthesize_status(now, s, p) == self.switches.read[s][p as usize])
        {
            debug_assert!(
                (1..MAX_PORTS as PortIndex).all(|p| {
                    let status = self.switches.read[s][p as usize];
                    self.switches.autopilot(s).sampler_settled(now, p, status)
                }),
                "switch {s}: a skipped round at {now} would have moved a sampler"
            );
        } else {
            self.stats.samples_run += 1;
            self.with_autopilot(now, s, sched, |ap, env| ap.sample_ports(now, env));
        }
        self.schedule_sample(now, s, sched);
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
        if packet.ptype != PacketType::Data && self.lost(s, port, now) {
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

    /// Whether the control packet arriving at switch `s`'s `port` at
    /// `now` is lost, with probability `control_loss_rate`. The draw is
    /// keyed by the run's seed and the arrival, not taken from a stream,
    /// so it does not depend on the order in which same-instant arrivals
    /// are handled, which differs between the kernels and between
    /// partition counts. Every cable serializes its arrivals, so the key
    /// names one packet; only the zero-width reflections (a free port
    /// after 2 µs, port 0 after 1 µs) can land two packets on one key,
    /// and those share the draw.
    fn lost(&self, s: usize, port: PortIndex, now: SimTime) -> bool {
        let rate = self.params.control_loss_rate;
        rate > 0.0 && {
            let mut draw = SimRng::new(self.loss_seed);
            for part in [s as u64, u64::from(port), now.as_nanos()] {
                draw = draw.fork(part);
            }
            draw.chance(rate)
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
            self.with_autopilot(now, s, sched, |ap, env| ap.on_packet(now, port, &msg, env));
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
        self.with_autopilot(now, s, sched, |ap, env| ap.srp_request(route, payload, env));
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

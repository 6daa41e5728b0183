//! Autopilot: the switch control program.
//!
//! One instance runs on every switch's control processor and composes the
//! whole tower: per-port status samplers, per-port connectivity monitors,
//! the reconfiguration engine, forwarding-table synthesis, and the
//! host-facing short-address service. It is a *pure* state machine — the
//! environment (a simulator, or conceivably real hardware glue) feeds it
//! packets, status samples and timer ticks, and executes the [`Action`]s
//! it returns. That is also how the real Autopilot was structured: interrupt
//! handlers fed queues consumed by run-to-completion tasks under a
//! non-preemptive scheduler (companion paper §5.4).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use autonet_sim::SimTime;
use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, Uid, MAX_PORTS};

use crate::connectivity::{ConnectivityEvent, ConnectivityMonitor};
use crate::epoch::Epoch;
use crate::events::{Event, ReconfigCause, SkepticKind, SkepticVerdict, TransitionCause};
use crate::messages::{ControlMsg, SrpPayload};
use crate::params::AutopilotParams;
use crate::port_state::PortState;
use crate::reconfig::{
    MsgDisposition, NeighborInfo, ReconfigEngine, ReconfigEvent, ReconfigOutput,
};
use crate::route_cache::RouteCache;
use crate::routes::{compute_forwarding_table, program_one_hop, RouteKind};
use crate::sampler::{SamplerEvent, StatusSampler};
use crate::topology::GlobalTopology;

/// What Autopilot asks its environment to do.
#[derive(Clone, Debug)]
pub enum Action {
    /// Transmit a control message on a port.
    Send {
        /// The local port.
        port: PortIndex,
        /// The message.
        msg: ControlMsg,
    },
    /// Load a complete forwarding table into the switch hardware.
    LoadTable(ForwardingTable),
    /// Host traffic is enabled again after a completed reconfiguration.
    NetworkOpen {
        /// The completed epoch.
        epoch: Epoch,
    },
    /// Host traffic stopped (a reconfiguration began).
    NetworkClosed,
    /// Something observable happened (§6.7's event log): handed over by
    /// value, in the order it happened, for the environment to record.
    /// Emitted only while tracing is on.
    Trace(Event),
}

/// The table a switch runs with while an epoch forms: the constant
/// one-hop entries and nothing else (reconfiguration step 1). It never
/// varies, so it is built once and every join takes a copy.
fn cleared_table() -> ForwardingTable {
    static ONE_HOP: OnceLock<ForwardingTable> = OnceLock::new();
    ONE_HOP
        .get_or_init(|| {
            let mut table = ForwardingTable::new();
            program_one_hop(&mut table);
            table
        })
        .clone()
}

/// The per-switch control program.
#[derive(Clone)]
pub struct Autopilot {
    uid: Uid,
    params: AutopilotParams,
    samplers: Vec<StatusSampler>,
    monitors: Vec<ConnectivityMonitor>,
    engine: ReconfigEngine,
    open: bool,
    proposed_number: SwitchNumber,
    /// Whether entry points emit [`Action::Trace`] events.
    tracing: bool,
    /// Cause of the reconfiguration currently being started locally, so
    /// the engine's `Started` event can be logged with it. `None` means
    /// the epoch was joined from a neighbor's message.
    pending_cause: Option<ReconfigCause>,
    reconfigs_triggered: u64,
    srp_replies: Vec<SrpPayload>,
    /// Fleet-shared route cache (see [`RouteCache`]). `None` computes
    /// tables from scratch — the two paths are byte-identical; sharing
    /// only removes redundant work.
    route_cache: Option<std::sync::Arc<RouteCache>>,
}

impl Autopilot {
    /// Creates the control program for the switch with the given UID,
    /// tracing on.
    pub fn new(uid: Uid, params: AutopilotParams) -> Self {
        let samplers = (0..MAX_PORTS)
            .map(|_| StatusSampler::new(&params))
            .collect();
        let monitors = (0..MAX_PORTS)
            .map(|p| ConnectivityMonitor::new(&params, uid, p as PortIndex))
            .collect();
        Autopilot {
            uid,
            params,
            samplers,
            monitors,
            engine: ReconfigEngine::new(uid, &params),
            open: false,
            proposed_number: 1,
            tracing: true,
            pending_cause: None,
            reconfigs_triggered: 0,
            srp_replies: Vec::new(),
            route_cache: None,
        }
    }

    /// Shares a fleet-wide [`RouteCache`] with this instance: table
    /// reloads are served from it instead of recomputed from scratch.
    /// Behavior-neutral by the cache's contract; only wall-clock changes.
    pub fn set_route_cache(&mut self, cache: std::sync::Arc<RouteCache>) {
        self.route_cache = Some(cache);
    }

    /// Turns event tracing on or off. When off, no entry point returns an
    /// [`Action::Trace`]: performance runs pay one branch per would-be
    /// event and build no `TableInstalled` payload.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Hands `event` to the environment with the entry point's actions.
    fn trace(&self, actions: &mut Vec<Action>, event: Event) {
        if self.tracing {
            actions.push(Action::Trace(event));
        }
    }

    /// This switch's UID.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The timing parameters this instance runs with (the environment
    /// reads the sampling cadence and timer resolution from here).
    pub fn params(&self) -> &AutopilotParams {
        &self.params
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.engine.epoch()
    }

    /// Whether host traffic is currently enabled.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The number of reconfigurations this switch has initiated.
    pub fn reconfigs_triggered(&self) -> u64 {
        self.reconfigs_triggered
    }

    /// Reconfiguration messages this switch has handled since power-on,
    /// by disposition (joined a newer epoch / current / stale).
    pub fn reconfig_msgs(&self) -> MsgDisposition {
        self.engine.msg_disposition()
    }

    /// The topology of the last completed epoch.
    pub fn global(&self) -> Option<&GlobalTopology> {
        self.engine.global()
    }

    /// This switch's assigned number, if configured.
    pub fn switch_number(&self) -> Option<SwitchNumber> {
        self.engine.global().and_then(|g| g.number_of(self.uid))
    }

    /// The current classification of a port (the sampler state refined by
    /// the connectivity monitor for `s.switch.*` ports).
    pub fn port_state(&self, port: PortIndex) -> PortState {
        let s = self.samplers[port as usize].state();
        if s.is_switch() {
            self.monitors[port as usize].state()
        } else {
            s
        }
    }

    /// Ports currently classified `s.host`.
    pub fn host_ports(&self) -> Vec<PortIndex> {
        (1..MAX_PORTS as PortIndex)
            .filter(|&p| self.port_state(p) == PortState::Host)
            .collect()
    }

    /// Ports currently classified `s.switch.good`, with the verified
    /// neighbor identity.
    pub fn good_ports(&self) -> BTreeMap<PortIndex, NeighborInfo> {
        (1..MAX_PORTS as PortIndex)
            .filter_map(|p| {
                if self.port_state(p) != PortState::SwitchGood {
                    return None;
                }
                let n = self.monitors[p as usize].neighbor()?;
                Some((
                    p,
                    NeighborInfo {
                        uid: n.uid,
                        their_port: n.port,
                    },
                ))
            })
            .collect()
    }

    /// Power-on: configure the (so far lone) switch.
    pub fn boot(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        self.trace(&mut actions, Event::Boot { uid: self.uid });
        actions.extend(self.trigger_reconfiguration(now, ReconfigCause::Boot));
        actions
    }

    /// Feeds one port's status snapshot (called every sampling interval).
    pub fn on_status_sample(
        &mut self,
        now: SimTime,
        port: PortIndex,
        status: LinkUnitStatus,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let event = self.samplers[port as usize].on_sample(now, status);
        if let Some(SamplerEvent::Transition { from, to }) = event {
            // The cause follows from the direction on the tower: only the
            // skeptic's release leaves `s.dead`, only classification
            // leaves `s.checking` upward, and every return to `s.dead` is
            // a relapse.
            let cause = match (from, to) {
                (PortState::Dead, PortState::Checking) => TransitionCause::SkepticRelease,
                (PortState::Checking, _) if to != PortState::Dead => TransitionCause::Classified,
                _ => TransitionCause::Relapse,
            };
            self.trace(
                &mut actions,
                Event::PortTransition {
                    port,
                    from,
                    to,
                    cause,
                },
            );
            let verdict = match cause {
                TransitionCause::SkepticRelease => SkepticVerdict::Release,
                TransitionCause::Classified => SkepticVerdict::Accept,
                _ => SkepticVerdict::Hold,
            };
            self.trace(
                &mut actions,
                Event::SkepticDecision {
                    port,
                    skeptic: SkepticKind::Status,
                    verdict,
                    hold: self.samplers[port as usize].required_hold(),
                },
            );
            match (from, to) {
                (_, PortState::Host) | (PortState::Host, _) => {
                    // Host arrivals/departures patch the local table only,
                    // but keep the engine's join-time snapshot fresh.
                    let hosts = self.host_ports();
                    let proposed = self.proposed_number;
                    self.engine.update_local_info(proposed, hosts);
                    self.reload_table(&mut actions);
                    if from.is_switch() {
                        // Shouldn't happen (sampler goes via checking), but
                        // keep the monitor consistent.
                        let _ = self.monitors[port as usize].deactivate(now);
                    }
                }
                (_, PortState::SwitchWho) => {
                    self.monitors[port as usize].activate();
                }
                (state, PortState::Dead) if state.is_switch() => {
                    let was_good = self.monitors[port as usize].state() == PortState::SwitchGood;
                    let _ = self.monitors[port as usize].deactivate(now);
                    if was_good {
                        actions.extend(self.trigger_reconfiguration(now, ReconfigCause::PortDied));
                    }
                }
                _ => {}
            }
        }
        // Keep the sampler's switch refinement in sync for reporting.
        let refined = self.monitors[port as usize].state();
        self.samplers[port as usize].set_switch_refinement(refined);
        actions
    }

    /// Handles an arriving control packet.
    pub fn on_packet(&mut self, now: SimTime, port: PortIndex, msg: &ControlMsg) -> Vec<Action> {
        let mut actions = Vec::new();
        match msg {
            ControlMsg::Probe { .. } => {
                if self.samplers[port as usize].state() != PortState::Dead {
                    if let Some(reply) = ConnectivityMonitor::make_reply(self.uid, port, msg) {
                        actions.push(Action::Send { port, msg: reply });
                    }
                }
            }
            ControlMsg::ProbeReply {
                seq,
                origin,
                origin_port,
                responder,
                responder_port,
            } => {
                let ev = self.monitors[port as usize].on_reply(
                    now,
                    *seq,
                    *origin,
                    *origin_port,
                    *responder,
                    *responder_port,
                );
                match ev {
                    Some(ConnectivityEvent::BecameGood(_)) => {
                        self.trace(
                            &mut actions,
                            Event::PortTransition {
                                port,
                                from: PortState::SwitchWho,
                                to: PortState::SwitchGood,
                                cause: TransitionCause::NeighborVerified,
                            },
                        );
                        self.trace(
                            &mut actions,
                            Event::SkepticDecision {
                                port,
                                skeptic: SkepticKind::Connectivity,
                                verdict: SkepticVerdict::Release,
                                hold: self.monitors[port as usize].required_hold(),
                            },
                        );
                        actions
                            .extend(self.trigger_reconfiguration(now, ReconfigCause::NewNeighbor));
                    }
                    Some(ConnectivityEvent::LostGood) => {
                        self.log_connectivity_demotion(port, &mut actions);
                        actions
                            .extend(self.trigger_reconfiguration(now, ReconfigCause::NeighborLost));
                    }
                    Some(ConnectivityEvent::BecameLoop) => {
                        self.trace(
                            &mut actions,
                            Event::PortTransition {
                                port,
                                from: PortState::SwitchWho,
                                to: PortState::SwitchLoop,
                                cause: TransitionCause::LoopDetected,
                            },
                        );
                    }
                    None => {}
                }
            }
            ControlMsg::ShortAddrRequest { host_uid } => {
                if let Some(num) = self.switch_number() {
                    actions.push(Action::Send {
                        port,
                        msg: ControlMsg::ShortAddrReply {
                            host_uid: *host_uid,
                            addr: ShortAddress::assigned(num, port),
                        },
                    });
                }
            }
            ControlMsg::Srp {
                route,
                hop,
                back_route,
                payload,
            } => {
                actions.extend(self.handle_srp(port, route, *hop, back_route, payload));
            }
            ControlMsg::ShortAddrReply { .. } => {}
            _ => {
                // Reconfiguration protocol.
                let outs = self.engine.on_msg(now, port, msg);
                self.apply_engine_outputs(outs, &mut actions);
            }
        }
        actions
    }

    /// Timer tick at `params.timer_resolution` granularity.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        for p in 1..MAX_PORTS {
            let (probe, ev) = self.monitors[p].on_tick(now);
            if let Some(probe) = probe {
                actions.push(Action::Send {
                    port: p as PortIndex,
                    msg: probe,
                });
            }
            if let Some(ConnectivityEvent::LostGood) = ev {
                self.log_connectivity_demotion(p as PortIndex, &mut actions);
                actions.extend(self.trigger_reconfiguration(now, ReconfigCause::ProbeTimeout));
            }
        }
        let outs = self.engine.on_tick(now);
        self.apply_engine_outputs(outs, &mut actions);
        actions
    }

    /// Logs a verified switch port falling back to `s.switch.who`, with
    /// the connectivity skeptic's raised hold.
    fn log_connectivity_demotion(&self, port: PortIndex, actions: &mut Vec<Action>) {
        self.trace(
            actions,
            Event::PortTransition {
                port,
                from: PortState::SwitchGood,
                to: self.monitors[port as usize].state(),
                cause: TransitionCause::Relapse,
            },
        );
        self.trace(
            actions,
            Event::SkepticDecision {
                port,
                skeptic: SkepticKind::Connectivity,
                verdict: SkepticVerdict::Hold,
                hold: self.monitors[port as usize].required_hold(),
            },
        );
    }

    /// Starts a new epoch over the currently verified neighbor set.
    fn trigger_reconfiguration(&mut self, now: SimTime, cause: ReconfigCause) -> Vec<Action> {
        self.reconfigs_triggered += 1;
        self.pending_cause = Some(cause);
        let neighbors = self.good_ports();
        let hosts = self.host_ports();
        let proposed = self.proposed_number;
        let outs = self.engine.start(now, neighbors, proposed, hosts);
        let mut actions = Vec::new();
        self.apply_engine_outputs(outs, &mut actions);
        self.pending_cause = None;
        actions
    }

    fn apply_engine_outputs(&mut self, outs: Vec<ReconfigOutput>, actions: &mut Vec<Action>) {
        for out in outs {
            match out {
                ReconfigOutput::Send { port, msg } => actions.push(Action::Send { port, msg }),
                ReconfigOutput::ClearTable => {
                    if self.open {
                        self.open = false;
                        self.trace(
                            actions,
                            Event::NetworkClosed {
                                epoch: self.engine.epoch(),
                            },
                        );
                        actions.push(Action::NetworkClosed);
                    }
                    self.install_table(self.engine.epoch(), cleared_table(), actions);
                }
                ReconfigOutput::Completed(global) => {
                    if let Some(num) = global.number_of(self.uid) {
                        self.proposed_number = num;
                    }
                    self.reload_table(actions);
                    self.open = true;
                    self.trace(
                        actions,
                        Event::NetworkOpened {
                            epoch: global.epoch,
                        },
                    );
                    actions.push(Action::NetworkOpen {
                        epoch: global.epoch,
                    });
                }
                ReconfigOutput::Event(ReconfigEvent::Started(epoch)) => {
                    self.trace(
                        actions,
                        Event::ReconfigTriggered {
                            epoch,
                            // A locally detected cause if we started this
                            // epoch; otherwise we are joining a neighbor's.
                            cause: self.pending_cause.unwrap_or(ReconfigCause::EpochMessage),
                        },
                    );
                }
                ReconfigOutput::Event(ReconfigEvent::RootTerminated(epoch)) => {
                    self.trace(actions, Event::TreeStable { epoch });
                }
                ReconfigOutput::Event(ReconfigEvent::AddressesAssigned(epoch, switches)) => {
                    self.trace(actions, Event::AddressesAssigned { epoch, switches });
                }
            }
        }
    }

    /// Rebuilds and loads the forwarding table from the current topology
    /// and the live host-port set. The topology is borrowed in place —
    /// not cloned per reload — and served through the shared route cache
    /// when one is attached.
    fn reload_table(&mut self, actions: &mut Vec<Action>) {
        let hosts = self.host_ports();
        let Some(global) = self.engine.global() else {
            return;
        };
        let epoch = global.epoch;
        let table = match &self.route_cache {
            Some(cache) => cache.table_for(global, self.uid, &hosts),
            None => compute_forwarding_table(global, self.uid, &hosts, RouteKind::UpDown),
        };
        if let Some(table) = table {
            self.install_table(epoch, table, actions);
        } else {
            // A malformed topology (timeout-baseline failure mode): leave
            // the cleared table in place rather than load garbage routes.
            self.trace(actions, Event::UnroutableTopology { epoch });
        }
    }

    /// Loads `table` into the hardware and traces the install. The trace
    /// event carries its own copy of the table, made only when someone is
    /// recording.
    fn install_table(&self, epoch: Epoch, table: ForwardingTable, actions: &mut Vec<Action>) {
        if self.tracing {
            actions.push(Action::Trace(Event::TableInstalled {
                epoch,
                table: table.clone(),
            }));
        }
        actions.push(Action::LoadTable(table));
    }

    /// Originates a source-routed request: `route` is the sequence of
    /// outbound ports, switch by switch, starting at this switch.
    ///
    /// # Panics
    ///
    /// Panics if `route` is empty.
    pub fn srp_request(&mut self, route: Vec<PortIndex>, payload: SrpPayload) -> Vec<Action> {
        assert!(!route.is_empty(), "an SRP route needs at least one hop");
        let first = route[0];
        vec![Action::Send {
            port: first,
            msg: ControlMsg::Srp {
                route,
                hop: 1,
                back_route: Vec::new(),
                payload,
            },
        }]
    }

    /// Answers received by previously originated SRP requests, in arrival
    /// order. Draining is the caller's responsibility.
    pub fn srp_replies(&mut self) -> Vec<SrpPayload> {
        std::mem::take(&mut self.srp_replies)
    }

    /// Source-routed protocol: forward along the route (recording the
    /// return path), or answer at the final hop and source-route the reply
    /// back along the recorded ports. None of this touches forwarding
    /// tables, which is why SRP keeps working during reconfiguration.
    fn handle_srp(
        &mut self,
        in_port: PortIndex,
        route: &[PortIndex],
        hop: u8,
        back_route: &[PortIndex],
        payload: &SrpPayload,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if (hop as usize) < route.len() {
            // Forward one more hop, recording where we would send a reply.
            let mut back = back_route.to_vec();
            back.push(in_port);
            actions.push(Action::Send {
                port: route[hop as usize],
                msg: ControlMsg::Srp {
                    route: route.to_vec(),
                    hop: hop + 1,
                    back_route: back,
                    payload: payload.clone(),
                },
            });
            return actions;
        }
        // We are the final hop: either the target of a request, or the
        // originator receiving an answer.
        let reply_payload = match payload {
            SrpPayload::Ping => Some(SrpPayload::Pong {
                uid: self.uid,
                epoch: self.engine.epoch(),
            }),
            SrpPayload::GetState => Some(SrpPayload::State {
                uid: self.uid,
                epoch: self.engine.epoch(),
                good_ports: self.good_ports().len() as u8,
                open: self.open,
            }),
            SrpPayload::Pong { .. } | SrpPayload::State { .. } => {
                self.srp_replies.push(payload.clone());
                None
            }
        };
        if let Some(payload) = reply_payload {
            // Source-route the answer back: the recorded arrival ports,
            // reversed, ending with our own arrival port first.
            let mut reply_route = vec![in_port];
            reply_route.extend(back_route.iter().rev());
            let first = reply_route[0];
            actions.push(Action::Send {
                port: first,
                msg: ControlMsg::Srp {
                    route: reply_route,
                    hop: 1,
                    back_route: Vec::new(),
                    payload,
                },
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreePosition;
    use autonet_sim::SimDuration;

    fn clean_switch_status() -> LinkUnitStatus {
        LinkUnitStatus {
            start_seen: true,
            progress_seen: true,
            ..LinkUnitStatus::new()
        }
    }

    fn clean_host_status() -> LinkUnitStatus {
        LinkUnitStatus {
            is_host: true,
            start_seen: true,
            progress_seen: true,
            ..LinkUnitStatus::new()
        }
    }

    /// Two Autopilots wired port 1 <-> port 1, with ideal links.
    struct Pair {
        aps: [Autopilot; 2],
        queue: std::collections::VecDeque<(SimTime, usize, ControlMsg)>,
        now: SimTime,
        opened: [Vec<Epoch>; 2],
        loads: usize,
        traced: Vec<Event>,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                aps: [
                    Autopilot::new(Uid::new(10), AutopilotParams::tuned()),
                    Autopilot::new(Uid::new(20), AutopilotParams::tuned()),
                ],
                queue: std::collections::VecDeque::new(),
                now: SimTime::ZERO,
                opened: [Vec::new(), Vec::new()],
                loads: 0,
                traced: Vec::new(),
            }
        }

        fn boot(&mut self) {
            for who in 0..2 {
                let actions = self.aps[who].boot(SimTime::ZERO);
                self.apply(who, actions);
            }
        }

        fn apply(&mut self, who: usize, actions: Vec<Action>) {
            for a in actions {
                match a {
                    Action::Send { port: 1, msg } => {
                        self.queue.push_back((
                            self.now + SimDuration::from_micros(20),
                            1 - who,
                            msg,
                        ));
                    }
                    Action::Send { .. } => {}
                    Action::NetworkOpen { epoch } => self.opened[who].push(epoch),
                    Action::LoadTable(_) => self.loads += 1,
                    Action::Trace(event) => self.traced.push(event),
                    Action::NetworkClosed => {}
                }
            }
        }

        fn run_for(&mut self, span: SimDuration) {
            let deadline = self.now + span;
            let tick = SimDuration::from_micros(1200);
            while self.now < deadline {
                self.now += tick;
                while let Some(&(t, ..)) = self.queue.front() {
                    if t > self.now {
                        break;
                    }
                    let (_, to, msg) = self.queue.pop_front().expect("peeked");
                    let acts = self.aps[to].on_packet(self.now, 1, &msg);
                    self.apply(to, acts);
                }
                for who in 0..2 {
                    let acts = self.aps[who].on_tick(self.now);
                    self.apply(who, acts);
                    // Status sampling every ~5 ms.
                    if self.now.as_nanos() % 5_000_000 < 1_200_000 {
                        let acts =
                            self.aps[who].on_status_sample(self.now, 1, clean_switch_status());
                        self.apply(who, acts);
                    }
                }
            }
        }
    }

    #[test]
    fn lone_switch_boots_open() {
        let mut ap = Autopilot::new(Uid::new(1), AutopilotParams::tuned());
        let actions = ap.boot(SimTime::ZERO);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::NetworkOpen { .. })));
        assert!(ap.is_open());
        assert_eq!(ap.switch_number(), Some(1));
    }

    #[test]
    fn two_switches_discover_and_configure() {
        let mut pair = Pair::new();
        pair.boot();
        pair.run_for(SimDuration::from_secs(3));
        // Both ends verified the link and reconfigured together.
        assert_eq!(pair.aps[0].port_state(1), PortState::SwitchGood);
        assert_eq!(pair.aps[1].port_state(1), PortState::SwitchGood);
        assert!(pair.aps[0].is_open());
        assert!(pair.aps[1].is_open());
        let g0 = pair.aps[0].global().unwrap();
        let g1 = pair.aps[1].global().unwrap();
        assert_eq!(g0.switches.len(), 2);
        assert_eq!(g0.root, Uid::new(10));
        assert_eq!(g0.numbers, g1.numbers);
        assert_eq!(pair.aps[0].epoch(), pair.aps[1].epoch());
    }

    /// Tracing off is free at the source: no entry point of an untraced
    /// Autopilot returns an [`Action::Trace`], so no `TableInstalled`
    /// payload is ever built, while a traced twin fed the same inputs
    /// reports one install per table load and ends in the same state.
    #[test]
    fn untraced_autopilot_returns_no_trace_events() {
        let run = |tracing: bool| {
            let mut pair = Pair::new();
            pair.aps.iter_mut().for_each(|ap| ap.set_tracing(tracing));
            pair.boot();
            pair.run_for(SimDuration::from_secs(3));
            pair
        };
        let (on, off) = (run(true), run(false));
        assert!(off.traced.is_empty(), "{:?}", off.traced);
        assert!(off.loads > 0 && off.loads == on.loads);
        let installed = |e: &&Event| matches!(e, Event::TableInstalled { .. });
        assert_eq!(on.traced.iter().filter(installed).count(), on.loads);
        assert_eq!(on.opened, off.opened);
        assert!(off.aps[0].is_open() && off.aps[1].is_open());
    }

    /// What the wire hands `on_packet`: the message after a trip through
    /// the codec.
    fn from_wire(msg: &ControlMsg) -> ControlMsg {
        ControlMsg::decode(&msg.encode()).expect("well-formed")
    }

    /// A reconfiguration message claiming the top epoch is dropped, not
    /// joined, so the switch still has a next epoch to mint when its own
    /// port dies.
    #[test]
    fn reserved_epoch_from_the_wire_is_dropped() {
        let mut pair = Pair::new();
        pair.boot();
        pair.run_for(SimDuration::from_secs(3));
        let settled = pair.aps[1].epoch();
        let hostile = from_wire(&ControlMsg::TreePosition {
            epoch: Epoch(u64::MAX),
            seq: 1,
            from_port: 1,
            pos: TreePosition::myself(Uid::new(10)),
        });
        let now = pair.now;
        assert!(pair.aps[1].on_packet(now, 1, &hostile).is_empty());
        assert_eq!(pair.aps[1].epoch(), settled);
        assert_eq!(pair.aps[1].reconfig_msgs().dropped, 1);
        // The cable goes silent: the sampler condemns port 1 and the
        // switch starts the next epoch on its own.
        let before = pair.aps[1].reconfigs_triggered();
        for i in 1..200 {
            let at = now + SimDuration::from_millis(5 * i);
            pair.aps[1].on_status_sample(at, 1, LinkUnitStatus::new());
        }
        assert!(pair.aps[1].reconfigs_triggered() > before);
        assert_eq!(pair.aps[1].epoch(), settled.next());
    }

    /// A flooded topology whose parent pointers hold a cycle is adopted
    /// (it tells the truth about this switch) and found unroutable: the
    /// cleared table stays, nothing panics.
    #[test]
    fn cyclic_topology_from_the_wire_is_unroutable() {
        let mut pair = Pair::new();
        pair.aps[1].set_tracing(true);
        pair.boot();
        pair.run_for(SimDuration::from_secs(3));
        let epoch = pair.aps[1].epoch().next();
        let now = pair.now;
        // 10 opens a new epoch as root; 20 joins as its child on port 1.
        let join = from_wire(&ControlMsg::TreePosition {
            epoch,
            seq: 1,
            from_port: 1,
            pos: TreePosition::myself(Uid::new(10)),
        });
        pair.aps[1].on_packet(now, 1, &join);
        assert_eq!(pair.aps[1].epoch(), epoch);
        let down = from_wire(&ControlMsg::TopologyDown {
            epoch,
            global: crate::topology::tests::cyclic_topology(epoch),
        });
        let actions = pair.aps[1].on_packet(now, 1, &down);
        let unroutable = Event::UnroutableTopology { epoch };
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Trace(e) if *e == unroutable)),
            "{actions:?}"
        );
        assert!(!actions.iter().any(|a| matches!(a, Action::LoadTable(_))));
    }

    #[test]
    fn host_port_classification_patches_table() {
        let mut ap = Autopilot::new(Uid::new(1), AutopilotParams::tuned());
        ap.boot(SimTime::ZERO);
        // Drive port 2 through dead -> checking -> host.
        let mut now = SimTime::ZERO;
        let mut table_loads = 0;
        for _ in 0..200 {
            now += SimDuration::from_millis(5);
            let acts = ap.on_status_sample(now, 2, clean_host_status());
            table_loads += acts
                .iter()
                .filter(|a| matches!(a, Action::LoadTable(_)))
                .count();
            if ap.port_state(2) == PortState::Host {
                break;
            }
        }
        assert_eq!(ap.port_state(2), PortState::Host);
        assert!(table_loads > 0, "host arrival must reload the table");
        assert_eq!(ap.host_ports(), vec![2]);
    }

    #[test]
    fn short_address_service() {
        let mut ap = Autopilot::new(Uid::new(1), AutopilotParams::tuned());
        ap.boot(SimTime::ZERO);
        let req = ControlMsg::ShortAddrRequest {
            host_uid: Uid::new(500),
        };
        let actions = ap.on_packet(SimTime::from_millis(1), 4, &req);
        let reply = actions.iter().find_map(|a| match a {
            Action::Send { port: 4, msg } => Some(msg.clone()),
            _ => None,
        });
        assert_eq!(
            reply,
            Some(ControlMsg::ShortAddrReply {
                host_uid: Uid::new(500),
                addr: ShortAddress::assigned(1, 4),
            })
        );
    }

    #[test]
    fn srp_ping_answered_at_target() {
        let mut ap = Autopilot::new(Uid::new(9), AutopilotParams::tuned());
        ap.boot(SimTime::ZERO);
        // hop == route.len(): we are the target.
        let msg = ControlMsg::Srp {
            route: vec![3],
            hop: 1,
            back_route: vec![7],
            payload: SrpPayload::Ping,
        };
        let actions = ap.on_packet(SimTime::from_millis(1), 5, &msg);
        let reply = actions.iter().find_map(|a| match a {
            Action::Send { port: 5, msg } => Some(msg.clone()),
            _ => None,
        });
        // The reply is source-routed back: first out our arrival port (5),
        // then the recorded back-route in reverse (7).
        assert!(
            matches!(
                &reply,
                Some(ControlMsg::Srp {
                    route,
                    hop: 1,
                    payload: SrpPayload::Pong { uid, .. },
                    ..
                }) if *uid == Uid::new(9) && route == &vec![5, 7]
            ),
            "{reply:?}"
        );
    }

    #[test]
    fn srp_forwards_along_route() {
        let mut ap = Autopilot::new(Uid::new(9), AutopilotParams::tuned());
        ap.boot(SimTime::ZERO);
        let msg = ControlMsg::Srp {
            route: vec![3, 7],
            hop: 1,
            back_route: vec![],
            payload: SrpPayload::GetState,
        };
        let actions = ap.on_packet(SimTime::from_millis(1), 5, &msg);
        // Forwarded out port 7 with our arrival port recorded for the way
        // back.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                port: 7,
                msg: ControlMsg::Srp { hop: 2, back_route, .. }
            } if back_route == &vec![5]
        )));
    }

    #[test]
    fn probe_ignored_on_dead_port() {
        let mut ap = Autopilot::new(Uid::new(9), AutopilotParams::tuned());
        ap.boot(SimTime::ZERO);
        let probe = ControlMsg::Probe {
            seq: 1,
            origin: Uid::new(1),
            origin_port: 1,
        };
        // Port 6 has never produced clean samples: still s.dead.
        let actions = ap.on_packet(SimTime::from_millis(1), 6, &probe);
        assert!(actions.is_empty());
    }
}

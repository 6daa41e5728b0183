//! Autopilot: the switch control program.
//!
//! One instance runs on every switch's control processor and composes the
//! whole tower: per-port status samplers, per-port connectivity monitors,
//! the reconfiguration engine, forwarding-table synthesis, and the
//! host-facing short-address service. It is a run-to-completion state
//! machine — the backend (a simulator, or conceivably real hardware glue)
//! feeds it packets, status samples and timer ticks, and each entry point
//! calls the [`Environment`] it is handed for whatever must happen to the
//! switch, in the order it happens. That is also how the real Autopilot was
//! structured: interrupt handlers fed queues consumed by run-to-completion
//! tasks under a non-preemptive scheduler (companion paper §5.4).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use autonet_sim::SimTime;
use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_wire::{PortIndex, ShortAddress, SwitchNumber, Uid, MAX_PORTS};

use crate::connectivity::{ConnectivityEvent, ConnectivityMonitor};
use crate::env::Environment;
use crate::epoch::Epoch;
use crate::events::{Event, ReconfigCause, SkepticKind, SkepticVerdict, TransitionCause};
use crate::messages::{ControlMsg, SrpPayload};
use crate::params::AutopilotParams;
use crate::port_state::PortState;
use crate::reconfig::{
    MsgDisposition, NeighborInfo, ReconfigEngine, ReconfigEvent, ReconfigOutput,
};
use crate::route_cache::RouteCache;
use crate::routes::program_one_hop;
use crate::sampler::{SamplerEvent, StatusSampler};
use crate::topology::GlobalTopology;

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
    /// Whether entry points hand events to [`Environment::trace`].
    tracing: bool,
    /// Cause of the reconfiguration currently being started locally, so
    /// the engine's `Started` event can be logged with it. `None` means
    /// the epoch was joined from a neighbor's message.
    pending_cause: Option<ReconfigCause>,
    reconfigs_triggered: u64,
    srp_replies: Vec<SrpPayload>,
    /// Where tables come from (see [`RouteCache`]): a private cache until
    /// [`set_route_cache`](Autopilot::set_route_cache) swaps in the
    /// fleet's.
    route_cache: Arc<RouteCache>,
    /// A lower bound on the next instant [`on_tick`](Autopilot::on_tick)
    /// acts (see [`timer_due`](Autopilot::timer_due)).
    timer_due: SimTime,
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
            route_cache: Arc::new(RouteCache::new()),
            timer_due: SimTime::ZERO,
        }
    }

    /// Shares a fleet-wide [`RouteCache`] with this instance: table
    /// reloads are served from it instead of from the private one.
    /// Behavior-neutral by the cache's contract; only wall-clock changes.
    pub fn set_route_cache(&mut self, cache: Arc<RouteCache>) {
        self.route_cache = cache;
    }

    /// Turns event tracing on or off. When off, no entry point calls
    /// [`Environment::trace`]: performance runs pay one branch per
    /// would-be event and build no `TableInstalled` payload.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Hands `event` to the environment, if anyone is recording.
    fn trace(&self, env: &mut impl Environment, event: Event) {
        if self.tracing {
            env.trace(event);
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

    /// A lower bound on the next instant at which [`on_tick`] would call
    /// the environment or change any state: a tick before it may be
    /// skipped. A full tick sets it exactly, from the connectivity
    /// monitors' [`due`] times and the reconfiguration engine's
    /// retransmit and quiescence deadlines; between ticks every other
    /// entry point only ever lowers it, in O(1) — to a replying port's
    /// `due`, or to `now` on a monitor activation or any engine input.
    ///
    /// [`on_tick`]: Autopilot::on_tick
    /// [`due`]: ConnectivityMonitor::due
    pub fn timer_due(&self) -> SimTime {
        self.timer_due
    }

    /// Lowers [`timer_due`](Autopilot::timer_due) to `at`.
    fn lower_timer_due(&mut self, at: SimTime) {
        self.timer_due = self.timer_due.min(at);
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

    /// Epochs in which this switch, as root, refused to terminate on a
    /// collected topology of more switches than short addresses can
    /// number.
    pub fn oversized_refusals(&self) -> u64 {
        self.engine.oversized_refusals()
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
    pub fn boot(&mut self, now: SimTime, env: &mut impl Environment) {
        self.trace(env, Event::Boot { uid: self.uid });
        self.trigger_reconfiguration(now, ReconfigCause::Boot, env);
    }

    /// Feeds one port's status snapshot (called every sampling interval).
    pub fn on_status_sample(
        &mut self,
        now: SimTime,
        port: PortIndex,
        status: LinkUnitStatus,
        env: &mut impl Environment,
    ) {
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
                env,
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
                env,
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
                    self.lower_timer_due(now);
                    self.reload_table(env);
                    if from.is_switch() {
                        // Shouldn't happen (sampler goes via checking), but
                        // keep the monitor consistent.
                        let _ = self.monitors[port as usize].deactivate(now);
                    }
                }
                (_, PortState::SwitchWho) => {
                    self.monitors[port as usize].activate();
                    self.lower_timer_due(now);
                }
                (state, PortState::Dead) if state.is_switch() => {
                    let was_good = self.monitors[port as usize].state() == PortState::SwitchGood;
                    let _ = self.monitors[port as usize].deactivate(now);
                    if was_good {
                        self.trigger_reconfiguration(now, ReconfigCause::PortDied, env);
                    }
                }
                _ => {}
            }
        }
        // Keep the sampler's switch refinement in sync for reporting.
        let refined = self.monitors[port as usize].state();
        self.samplers[port as usize].set_switch_refinement(refined);
    }

    /// Handles an arriving control packet.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        port: PortIndex,
        msg: &ControlMsg,
        env: &mut impl Environment,
    ) {
        match msg {
            ControlMsg::Probe { .. } => {
                if self.samplers[port as usize].state() != PortState::Dead {
                    if let Some(reply) = ConnectivityMonitor::make_reply(self.uid, port, msg) {
                        env.send(port, &reply);
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
                self.lower_timer_due(self.monitors[port as usize].due());
                match ev {
                    Some(ConnectivityEvent::BecameGood(_)) => {
                        self.trace(
                            env,
                            Event::PortTransition {
                                port,
                                from: PortState::SwitchWho,
                                to: PortState::SwitchGood,
                                cause: TransitionCause::NeighborVerified,
                            },
                        );
                        self.trace(
                            env,
                            Event::SkepticDecision {
                                port,
                                skeptic: SkepticKind::Connectivity,
                                verdict: SkepticVerdict::Release,
                                hold: self.monitors[port as usize].required_hold(),
                            },
                        );
                        self.trigger_reconfiguration(now, ReconfigCause::NewNeighbor, env);
                    }
                    Some(ConnectivityEvent::LostGood) => {
                        self.log_connectivity_demotion(port, env);
                        self.trigger_reconfiguration(now, ReconfigCause::NeighborLost, env);
                    }
                    Some(ConnectivityEvent::BecameLoop) => {
                        self.trace(
                            env,
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
                    let reply = ControlMsg::ShortAddrReply {
                        host_uid: *host_uid,
                        addr: ShortAddress::assigned(num, port),
                    };
                    env.send(port, &reply);
                }
            }
            ControlMsg::Srp {
                route,
                hop,
                back_route,
                payload,
            } => {
                self.handle_srp(port, route, *hop, back_route, payload, env);
            }
            ControlMsg::ShortAddrReply { .. } => {}
            _ => {
                // Reconfiguration protocol.
                let outs = self.engine.on_msg(now, port, msg);
                self.lower_timer_due(now);
                self.apply_engine_outputs(outs, env);
            }
        }
    }

    /// Timer tick at `params.timer_resolution` granularity.
    pub fn on_tick(&mut self, now: SimTime, env: &mut impl Environment) {
        for p in 1..MAX_PORTS {
            let (probe, ev) = self.monitors[p].on_tick(now);
            if let Some(probe) = probe {
                env.send(p as PortIndex, &probe);
            }
            if let Some(ConnectivityEvent::LostGood) = ev {
                self.log_connectivity_demotion(p as PortIndex, env);
                self.trigger_reconfiguration(now, ReconfigCause::ProbeTimeout, env);
            }
        }
        let outs = self.engine.on_tick(now);
        self.apply_engine_outputs(outs, env);
        let monitors = self.monitors[1..].iter().map(ConnectivityMonitor::due);
        self.timer_due = monitors.fold(self.engine.next_due(), SimTime::min);
    }

    /// Logs a verified switch port falling back to `s.switch.who`, with
    /// the connectivity skeptic's raised hold.
    fn log_connectivity_demotion(&self, port: PortIndex, env: &mut impl Environment) {
        self.trace(
            env,
            Event::PortTransition {
                port,
                from: PortState::SwitchGood,
                to: self.monitors[port as usize].state(),
                cause: TransitionCause::Relapse,
            },
        );
        self.trace(
            env,
            Event::SkepticDecision {
                port,
                skeptic: SkepticKind::Connectivity,
                verdict: SkepticVerdict::Hold,
                hold: self.monitors[port as usize].required_hold(),
            },
        );
    }

    /// Starts a new epoch over the currently verified neighbor set.
    fn trigger_reconfiguration(
        &mut self,
        now: SimTime,
        cause: ReconfigCause,
        env: &mut impl Environment,
    ) {
        self.reconfigs_triggered += 1;
        self.pending_cause = Some(cause);
        let neighbors = self.good_ports();
        let hosts = self.host_ports();
        let proposed = self.proposed_number;
        let outs = self.engine.start(now, neighbors, proposed, hosts);
        self.lower_timer_due(now);
        self.apply_engine_outputs(outs, env);
        self.pending_cause = None;
    }

    fn apply_engine_outputs(&mut self, outs: Vec<ReconfigOutput>, env: &mut impl Environment) {
        for out in outs {
            match out {
                ReconfigOutput::Send { port, msg } => env.send(port, &msg),
                ReconfigOutput::ClearTable => {
                    if self.open {
                        self.open = false;
                        self.trace(
                            env,
                            Event::NetworkClosed {
                                epoch: self.engine.epoch(),
                            },
                        );
                        env.network_closed();
                    }
                    self.install_table(self.engine.epoch(), cleared_table(), env);
                }
                ReconfigOutput::Completed(global) => {
                    if let Some(num) = global.number_of(self.uid) {
                        self.proposed_number = num;
                    }
                    self.reload_table(env);
                    self.open = true;
                    self.trace(
                        env,
                        Event::NetworkOpened {
                            epoch: global.epoch,
                        },
                    );
                    env.network_opened(global.epoch);
                }
                ReconfigOutput::Event(ReconfigEvent::Started(epoch)) => {
                    self.trace(
                        env,
                        Event::ReconfigTriggered {
                            epoch,
                            // A locally detected cause if we started this
                            // epoch; otherwise we are joining a neighbor's.
                            cause: self.pending_cause.unwrap_or(ReconfigCause::EpochMessage),
                        },
                    );
                }
                ReconfigOutput::Event(ReconfigEvent::RootTerminated(epoch)) => {
                    self.trace(env, Event::TreeStable { epoch });
                }
                ReconfigOutput::Event(ReconfigEvent::AddressesAssigned(epoch, switches)) => {
                    self.trace(env, Event::AddressesAssigned { epoch, switches });
                }
            }
        }
    }

    /// Rebuilds and loads the forwarding table from the current topology
    /// and the live host-port set. The topology is borrowed in place —
    /// not cloned per reload — and served through the route cache.
    fn reload_table(&mut self, env: &mut impl Environment) {
        let hosts = self.host_ports();
        let Some(global) = self.engine.global() else {
            return;
        };
        let epoch = global.epoch;
        if let Some(table) = self.route_cache.table_for(global, self.uid, &hosts) {
            self.install_table(epoch, table, env);
        } else {
            // A malformed topology (timeout-baseline failure mode): leave
            // the cleared table in place rather than load garbage routes.
            self.trace(env, Event::UnroutableTopology { epoch });
        }
    }

    /// Loads `table` into the hardware and traces the install. The trace
    /// event carries its own copy of the table, made only when someone is
    /// recording.
    fn install_table(&self, epoch: Epoch, table: ForwardingTable, env: &mut impl Environment) {
        if self.tracing {
            env.trace(Event::TableInstalled {
                epoch,
                table: table.clone(),
            });
        }
        env.load_table(table);
    }

    /// Originates a source-routed request: `route` is the sequence of
    /// outbound ports, switch by switch, starting at this switch.
    ///
    /// # Panics
    ///
    /// Panics if `route` is empty.
    pub fn srp_request(
        &mut self,
        route: Vec<PortIndex>,
        payload: SrpPayload,
        env: &mut impl Environment,
    ) {
        assert!(!route.is_empty(), "an SRP route needs at least one hop");
        let first = route[0];
        let msg = ControlMsg::Srp {
            route,
            hop: 1,
            back_route: Vec::new(),
            payload,
        };
        env.send(first, &msg);
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
        env: &mut impl Environment,
    ) {
        if (hop as usize) < route.len() {
            // Forward one more hop, recording where we would send a reply.
            let mut back = back_route.to_vec();
            back.push(in_port);
            let msg = ControlMsg::Srp {
                route: route.to_vec(),
                hop: hop + 1,
                back_route: back,
                payload: payload.clone(),
            };
            env.send(route[hop as usize], &msg);
            return;
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
            let msg = ControlMsg::Srp {
                route: reply_route,
                hop: 1,
                back_route: Vec::new(),
                payload,
            };
            env.send(in_port, &msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::recording::{Call, Recorder};
    use crate::tree::TreePosition;
    use autonet_sim::SimDuration;
    use std::collections::VecDeque;

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
        /// When set, a twin of each switch that also runs every tick the
        /// switch itself skips for falling before its `timer_due`, and
        /// must make the same calls at every other entry point.
        twins: Option<[Autopilot; 2]>,
        /// Ticks offered so far, and how many of them were skipped.
        ticks: usize,
        skipped: usize,
        /// Whether the cable is cut: nothing crosses it, and port 1
        /// samples code violations.
        cut: bool,
        /// When set, every n-th message put on the wire is lost.
        loss: Option<usize>,
        sent: usize,
        queue: VecDeque<(SimTime, usize, ControlMsg)>,
        now: SimTime,
        /// What each entry point so far asked of its environment, with
        /// the switch it ran on (entry points that asked nothing aside).
        log: Vec<(usize, Vec<Call>)>,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                aps: [
                    Autopilot::new(Uid::new(10), AutopilotParams::tuned()),
                    Autopilot::new(Uid::new(20), AutopilotParams::tuned()),
                ],
                twins: None,
                ticks: 0,
                skipped: 0,
                cut: false,
                loss: None,
                sent: 0,
                queue: VecDeque::new(),
                now: SimTime::ZERO,
                log: Vec::new(),
            }
        }

        /// Runs one entry point of switch `who` (and of its twin) and puts
        /// what it sent out of port 1 on the wire to the other switch.
        fn enter(&mut self, who: usize, f: impl Fn(&mut Autopilot, &mut Recorder)) {
            let mut env = Recorder::default();
            f(&mut self.aps[who], &mut env);
            if let Some(twins) = &mut self.twins {
                let mut twin = Recorder::default();
                f(&mut twins[who], &mut twin);
                assert_eq!(twin.calls, env.calls, "switch {who} at {:?}", self.now);
            }
            for call in &env.calls {
                if let Call::Send(1, msg) = call {
                    self.sent += 1;
                    if self.cut || self.loss.is_some_and(|n| self.sent.is_multiple_of(n)) {
                        continue;
                    }
                    let at = self.now + SimDuration::from_micros(20);
                    self.queue.push_back((at, 1 - who, msg.clone()));
                }
            }
            if !env.calls.is_empty() {
                self.log.push((who, env.calls));
            }
        }

        /// Every call so far, in order.
        fn calls(&self) -> impl Iterator<Item = &Call> {
            self.log.iter().flat_map(|(_, calls)| calls)
        }

        /// One timer tick of switch `who`. With twins, a tick before the
        /// switch's `timer_due` is skipped, and the twin runs it instead:
        /// it must make no call.
        fn tick(&mut self, who: usize) {
            let now = self.now;
            self.ticks += 1;
            if let Some(twins) = &mut self.twins {
                if now < self.aps[who].timer_due() {
                    let mut env = Recorder::default();
                    twins[who].on_tick(now, &mut env);
                    assert!(env.calls.is_empty(), "{who} at {now:?}: {:?}", env.calls);
                    self.skipped += 1;
                    return;
                }
            }
            self.enter(who, |ap, env| ap.on_tick(now, env));
        }

        fn boot(&mut self) {
            for who in 0..2 {
                self.enter(who, |ap, env| ap.boot(SimTime::ZERO, env));
            }
        }

        fn run_for(&mut self, span: SimDuration) {
            let deadline = self.now + span;
            let tick = SimDuration::from_micros(1200);
            while self.now < deadline {
                self.now += tick;
                let now = self.now;
                while let Some(&(t, ..)) = self.queue.front() {
                    if t > now {
                        break;
                    }
                    let (_, to, msg) = self.queue.pop_front().expect("peeked");
                    self.enter(to, |ap, env| ap.on_packet(now, 1, &msg, env));
                }
                let status = if self.cut {
                    LinkUnitStatus {
                        bad_code: true,
                        ..LinkUnitStatus::new()
                    }
                } else {
                    clean_switch_status()
                };
                for who in 0..2 {
                    self.tick(who);
                    // Status sampling every ~5 ms.
                    if now.as_nanos() % 5_000_000 < 1_200_000 {
                        self.enter(who, |ap, env| ap.on_status_sample(now, 1, status, env));
                    }
                }
            }
        }

        /// A booted pair that has run long enough to configure together.
        fn settled() -> Pair {
            let mut pair = Pair::new();
            pair.boot();
            pair.run_for(SimDuration::from_secs(3));
            pair
        }

        fn count(&self, pred: impl Fn(&Call) -> bool) -> usize {
            self.calls().filter(|c| pred(c)).count()
        }
    }

    /// A lone booted switch.
    fn booted(uid: u64) -> Autopilot {
        let mut ap = Autopilot::new(Uid::new(uid), AutopilotParams::tuned());
        ap.boot(SimTime::ZERO, &mut Recorder::default());
        ap
    }

    #[test]
    fn lone_switch_boots_open() {
        let mut ap = Autopilot::new(Uid::new(1), AutopilotParams::tuned());
        let mut env = Recorder::default();
        ap.boot(SimTime::ZERO, &mut env);
        assert_eq!(env.count(|c| matches!(c, Call::NetworkOpened(_))), 1);
        assert!(ap.is_open());
        assert_eq!(ap.switch_number(), Some(1));
    }

    #[test]
    fn two_switches_discover_and_configure() {
        let pair = Pair::settled();
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

    /// The seam contract of `timer_due`: through boot, sampling, probe
    /// replies, a port death and two reconfigurations, the second over a
    /// lossy cable that needs every retransmit timer, every tick before a
    /// switch's `timer_due` would have made no call, and skipping it
    /// leaves every later entry point's calls unchanged.
    #[test]
    fn ticks_before_timer_due_would_make_no_call() {
        let mut pair = Pair::new();
        pair.twins = Some(pair.aps.clone());
        pair.boot();
        pair.run_for(SimDuration::from_secs(3));
        let formed = |pair: &Pair| {
            pair.aps
                .iter()
                .all(|ap| ap.is_open() && ap.port_state(1) == PortState::SwitchGood)
        };
        assert!(formed(&pair));
        let epoch = pair.aps[0].epoch();
        pair.cut = true;
        pair.run_for(SimDuration::from_secs(1));
        assert!(pair
            .aps
            .iter()
            .all(|ap| ap.port_state(1) == PortState::Dead));
        assert!(pair.aps[0].epoch() > epoch);
        let epoch = pair.aps[0].epoch();
        pair.cut = false;
        pair.loss = Some(3);
        pair.run_for(SimDuration::from_secs(10));
        assert!(formed(&pair));
        assert!(pair.aps[0].epoch() > epoch);
        // Idle ticks are the rule, not the exception.
        assert!(
            pair.skipped * 10 > pair.ticks * 8,
            "{} of {}",
            pair.skipped,
            pair.ticks
        );
    }

    /// One call as a word: a traced event is its kind, an effect is in
    /// capitals. Probe traffic is left out.
    fn word(call: &Call) -> Option<String> {
        Some(match call {
            Call::Send(_, ControlMsg::Probe { .. } | ControlMsg::ProbeReply { .. }) => return None,
            Call::Send(port, msg) => {
                let debug = format!("{msg:?}");
                format!(
                    "SEND({port},{})",
                    debug.split(' ').next().unwrap_or_default()
                )
            }
            Call::LoadTable(_) => "LOAD".into(),
            Call::SetPortDead(..) => return None,
            Call::NetworkOpened(epoch) => format!("OPEN({})", epoch.0),
            Call::NetworkClosed => "CLOSE".into(),
            Call::Trace(event) => event.kind().into(),
        })
    }

    /// The seam's contract is an order: every effect of a two-switch
    /// bring-up, one line per entry point, in the order it made its calls.
    /// Moving a call inside an entry point moves a word here.
    #[test]
    fn bring_up_makes_its_environment_calls_in_this_order() {
        let pair = Pair::settled();
        let got: Vec<String> = pair
            .log
            .iter()
            .filter_map(|(who, calls)| {
                let words: Vec<String> = calls.iter().filter_map(word).collect();
                (!words.is_empty()).then(|| format!("{who}: {}", words.join(" ")))
            })
            .collect();
        // Each boots alone (epoch 1); both classify port 1 (dead ->
        // checking -> s.switch.who) and verify the neighbour; each starts
        // epoch 2 on its own `BecameGood`; 10 becomes root, floods the
        // topology and opens; 20 opens on the flood.
        const ALONE: &str = "boot reconfig-triggered table-installed LOAD tree-stable \
            addresses-assigned table-installed LOAD network-opened OPEN(1)";
        const START: &str = "port-transition skeptic-decision reconfig-triggered \
            network-closed CLOSE table-installed LOAD SEND(1,TreePosition)";
        let want = [
            format!("0: {ALONE}"),
            format!("1: {ALONE}"),
            "0: port-transition skeptic-decision".into(),
            "1: port-transition skeptic-decision".into(),
            "0: port-transition skeptic-decision".into(),
            "1: port-transition skeptic-decision".into(),
            format!("0: {START}"),
            format!("1: {START}"),
            "1: SEND(1,TreePosition) SEND(1,TreePositionAck)".into(),
            "0: SEND(1,TreePositionAck)".into(),
            "0: SEND(1,TreePositionAck)".into(),
            "1: SEND(1,TopologyReport)".into(),
            "0: SEND(1,TopologyReportAck) tree-stable addresses-assigned SEND(1,TopologyDown) \
                table-installed LOAD network-opened OPEN(2)"
                .into(),
            "1: SEND(1,TopologyDownAck) table-installed LOAD network-opened OPEN(2)".into(),
        ];
        assert_eq!(got, want, "{got:#?}");
    }

    /// Tracing off is free at the source: no entry point of an untraced
    /// Autopilot calls [`Environment::trace`], so no `TableInstalled`
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
        assert_eq!(off.count(|c| matches!(c, Call::Trace(_))), 0);
        let loads = |p: &Pair| p.count(|c| matches!(c, Call::LoadTable(_)));
        assert!(loads(&off) > 0 && loads(&off) == loads(&on));
        let installed = |c: &Call| matches!(c, Call::Trace(Event::TableInstalled { .. }));
        assert_eq!(on.count(installed), loads(&on));
        let untraced = |p: &Pair| -> Vec<Call> {
            let keep = |c: &&Call| !matches!(c, Call::Trace(_));
            p.calls().filter(keep).cloned().collect()
        };
        assert_eq!(untraced(&on), untraced(&off));
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
        let mut pair = Pair::settled();
        let settled = pair.aps[1].epoch();
        let hostile = from_wire(&ControlMsg::TreePosition {
            epoch: Epoch(u64::MAX),
            seq: 1,
            from_port: 1,
            pos: TreePosition::myself(Uid::new(10)),
        });
        let now = pair.now;
        let mut env = Recorder::default();
        pair.aps[1].on_packet(now, 1, &hostile, &mut env);
        assert!(env.calls.is_empty(), "{:?}", env.calls);
        assert_eq!(pair.aps[1].epoch(), settled);
        assert_eq!(pair.aps[1].reconfig_msgs().dropped, 1);
        // The cable goes silent: the sampler condemns port 1 and the
        // switch starts the next epoch on its own.
        let before = pair.aps[1].reconfigs_triggered();
        for i in 1..200 {
            let at = now + SimDuration::from_millis(5 * i);
            pair.aps[1].on_status_sample(at, 1, LinkUnitStatus::new(), &mut env);
        }
        assert!(pair.aps[1].reconfigs_triggered() > before);
        assert_eq!(pair.aps[1].epoch(), settled.next());
    }

    /// A flooded topology whose parent pointers hold a cycle is adopted
    /// (it tells the truth about this switch) and found unroutable: the
    /// cleared table stays, nothing panics.
    #[test]
    fn cyclic_topology_from_the_wire_is_unroutable() {
        let mut pair = Pair::settled();
        let epoch = pair.aps[1].epoch().next();
        let now = pair.now;
        // 10 opens a new epoch as root; 20 joins as its child on port 1.
        let join = from_wire(&ControlMsg::TreePosition {
            epoch,
            seq: 1,
            from_port: 1,
            pos: TreePosition::myself(Uid::new(10)),
        });
        pair.aps[1].on_packet(now, 1, &join, &mut Recorder::default());
        assert_eq!(pair.aps[1].epoch(), epoch);
        let down = from_wire(&ControlMsg::TopologyDown {
            epoch,
            global: crate::topology::tests::cyclic_topology(epoch),
        });
        let mut env = Recorder::default();
        pair.aps[1].on_packet(now, 1, &down, &mut env);
        let unroutable = Event::UnroutableTopology { epoch };
        assert!(env.traced().contains(&&unroutable), "{:?}", env.calls);
        assert_eq!(env.count(|c| matches!(c, Call::LoadTable(_))), 0);
    }

    #[test]
    fn host_port_classification_patches_table() {
        let mut ap = booted(1);
        // Drive port 2 through dead -> checking -> host.
        let mut now = SimTime::ZERO;
        let mut env = Recorder::default();
        for _ in 0..200 {
            now += SimDuration::from_millis(5);
            ap.on_status_sample(now, 2, clean_host_status(), &mut env);
            if ap.port_state(2) == PortState::Host {
                break;
            }
        }
        assert_eq!(ap.port_state(2), PortState::Host);
        assert!(
            env.count(|c| matches!(c, Call::LoadTable(_))) > 0,
            "host arrival must reload the table"
        );
        assert_eq!(ap.host_ports(), vec![2]);
    }

    #[test]
    fn short_address_service() {
        let mut ap = booted(1);
        let req = ControlMsg::ShortAddrRequest {
            host_uid: Uid::new(500),
        };
        let mut env = Recorder::default();
        ap.on_packet(SimTime::from_millis(1), 4, &req, &mut env);
        assert_eq!(
            env.sent_on(4),
            [&ControlMsg::ShortAddrReply {
                host_uid: Uid::new(500),
                addr: ShortAddress::assigned(1, 4),
            }]
        );
    }

    #[test]
    fn srp_ping_answered_at_target() {
        let mut ap = booted(9);
        // hop == route.len(): we are the target.
        let msg = ControlMsg::Srp {
            route: vec![3],
            hop: 1,
            back_route: vec![7],
            payload: SrpPayload::Ping,
        };
        let mut env = Recorder::default();
        ap.on_packet(SimTime::from_millis(1), 5, &msg, &mut env);
        // The reply is source-routed back: first out our arrival port (5),
        // then the recorded back-route in reverse (7).
        let reply = env.sent_on(5);
        assert!(
            matches!(
                reply.as_slice(),
                [ControlMsg::Srp {
                    route,
                    hop: 1,
                    payload: SrpPayload::Pong { uid, .. },
                    ..
                }] if *uid == Uid::new(9) && route == &vec![5, 7]
            ),
            "{reply:?}"
        );
    }

    #[test]
    fn srp_forwards_along_route() {
        let mut ap = booted(9);
        let msg = ControlMsg::Srp {
            route: vec![3, 7],
            hop: 1,
            back_route: vec![],
            payload: SrpPayload::GetState,
        };
        let mut env = Recorder::default();
        ap.on_packet(SimTime::from_millis(1), 5, &msg, &mut env);
        // Forwarded out port 7 with our arrival port recorded for the way
        // back.
        assert!(matches!(
            env.sent_on(7).as_slice(),
            [ControlMsg::Srp { hop: 2, back_route, .. }] if back_route == &vec![5]
        ));
    }

    #[test]
    fn probe_ignored_on_dead_port() {
        let mut ap = booted(9);
        let probe = ControlMsg::Probe {
            seq: 1,
            origin: Uid::new(1),
            origin_port: 1,
        };
        // Port 6 has never produced clean samples: still s.dead.
        let mut env = Recorder::default();
        ap.on_packet(SimTime::from_millis(1), 6, &probe, &mut env);
        assert!(env.calls.is_empty());
    }
}

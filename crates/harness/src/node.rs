//! One Autopilot plus the machinery to run it over any [`Environment`].

use autonet_core::{Action, Autopilot, ControlMsg, SrpPayload};
use autonet_sim::{SimDuration, SimTime};
use autonet_switch::LinkUnitStatus;
use autonet_wire::{PortIndex, MAX_PORTS};

use crate::env::Environment;

/// Owns one [`Autopilot`] and drives it over an [`Environment`]:
/// executes every [`Action`] the control program emits and keeps the
/// tick/sample cadence bookkeeping derived from its parameters.
///
/// Backends choose *when* to call the entry points (an event queue
/// schedules them in the packet-level network; the slot loop polls
/// [`poll`](NodeHarness::poll) every slot), but the translation from
/// actions to environment calls lives here exactly once.
#[derive(Clone)]
pub struct NodeHarness {
    ap: Autopilot,
    next_tick: SimTime,
    next_sample: SimTime,
}

impl NodeHarness {
    /// Wraps a freshly constructed Autopilot.
    pub fn new(ap: Autopilot) -> Self {
        NodeHarness {
            ap,
            next_tick: SimTime::ZERO,
            next_sample: SimTime::ZERO,
        }
    }

    /// The control program, for inspection.
    pub fn autopilot(&self) -> &Autopilot {
        &self.ap
    }

    /// The control program, mutably (the tracing switch, SRP replies).
    pub fn autopilot_mut(&mut self) -> &mut Autopilot {
        &mut self.ap
    }

    /// The timer-tick period this Autopilot runs at.
    pub fn tick_period(&self) -> SimDuration {
        self.ap.params().timer_resolution
    }

    /// The status-sampling period this Autopilot runs at.
    pub fn sample_period(&self) -> SimDuration {
        self.ap.params().sampling_interval
    }

    /// When the next timer tick is due (set by [`boot`](Self::boot)).
    pub fn next_tick(&self) -> SimTime {
        self.next_tick
    }

    /// When the next status sample is due.
    pub fn next_sample(&self) -> SimTime {
        self.next_sample
    }

    /// Boots the control program and starts both cadences.
    pub fn boot<E: Environment>(&mut self, now: SimTime, env: &mut E) {
        let actions = self.ap.boot(now);
        self.execute(now, actions, env);
        self.next_tick = now + self.tick_period();
        self.next_sample = now + self.sample_period();
    }

    /// One timer tick (probe/retransmit timers). The caller either honors
    /// [`next_tick`](Self::next_tick) or uses [`poll`](Self::poll).
    pub fn tick<E: Environment>(&mut self, now: SimTime, env: &mut E) {
        let actions = self.ap.on_tick(now);
        self.execute(now, actions, env);
        self.next_tick = now + self.tick_period();
    }

    /// One full status-sampling round: reads every port's hardware status
    /// from the environment, feeds it to the sampler tower, and pushes the
    /// resulting dead/alive verdicts back down (the `idhy` hardware hook).
    pub fn sample<E: Environment>(&mut self, now: SimTime, env: &mut E) {
        for port in 1..MAX_PORTS as PortIndex {
            if let Some(status) = env.read_status(now, port) {
                self.sample_port(now, port, status, env);
            }
        }
        let is_root = self.ap.global().is_some_and(|g| g.root == self.ap.uid());
        env.sample_datapath(now, is_root);
        self.next_sample = now + self.sample_period();
    }

    /// Feeds one port's status snapshot (for backends that synthesize
    /// statuses out-of-band instead of through `read_status`).
    pub fn sample_port<E: Environment>(
        &mut self,
        now: SimTime,
        port: PortIndex,
        status: LinkUnitStatus,
        env: &mut E,
    ) {
        let actions = self.ap.on_status_sample(now, port, status);
        self.execute(now, actions, env);
        let dead = self.ap.port_state(port) == autonet_core::PortState::Dead;
        env.set_port_dead(port, dead);
    }

    /// Fires whichever cadences are due at `now`; returns `true` if any
    /// fired. Poll-style backends (the slot-level network) call this every
    /// step instead of scheduling tick/sample events.
    pub fn poll<E: Environment>(&mut self, now: SimTime, env: &mut E) -> bool {
        let mut fired = false;
        if now >= self.next_tick {
            self.tick(now, env);
            fired = true;
        }
        if now >= self.next_sample {
            self.sample(now, env);
            fired = true;
        }
        fired
    }

    /// Delivers one decoded control message that arrived on `port`.
    pub fn deliver<E: Environment>(
        &mut self,
        now: SimTime,
        port: PortIndex,
        msg: &ControlMsg,
        env: &mut E,
    ) {
        let actions = self.ap.on_packet(now, port, msg);
        self.execute(now, actions, env);
    }

    /// Originates a source-routed request from this switch's control
    /// processor.
    pub fn srp_request<E: Environment>(
        &mut self,
        now: SimTime,
        route: Vec<PortIndex>,
        payload: SrpPayload,
        env: &mut E,
    ) {
        let actions = self.ap.srp_request(route, payload);
        self.execute(now, actions, env);
    }

    /// Executes a batch of Autopilot actions against the environment —
    /// the single translation point both simulation backends share,
    /// traced events included.
    fn execute<E: Environment>(&self, now: SimTime, actions: Vec<Action>, env: &mut E) {
        for action in actions {
            match action {
                Action::Send { port, msg } => env.send(now, port, &msg),
                Action::LoadTable(table) => env.load_table(now, table),
                Action::NetworkOpen { epoch } => env.network_opened(now, epoch),
                Action::NetworkClosed => env.network_closed(now),
                Action::Trace(event) => env.trace(now, event),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::{AutopilotParams, Epoch, Event};
    use autonet_switch::ForwardingTable;
    use autonet_wire::Uid;

    /// Records every environment call for inspection.
    #[derive(Default)]
    struct Recorder {
        sends: Vec<(PortIndex, ControlMsg)>,
        tables: usize,
        opened: Vec<Epoch>,
        closed: usize,
        dead: Vec<(PortIndex, bool)>,
        status: LinkUnitStatus,
        traced: Vec<(SimTime, Event)>,
    }

    impl Environment for Recorder {
        fn send(&mut self, _now: SimTime, port: PortIndex, msg: &ControlMsg) {
            self.sends.push((port, msg.clone()));
        }

        fn load_table(&mut self, _now: SimTime, _table: ForwardingTable) {
            self.tables += 1;
        }

        fn read_status(&mut self, _now: SimTime, _port: PortIndex) -> Option<LinkUnitStatus> {
            Some(self.status)
        }

        fn set_port_dead(&mut self, port: PortIndex, dead: bool) {
            self.dead.push((port, dead));
        }

        fn network_opened(&mut self, _now: SimTime, epoch: Epoch) {
            self.opened.push(epoch);
        }

        fn network_closed(&mut self, _now: SimTime) {
            self.closed += 1;
        }

        fn trace(&mut self, time: SimTime, event: Event) {
            self.traced.push((time, event));
        }
    }

    fn harness() -> NodeHarness {
        NodeHarness::new(Autopilot::new(Uid::new(7), AutopilotParams::tuned()))
    }

    #[test]
    fn boot_executes_actions_and_arms_cadences() {
        let mut h = harness();
        let mut env = Recorder::default();
        let t0 = SimTime::from_millis(3);
        h.boot(t0, &mut env);
        // A lone switch configures itself immediately: table load + open.
        assert!(env.tables > 0, "boot must load a table");
        assert_eq!(env.opened.len(), 1, "{:?}", env.opened);
        assert!(h.autopilot().is_open());
        assert_eq!(h.next_tick(), t0 + h.tick_period());
        assert_eq!(h.next_sample(), t0 + h.sample_period());
    }

    #[test]
    fn trace_events_flow_through_the_environment_hook() {
        let mut h = harness();
        let mut env = Recorder::default();
        let t0 = SimTime::from_millis(3);
        h.boot(t0, &mut env);
        // A lone switch boots, closes, numbers itself, installs a table
        // and reopens — all visible as typed events, in that order,
        // stamped with the entry point's time.
        let kinds: Vec<&str> = env.traced.iter().map(|(_, e)| e.kind()).collect();
        let at = |kind| kinds.iter().position(|&k| k == kind);
        assert_eq!(at("boot"), Some(0), "{kinds:?}");
        assert!(at("reconfig-triggered") < at("network-opened"), "{kinds:?}");
        assert_eq!(at("network-opened"), Some(kinds.len() - 1), "{kinds:?}");
        assert!(env.traced.iter().all(|&(t, _)| t == t0));
        // Events are handed over once: an entry point with no new work
        // hands over nothing.
        let before = env.traced.len();
        h.poll(t0 + SimDuration::from_nanos(1), &mut env);
        assert_eq!(env.traced.len(), before);
        // And none at all once tracing is off.
        h.autopilot_mut().set_tracing(false);
        h.boot(t0 + SimDuration::from_millis(1), &mut env);
        assert_eq!(env.traced.len(), before);
    }

    #[test]
    fn poll_fires_cadences_when_due() {
        let mut h = harness();
        let mut env = Recorder::default();
        h.boot(SimTime::ZERO, &mut env);
        assert!(!h.poll(SimTime::from_nanos(1), &mut env), "nothing due yet");
        let t = h.next_tick();
        assert!(h.poll(t, &mut env), "tick due");
        assert_eq!(h.next_tick(), t + h.tick_period());
        let s = h.next_sample();
        assert!(h.poll(s, &mut env), "sample due");
        // The sample loop pushed a dead/alive verdict for every port.
        assert_eq!(env.dead.len(), MAX_PORTS - 1);
    }

    #[test]
    fn deliver_routes_replies_through_environment() {
        let mut h = harness();
        let mut env = Recorder::default();
        h.boot(SimTime::ZERO, &mut env);
        env.sends.clear();
        let req = ControlMsg::ShortAddrRequest {
            host_uid: Uid::new(500),
        };
        h.deliver(SimTime::from_millis(1), 4, &req, &mut env);
        assert!(
            matches!(
                env.sends.as_slice(),
                [(4, ControlMsg::ShortAddrReply { .. })]
            ),
            "{:?}",
            env.sends
        );
    }
}

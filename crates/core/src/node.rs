//! One Autopilot plus the cadence both backends drive it at.

use autonet_sim::SimTime;
use autonet_wire::{PortIndex, MAX_PORTS};

use crate::autopilot::Autopilot;
use crate::env::Environment;
use crate::port_state::PortState;

/// Owns one [`Autopilot`] and the tick/sample cadence bookkeeping derived
/// from its parameters, plus the per-port sampling round.
///
/// Backends choose *when* to call the entry points (an event queue
/// schedules them in the packet-level network; the slot loop polls
/// [`poll`](NodeHarness::poll) every slot); packets and SRP requests go
/// straight to the [`Autopilot`].
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

    /// The control program, mutably (packet delivery, SRP).
    pub fn autopilot_mut(&mut self) -> &mut Autopilot {
        &mut self.ap
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
    pub fn boot(&mut self, now: SimTime, env: &mut impl Environment) {
        self.ap.boot(now, env);
        self.next_tick = now + self.ap.params().timer_resolution;
        self.next_sample = now + self.ap.params().sampling_interval;
    }

    /// One timer tick (probe/retransmit timers). The caller either honors
    /// [`next_tick`](Self::next_tick) or uses [`poll`](Self::poll).
    pub fn tick(&mut self, now: SimTime, env: &mut impl Environment) {
        self.ap.on_tick(now, env);
        self.next_tick = now + self.ap.params().timer_resolution;
    }

    /// One full status-sampling round: reads every port's hardware status
    /// from the environment, feeds it to the sampler tower, and pushes the
    /// resulting dead/alive verdicts back down (the `idhy` hardware hook).
    pub fn sample(&mut self, now: SimTime, env: &mut impl Environment) {
        for port in 1..MAX_PORTS as PortIndex {
            let status = env.read_status(port);
            self.ap.on_status_sample(now, port, status, env);
            env.set_port_dead(port, self.ap.port_state(port) == PortState::Dead);
        }
        self.next_sample = now + self.ap.params().sampling_interval;
    }

    /// Fires whichever cadences are due at `now`. Poll-style backends (the
    /// slot-level network) call this every step instead of scheduling
    /// tick/sample events.
    pub fn poll(&mut self, now: SimTime, env: &mut impl Environment) {
        if now >= self.next_tick {
            self.tick(now, env);
        }
        if now >= self.next_sample {
            self.sample(now, env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::recording::{Call, Recorder};
    use crate::params::AutopilotParams;
    use autonet_sim::SimDuration;
    use autonet_wire::Uid;

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
        assert!(env.count(|c| matches!(c, Call::LoadTable(_))) > 0);
        assert_eq!(env.count(|c| matches!(c, Call::NetworkOpened(_))), 1);
        assert!(h.autopilot().is_open());
        let params = AutopilotParams::tuned();
        assert_eq!(h.next_tick(), t0 + params.timer_resolution);
        assert_eq!(h.next_sample(), t0 + params.sampling_interval);
    }

    #[test]
    fn trace_events_flow_through_the_environment_hook() {
        let mut h = harness();
        let mut env = Recorder::default();
        let t0 = SimTime::from_millis(3);
        h.boot(t0, &mut env);
        // A lone switch boots, closes, numbers itself, installs a table
        // and reopens — all visible as typed events, in that order.
        let kinds: Vec<&str> = env.traced().iter().map(|e| e.kind()).collect();
        let at = |kind| kinds.iter().position(|&k| k == kind);
        assert_eq!(at("boot"), Some(0), "{kinds:?}");
        assert!(at("reconfig-triggered") < at("network-opened"), "{kinds:?}");
        assert_eq!(at("network-opened"), Some(kinds.len() - 1), "{kinds:?}");
        // Events are handed over once: an entry point with no new work
        // hands over nothing.
        let before = kinds.len();
        h.poll(t0 + SimDuration::from_nanos(1), &mut env);
        assert_eq!(env.traced().len(), before);
        // And none at all once tracing is off.
        h.autopilot_mut().set_tracing(false);
        h.boot(t0 + SimDuration::from_millis(1), &mut env);
        assert_eq!(env.traced().len(), before);
    }

    #[test]
    fn poll_fires_cadences_when_due() {
        let mut h = harness();
        let mut env = Recorder::default();
        h.boot(SimTime::ZERO, &mut env);
        let (t, s) = (h.next_tick(), h.next_sample());
        h.poll(SimTime::from_nanos(1), &mut env);
        assert_eq!((h.next_tick(), h.next_sample()), (t, s), "nothing due yet");
        h.poll(t, &mut env);
        assert_eq!(h.next_tick(), t + AutopilotParams::tuned().timer_resolution);
        assert_eq!(h.next_sample(), s, "tick due, sample not");
        h.poll(s, &mut env);
        assert!(h.next_sample() > s, "sample due");
        // The sample loop pushed a dead/alive verdict for every port.
        assert_eq!(
            env.count(|c| matches!(c, Call::SetPortDead(..))),
            MAX_PORTS - 1
        );
    }
}

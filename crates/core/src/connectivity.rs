//! The connectivity monitor: end-to-end verification of switch links.
//!
//! A port the status sampler approves as `s.switch.who` is continuously
//! scrutinized by packet exchange (companion paper §6.5.4): test packets
//! carry a sequence number and the originator's UID and port; an accepted
//! reply must echo them. The source UID of the reply distinguishes a
//! looped/reflecting link (`s.switch.loop`) from a genuine neighbor; the
//! connectivity skeptic delays promotion to `s.switch.good` for links with
//! a history of instability; repeated missed replies demote a good link.
//! Promotions to and demotions from `s.switch.good` trigger network-wide
//! reconfiguration.

use autonet_sim::{SimDuration, SimTime};
use autonet_wire::{PortIndex, Uid};

use crate::messages::ControlMsg;
use crate::params::AutopilotParams;
use crate::port_state::PortState;
use crate::skeptic::Skeptic;

/// Missed replies in a row before a good port is demoted.
const PROBE_MISS_LIMIT: u32 = 3;

/// The identity of a verified neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborId {
    /// The neighbor switch's UID.
    pub uid: Uid,
    /// The neighbor's port our cable plugs into.
    pub port: PortIndex,
}

/// State changes the monitor reports to Autopilot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectivityEvent {
    /// The port was verified: a responsive, distinct neighbor switch.
    /// Triggers reconfiguration.
    BecameGood(NeighborId),
    /// A good port stopped responding (or changed identity). Triggers
    /// reconfiguration.
    LostGood,
    /// The link turns out to be looped back to this same switch.
    BecameLoop,
}

/// Per-port connectivity monitor.
#[derive(Clone, Debug)]
pub struct ConnectivityMonitor {
    my_uid: Uid,
    my_port: PortIndex,
    active: bool,
    state: PortState,
    skeptic: Skeptic,
    next_seq: u64,
    outstanding: Option<(u64, SimTime)>,
    last_probe_sent: Option<SimTime>,
    misses: u32,
    neighbor: Option<NeighborId>,
    good_streak_since: Option<SimTime>,
    probe_interval: SimDuration,
    probe_timeout: SimDuration,
}

impl ConnectivityMonitor {
    /// Creates the monitor for `my_port` on the switch with `my_uid`.
    pub fn new(params: &AutopilotParams, my_uid: Uid, my_port: PortIndex) -> Self {
        ConnectivityMonitor {
            my_uid,
            my_port,
            active: false,
            state: PortState::SwitchWho,
            skeptic: Skeptic::new(
                params.conn_min_hold,
                params.conn_max_hold,
                params.conn_decay,
            ),
            next_seq: 0,
            outstanding: None,
            last_probe_sent: None,
            misses: 0,
            neighbor: None,
            good_streak_since: None,
            probe_interval: params.probe_interval,
            probe_timeout: params.probe_timeout,
        }
    }

    /// The refinement this monitor currently assigns (`s.switch.*`).
    pub fn state(&self) -> PortState {
        self.state
    }

    /// The verified neighbor, if the port is good.
    pub fn neighbor(&self) -> Option<NeighborId> {
        self.neighbor
    }

    /// The error-free good-response period the connectivity skeptic
    /// currently requires before it will promote this port (§6.5.5).
    pub fn required_hold(&self) -> autonet_sim::SimDuration {
        self.skeptic.required_hold()
    }

    /// The sampler approved the port (`s.checking` → `s.switch.who`).
    pub fn activate(&mut self) {
        self.active = true;
        self.state = PortState::SwitchWho;
        self.outstanding = None;
        self.last_probe_sent = None;
        self.misses = 0;
        self.neighbor = None;
        self.good_streak_since = None;
    }

    /// The sampler withdrew approval (port demoted to `s.dead`). Returns
    /// `LostGood` if a good link was lost (the caller triggers
    /// reconfiguration — the sampler transition already implies it).
    pub fn deactivate(&mut self, now: SimTime) -> Option<ConnectivityEvent> {
        let was_good = self.state == PortState::SwitchGood;
        if was_good {
            self.skeptic.on_good_start(now);
            self.skeptic.on_bad(now);
        }
        self.active = false;
        self.state = PortState::SwitchWho;
        self.outstanding = None;
        self.neighbor = None;
        self.good_streak_since = None;
        was_good.then_some(ConnectivityEvent::LostGood)
    }

    /// The earliest instant at which [`on_tick`](Self::on_tick) acts: the
    /// reply timeout while a probe is outstanding, else the next probe
    /// ([`SimTime::MAX`] while inactive). A tick before it changes nothing.
    pub fn due(&self) -> SimTime {
        if !self.active {
            return SimTime::MAX;
        }
        match (self.outstanding, self.last_probe_sent) {
            (Some((_, sent)), _) => sent.saturating_add(self.probe_timeout),
            (None, Some(sent)) => sent.saturating_add(self.probe_interval),
            (None, None) => SimTime::ZERO,
        }
    }

    /// Periodic poll: emits a probe when due and accounts for reply
    /// timeouts. Returns `(probe to send, event)`.
    pub fn on_tick(&mut self, now: SimTime) -> (Option<ControlMsg>, Option<ConnectivityEvent>) {
        if !self.active {
            return (None, None);
        }
        let mut event = None;
        // Reply timeout.
        if let Some((_, sent)) = self.outstanding {
            if now.saturating_since(sent) >= self.probe_timeout {
                self.outstanding = None;
                self.misses += 1;
                if self.misses >= PROBE_MISS_LIMIT {
                    self.misses = 0;
                    self.good_streak_since = None;
                    if self.state == PortState::SwitchGood {
                        self.skeptic.on_good_start(now);
                        self.skeptic.on_bad(now);
                        self.state = PortState::SwitchWho;
                        self.neighbor = None;
                        event = Some(ConnectivityEvent::LostGood);
                    }
                }
            }
        }
        // Next probe.
        let due = match self.last_probe_sent {
            None => true,
            Some(t) => now.saturating_since(t) >= self.probe_interval,
        };
        let probe = if due && self.outstanding.is_none() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.outstanding = Some((seq, now));
            self.last_probe_sent = Some(now);
            Some(ControlMsg::Probe {
                seq,
                origin: self.my_uid,
                origin_port: self.my_port,
            })
        } else {
            None
        };
        (probe, event)
    }

    /// Processes a probe reply arriving on this port.
    pub fn on_reply(
        &mut self,
        now: SimTime,
        seq: u64,
        origin: Uid,
        origin_port: PortIndex,
        responder: Uid,
        responder_port: PortIndex,
    ) -> Option<ConnectivityEvent> {
        if !self.active {
            return None;
        }
        // Accept only a reply matching the outstanding probe's identity.
        let matches = self.outstanding.map(|(s, _)| s) == Some(seq)
            && origin == self.my_uid
            && origin_port == self.my_port;
        if !matches {
            return None;
        }
        self.outstanding = None;
        self.misses = 0;
        if responder == self.my_uid {
            // Our own packet came back: looped or reflecting link.
            let was_good = self.state == PortState::SwitchGood;
            self.state = PortState::SwitchLoop;
            self.neighbor = None;
            self.good_streak_since = None;
            return if was_good {
                Some(ConnectivityEvent::LostGood)
            } else {
                Some(ConnectivityEvent::BecameLoop)
            };
        }
        let id = NeighborId {
            uid: responder,
            port: responder_port,
        };
        match self.state {
            PortState::SwitchGood => {
                if self.neighbor != Some(id) {
                    // A different switch was plugged in; re-verify.
                    self.skeptic.on_good_start(now);
                    self.skeptic.on_bad(now);
                    self.state = PortState::SwitchWho;
                    self.neighbor = None;
                    self.good_streak_since = Some(now);
                    Some(ConnectivityEvent::LostGood)
                } else {
                    None
                }
            }
            _ => {
                // Who or Loop: good replies from a distinct switch build a
                // streak toward promotion.
                if self.neighbor != Some(id) {
                    self.neighbor = Some(id);
                    self.good_streak_since = Some(now);
                }
                self.state = PortState::SwitchWho;
                let since = *self.good_streak_since.get_or_insert(now);
                if now.saturating_since(since) >= self.skeptic.current_hold_at(now) {
                    self.state = PortState::SwitchGood;
                    self.skeptic.on_good_start(now);
                    Some(ConnectivityEvent::BecameGood(id))
                } else {
                    None
                }
            }
        }
    }

    /// Builds the reply Autopilot sends when a probe arrives on this port.
    pub fn make_reply(my_uid: Uid, my_port: PortIndex, probe: &ControlMsg) -> Option<ControlMsg> {
        if let ControlMsg::Probe {
            seq,
            origin,
            origin_port,
        } = probe
        {
            Some(ControlMsg::ProbeReply {
                seq: *seq,
                origin: *origin,
                origin_port: *origin_port,
                responder: my_uid,
                responder_port: my_port,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> AutopilotParams {
        AutopilotParams::tuned()
    }

    fn monitor() -> ConnectivityMonitor {
        let mut m = ConnectivityMonitor::new(&params(), Uid::new(10), 3);
        m.activate();
        m
    }

    /// Runs probe/reply exchanges against a well-behaved neighbor until an
    /// event fires.
    fn run_good_neighbor(
        m: &mut ConnectivityMonitor,
        start: SimTime,
        neighbor: Uid,
        steps: u32,
    ) -> (SimTime, Option<ConnectivityEvent>) {
        let mut now = start;
        for _ in 0..steps {
            now += SimDuration::from_millis(10);
            let (probe, ev) = m.on_tick(now);
            if ev.is_some() {
                return (now, ev);
            }
            if let Some(ControlMsg::Probe {
                seq,
                origin,
                origin_port,
            }) = probe
            {
                let ev = m.on_reply(now, seq, origin, origin_port, neighbor, 7);
                if ev.is_some() {
                    return (now, ev);
                }
            }
        }
        (now, None)
    }

    #[test]
    fn promotes_to_good_after_skeptic_hold() {
        let mut m = monitor();
        let (_, ev) = run_good_neighbor(&mut m, SimTime::ZERO, Uid::new(20), 100);
        assert_eq!(
            ev,
            Some(ConnectivityEvent::BecameGood(NeighborId {
                uid: Uid::new(20),
                port: 7
            }))
        );
        assert_eq!(m.state(), PortState::SwitchGood);
    }

    #[test]
    fn loop_detected_when_reply_carries_own_uid() {
        let mut m = monitor();
        let mut now = SimTime::ZERO + SimDuration::from_millis(10);
        let (probe, _) = m.on_tick(now);
        let Some(ControlMsg::Probe {
            seq,
            origin,
            origin_port,
        }) = probe
        else {
            panic!("expected a probe");
        };
        now += SimDuration::from_millis(1);
        let ev = m.on_reply(now, seq, origin, origin_port, Uid::new(10), 5);
        assert_eq!(ev, Some(ConnectivityEvent::BecameLoop));
        assert_eq!(m.state(), PortState::SwitchLoop);
    }

    #[test]
    fn missed_replies_demote_good_port() {
        let mut m = monitor();
        let (mut now, ev) = run_good_neighbor(&mut m, SimTime::ZERO, Uid::new(20), 100);
        assert!(matches!(ev, Some(ConnectivityEvent::BecameGood(_))));
        // Stop replying; ticks accumulate misses.
        let mut lost = None;
        for _ in 0..200 {
            now += SimDuration::from_millis(10);
            let (_, ev) = m.on_tick(now);
            if ev.is_some() {
                lost = ev;
                break;
            }
        }
        assert_eq!(lost, Some(ConnectivityEvent::LostGood));
        assert_eq!(m.state(), PortState::SwitchWho);
    }

    #[test]
    fn flapping_neighbor_needs_longer_streaks() {
        let mut m = monitor();
        let mut now = SimTime::ZERO;
        let mut promote_times = Vec::new();
        for _ in 0..3 {
            let start = now;
            let (n2, ev) = run_good_neighbor(&mut m, now, Uid::new(20), 100_000);
            assert!(
                matches!(ev, Some(ConnectivityEvent::BecameGood(_))),
                "{ev:?}"
            );
            now = n2;
            promote_times.push(now.saturating_since(start));
            // Immediately go silent until demoted.
            loop {
                now += SimDuration::from_millis(10);
                let (_, ev) = m.on_tick(now);
                if ev == Some(ConnectivityEvent::LostGood) {
                    break;
                }
            }
        }
        assert!(
            promote_times[2] > promote_times[0],
            "promotion should slow down: {promote_times:?}"
        );
    }

    #[test]
    fn stale_or_forged_replies_ignored() {
        let mut m = monitor();
        let now = SimTime::from_millis(10);
        let (probe, _) = m.on_tick(now);
        let Some(ControlMsg::Probe { seq, .. }) = probe else {
            panic!("expected probe");
        };
        // Wrong sequence.
        assert_eq!(
            m.on_reply(now, seq + 1, Uid::new(10), 3, Uid::new(20), 7),
            None
        );
        // Wrong origin identity.
        assert_eq!(m.on_reply(now, seq, Uid::new(99), 3, Uid::new(20), 7), None);
        assert_eq!(m.state(), PortState::SwitchWho);
    }

    #[test]
    fn identity_change_demotes() {
        let mut m = monitor();
        let (mut now, _) = run_good_neighbor(&mut m, SimTime::ZERO, Uid::new(20), 100);
        assert_eq!(m.state(), PortState::SwitchGood);
        // A different switch answers the next probe.
        let mut answered = None;
        for _ in 0..20 {
            now += SimDuration::from_millis(10);
            let (probe, _) = m.on_tick(now);
            if let Some(ControlMsg::Probe {
                seq,
                origin,
                origin_port,
            }) = probe
            {
                answered = m.on_reply(now, seq, origin, origin_port, Uid::new(30), 2);
                break;
            }
        }
        assert_eq!(answered, Some(ConnectivityEvent::LostGood));
    }

    #[test]
    fn make_reply_echoes_probe() {
        let probe = ControlMsg::Probe {
            seq: 5,
            origin: Uid::new(1),
            origin_port: 2,
        };
        let reply = ConnectivityMonitor::make_reply(Uid::new(9), 4, &probe).unwrap();
        assert_eq!(
            reply,
            ControlMsg::ProbeReply {
                seq: 5,
                origin: Uid::new(1),
                origin_port: 2,
                responder: Uid::new(9),
                responder_port: 4,
            }
        );
    }

    #[test]
    fn inactive_monitor_is_silent() {
        let mut m = ConnectivityMonitor::new(&params(), Uid::new(1), 1);
        let (probe, ev) = m.on_tick(SimTime::from_millis(100));
        assert!(probe.is_none());
        assert!(ev.is_none());
        assert_eq!(m.due(), SimTime::MAX);
    }

    /// `due` is the first instant a tick acts: every tick before it
    /// returns nothing and leaves the next `due` where it was.
    #[test]
    fn due_is_the_first_acting_tick() {
        let p = params();
        let mut m = monitor();
        assert_eq!(m.due(), SimTime::ZERO, "a fresh activation probes at once");
        let t0 = SimTime::from_millis(10);
        assert!(m.on_tick(t0).0.is_some());
        assert_eq!(m.due(), t0 + p.probe_timeout);
        // No reply: nothing happens until the timeout, which then acts.
        let before = m.due() - SimDuration::from_nanos(1);
        assert_eq!(m.on_tick(before), (None, None));
        assert_eq!(m.due(), t0 + p.probe_timeout);
        let _ = m.on_tick(m.due());
        assert!(m.due() > t0 + p.probe_timeout);
        // A reply clears the outstanding probe: the next probe is due one
        // interval after the last one went out.
        let mut m = monitor();
        let Some(ControlMsg::Probe {
            seq,
            origin,
            origin_port,
        }) = m.on_tick(t0).0
        else {
            panic!("expected a probe");
        };
        let _ = m.on_reply(t0, seq, origin, origin_port, Uid::new(20), 7);
        assert_eq!(m.due(), t0 + p.probe_interval);
        assert_eq!(
            m.on_tick(m.due() - SimDuration::from_nanos(1)),
            (None, None)
        );
        assert!(m.on_tick(m.due()).0.is_some());
    }
}

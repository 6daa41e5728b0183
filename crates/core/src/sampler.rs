//! The status sampler: hardware bits → port classification.
//!
//! The second layer of port-state monitoring (companion paper §6.5.3): a
//! periodic task reads each link unit's status bits, accumulates counts,
//! and classifies the port into `s.dead`, `s.checking`, `s.host` or
//! `s.switch.who`. The status skeptic stretches the error-free period a
//! relapsing port must serve in `s.dead`. Long-term blockages (a port
//! receiving only `stop`, or a FIFO making no progress) are also demoted
//! to `s.dead` here.

use autonet_sim::{SimDuration, SimTime};
use autonet_switch::LinkUnitStatus;

use crate::params::AutopilotParams;
use crate::port_state::PortState;
use crate::skeptic::Skeptic;

/// Consecutive stop-only sampling intervals before a blocked port is
/// declared dead (blockage removal, §6.5.3).
const BLOCKAGE_SAMPLES: u32 = 40;

/// Sampler-level classification (the black arrows of Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerEvent {
    /// The port changed sampler-level state.
    Transition {
        /// The state left.
        from: PortState,
        /// The state entered.
        to: PortState,
    },
}

/// Per-port status sampler.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusSampler {
    state: PortState,
    skeptic: Skeptic,
    /// Start of the current error-free streak while in `s.dead`.
    clean_since: Option<SimTime>,
    /// Consecutive clean samples carrying the host signature.
    host_pattern: u32,
    /// Consecutive clean samples carrying the switch signature.
    switch_pattern: u32,
    /// Consecutive samples with `start_seen` false (only stop received).
    stopped_streak: u32,
    /// Consecutive samples without forwarding progress.
    no_progress_streak: u32,
    classify_samples: u32,
}

impl StatusSampler {
    /// Creates a sampler for one port; all ports boot in `s.dead`.
    pub fn new(params: &AutopilotParams) -> Self {
        StatusSampler {
            state: PortState::Dead,
            skeptic: Skeptic::new(
                params.status_min_hold,
                params.status_max_hold,
                params.status_decay,
            ),
            clean_since: None,
            host_pattern: 0,
            switch_pattern: 0,
            stopped_streak: 0,
            no_progress_streak: 0,
            classify_samples: params.classify_samples,
        }
    }

    /// The sampler-level state (never one of the `s.switch.loop/good`
    /// refinements, which belong to the connectivity monitor).
    pub fn state(&self) -> PortState {
        self.state
    }

    /// The hold currently demanded by the status skeptic.
    pub fn required_hold(&self) -> SimDuration {
        self.skeptic.required_hold()
    }

    /// Feeds one sampling interval's status snapshot; returns a transition
    /// if the classification changed.
    pub fn on_sample(&mut self, now: SimTime, status: LinkUnitStatus) -> Option<SamplerEvent> {
        let from = self.state;
        match self.state {
            PortState::Dead => {
                // Receiving idhy is expected in s.dead (we sent idhy too),
                // and the constant-BadSyntax host signature is not held
                // against the port — otherwise alternate host ports could
                // never leave s.dead.
                if status.any_error() && !self.is_host_signature(&status) {
                    self.clean_since = None;
                } else {
                    let since = *self.clean_since.get_or_insert(now);
                    if now.saturating_since(since) >= self.skeptic.current_hold_at(now) {
                        self.enter(PortState::Checking);
                    }
                }
            }
            PortState::Checking => {
                if status.any_error() && !(status.bad_syntax && self.is_host_signature(&status)) {
                    self.relapse(now);
                } else if status.idhy_seen {
                    // The far end still condemns the link; stay checking.
                    self.host_pattern = 0;
                    self.switch_pattern = 0;
                } else if status.is_host || self.is_host_signature(&status) {
                    // Active host ports assert the host directive; alternate
                    // host ports show the constant-BadSyntax-only pattern.
                    self.host_pattern += 1;
                    self.switch_pattern = 0;
                    if self.host_pattern >= self.classify_samples {
                        self.enter(PortState::Host);
                    }
                } else if status.start_seen {
                    // Receiving start (not host) means a switch—possibly
                    // this one, via a looped or reflecting cable.
                    self.switch_pattern += 1;
                    self.host_pattern = 0;
                    if self.switch_pattern >= self.classify_samples {
                        self.enter(PortState::SwitchWho);
                    }
                } else {
                    self.host_pattern = 0;
                    self.switch_pattern = 0;
                }
            }
            PortState::Host
            | PortState::SwitchWho
            | PortState::SwitchLoop
            | PortState::SwitchGood => {
                if status.any_error()
                    && !(self.state == PortState::Host && self.is_host_signature(&status))
                {
                    self.relapse(now);
                } else if status.idhy_seen {
                    // The far end has condemned this link ("I don't hear
                    // you", §6.1): declare it defective on this side too.
                    self.relapse(now);
                } else if self.check_blockage(&status) {
                    self.relapse(now);
                }
                // Note: per Figure 8 there is no error-free exit from
                // s.host — a port that stops behaving like a host leaves
                // only via s.dead when bad status accumulates. This is
                // exactly why the §7 broadcast storm could persist until
                // the reflecting port's code violations registered.
            }
        }
        (self.state != from).then_some(SamplerEvent::Transition {
            from,
            to: self.state,
        })
    }

    /// Whether another sample of `status` would change nothing: a step
    /// on a clone at `now` makes no transition and leaves the clone equal,
    /// and the port is not a clean `s.dead` port waiting out its hold
    /// (the one state whose next step depends on the clock alone).
    pub fn settled(&self, now: SimTime, status: LinkUnitStatus) -> bool {
        let mut twin = self.clone();
        self.clean_since.is_none() && twin.on_sample(now, status).is_none() && twin == *self
    }

    /// The connectivity monitor's refinement of an `s.switch.*` port; the
    /// sampler must know so error relapses from `s.switch.good` are
    /// reported with the right `from` state.
    pub fn set_switch_refinement(&mut self, refined: PortState) {
        if self.state.is_switch() && refined.is_switch() {
            self.state = refined;
        }
    }

    /// The alternate-host-port signature: constant BadSyntax (sync-only
    /// traffic carries no flow control) and nothing else wrong.
    fn is_host_signature(&self, status: &LinkUnitStatus) -> bool {
        status.bad_syntax
            && !status.bad_code
            && !status.overflow
            && !status.underflow
            && !status.panic_seen
            && !status.idhy_seen
    }

    /// Tracks stop-only and no-progress streaks; `true` means demote.
    fn check_blockage(&mut self, status: &LinkUnitStatus) -> bool {
        if status.start_seen {
            self.stopped_streak = 0;
        } else {
            self.stopped_streak += 1;
        }
        if status.progress_seen {
            self.no_progress_streak = 0;
        } else {
            self.no_progress_streak += 1;
        }
        self.stopped_streak >= BLOCKAGE_SAMPLES || self.no_progress_streak >= BLOCKAGE_SAMPLES
    }

    fn enter(&mut self, state: PortState) {
        self.state = state;
        self.clean_since = None;
        self.host_pattern = 0;
        self.switch_pattern = 0;
        self.stopped_streak = 0;
        self.no_progress_streak = 0;
    }

    fn relapse(&mut self, now: SimTime) {
        if self.state.carries_traffic() || self.state == PortState::SwitchWho {
            // Time spent in service counts as good behaviour for decay.
            self.skeptic.on_good_start(now);
        }
        self.skeptic.on_bad(now);
        self.enter(PortState::Dead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> AutopilotParams {
        AutopilotParams::tuned()
    }

    fn clean_switch() -> LinkUnitStatus {
        LinkUnitStatus {
            start_seen: true,
            progress_seen: true,
            ..LinkUnitStatus::new()
        }
    }

    fn clean_host() -> LinkUnitStatus {
        LinkUnitStatus {
            is_host: true,
            start_seen: true,
            progress_seen: true,
            ..LinkUnitStatus::new()
        }
    }

    fn bad() -> LinkUnitStatus {
        LinkUnitStatus {
            bad_code: true,
            ..LinkUnitStatus::new()
        }
    }

    /// Drives the sampler with `status` every 5 ms until a transition or
    /// the step budget runs out.
    fn drive(
        s: &mut StatusSampler,
        start: SimTime,
        status: LinkUnitStatus,
        steps: u32,
    ) -> (SimTime, Option<SamplerEvent>) {
        let mut now = start;
        for _ in 0..steps {
            now += SimDuration::from_millis(5);
            if let Some(ev) = s.on_sample(now, status) {
                return (now, Some(ev));
            }
        }
        (now, None)
    }

    #[test]
    fn boots_dead_then_checks_after_hold() {
        let mut s = StatusSampler::new(&params());
        assert_eq!(s.state(), PortState::Dead);
        let (_, ev) = drive(&mut s, SimTime::ZERO, clean_switch(), 100);
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::Dead,
                to: PortState::Checking
            })
        );
    }

    #[test]
    fn classifies_switch_port() {
        let mut s = StatusSampler::new(&params());
        let (now, _) = drive(&mut s, SimTime::ZERO, clean_switch(), 100);
        let (_, ev) = drive(&mut s, now, clean_switch(), 10);
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::Checking,
                to: PortState::SwitchWho
            })
        );
    }

    #[test]
    fn classifies_active_host_port() {
        let mut s = StatusSampler::new(&params());
        let (now, _) = drive(&mut s, SimTime::ZERO, clean_host(), 100);
        let (_, ev) = drive(&mut s, now, clean_host(), 10);
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::Checking,
                to: PortState::Host
            })
        );
    }

    #[test]
    fn classifies_alternate_host_port_by_syntax_signature() {
        // Sync-only traffic: BadSyntax latched, no flow control seen.
        let status = LinkUnitStatus {
            bad_syntax: true,
            progress_seen: true,
            ..LinkUnitStatus::new()
        };
        let mut s = StatusSampler::new(&params());
        let (now, ev) = drive(&mut s, SimTime::ZERO, status, 100);
        assert!(
            ev.is_some(),
            "must leave s.dead (bad_syntax alone is the host signature)"
        );
        let (_, ev) = drive(&mut s, now, status, 10);
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::Checking,
                to: PortState::Host
            })
        );
    }

    #[test]
    fn errors_demote_to_dead_and_stretch_hold() {
        let mut s = StatusSampler::new(&params());
        let (mut now, _) = drive(&mut s, SimTime::ZERO, clean_switch(), 100);
        let (n2, _) = drive(&mut s, now, clean_switch(), 10);
        now = n2;
        assert_eq!(s.state(), PortState::SwitchWho);
        let h0 = s.required_hold();
        now += SimDuration::from_millis(5);
        let ev = s.on_sample(now, bad());
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::SwitchWho,
                to: PortState::Dead
            })
        );
        assert!(s.required_hold() > h0, "skeptic must stretch the hold");
    }

    #[test]
    fn flapping_port_takes_progressively_longer() {
        let mut s = StatusSampler::new(&params());
        let mut now = SimTime::ZERO;
        let mut recovery_times = Vec::new();
        for _ in 0..3 {
            let start = now;
            // Recover.
            loop {
                now += SimDuration::from_millis(5);
                if s.on_sample(now, clean_switch()).is_some() {
                    break;
                }
                assert!(now < SimTime::from_secs(600), "no recovery");
            }
            recovery_times.push(now.saturating_since(start));
            // Classify to SwitchWho, then relapse immediately.
            drive(&mut s, now, clean_switch(), 10);
            now += SimDuration::from_millis(5);
            s.on_sample(now, bad());
            assert_eq!(s.state(), PortState::Dead);
        }
        assert!(
            recovery_times[2] > recovery_times[0],
            "holds {recovery_times:?} must grow"
        );
    }

    #[test]
    fn stop_only_blockage_demotes() {
        let mut s = StatusSampler::new(&params());
        let (now, _) = drive(&mut s, SimTime::ZERO, clean_switch(), 100);
        drive(&mut s, now, clean_switch(), 10);
        assert_eq!(s.state(), PortState::SwitchWho);
        // Only stop flow control from now on.
        let stopped = LinkUnitStatus {
            start_seen: false,
            progress_seen: true,
            ..LinkUnitStatus::new()
        };
        let (_, ev) = drive(&mut s, now, stopped, 100);
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::SwitchWho,
                to: PortState::Dead
            })
        );
    }

    #[test]
    fn no_progress_blockage_demotes() {
        let mut s = StatusSampler::new(&params());
        let (now, _) = drive(&mut s, SimTime::ZERO, clean_host(), 100);
        drive(&mut s, now, clean_host(), 10);
        assert_eq!(s.state(), PortState::Host);
        let stuck = LinkUnitStatus {
            is_host: true,
            start_seen: true,
            progress_seen: false,
            ..LinkUnitStatus::new()
        };
        let (_, ev) = drive(&mut s, now, stuck, 100);
        assert_eq!(
            ev,
            Some(SamplerEvent::Transition {
                from: PortState::Host,
                to: PortState::Dead
            })
        );
    }

    #[test]
    fn refinement_tracks_connectivity_state() {
        let mut s = StatusSampler::new(&params());
        let (now, _) = drive(&mut s, SimTime::ZERO, clean_switch(), 100);
        drive(&mut s, now, clean_switch(), 10);
        s.set_switch_refinement(PortState::SwitchGood);
        assert_eq!(s.state(), PortState::SwitchGood);
        // A refinement cannot resurrect a dead port.
        let mut d = StatusSampler::new(&params());
        d.set_switch_refinement(PortState::SwitchGood);
        assert_eq!(d.state(), PortState::Dead);
    }

    /// A fresh port is dark until its hold runs out, a clean dead port
    /// waits on the clock, a classifying port counts, and a classified
    /// port under its own signature holds still.
    #[test]
    fn settles_only_where_a_sample_changes_nothing() {
        let mut s = StatusSampler::new(&params());
        let t = SimTime::from_millis(5);
        assert!(s.settled(t, bad()));
        assert!(!s.settled(t, clean_switch()));
        s.on_sample(t, clean_switch());
        assert!(!s.settled(t, clean_switch()), "waiting out the hold");
        let (now, _) = drive(&mut s, t, clean_switch(), 100);
        assert_eq!(s.state(), PortState::Checking);
        assert!(!s.settled(now, clean_switch()), "counting the signature");
        let (now, _) = drive(&mut s, now, clean_switch(), 10);
        assert_eq!(s.state(), PortState::SwitchWho);
        assert!(s.settled(now, clean_switch()));
        assert!(!s.settled(now, bad()), "a relapse is a transition");
    }
}

//! Unified network counters shared by every backend.

use autonet_sim::SimTime;

/// Aggregate counters every Autonet backend maintains, so tests and
/// benches read convergence and traffic metrics from one API whether the
/// substrate is packet-level or slot-level.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Data frames injected by workloads.
    pub data_sent: u64,
    /// Data frames delivered to hosts.
    pub data_delivered: u64,
    /// Data packets discarded by forwarding tables (includes packets
    /// dropped while reconfiguration had tables cleared).
    pub data_discarded: u64,
    /// Control packets transmitted.
    pub control_sent: u64,
    /// `TopologyDown` floods among them (one per tree edge per completed
    /// epoch, plus retransmissions).
    pub topology_sent: u64,
    /// How many of those ran through `ControlMsg::encode`; the rest left
    /// with the bytes already held for the same topology.
    pub topology_encoded: u64,
    /// `TopologyDown` arrivals that ran through `ControlMsg::decode`; the
    /// rest were byte-equal to the flood already held.
    pub topology_decoded: u64,
    /// Packets lost on failed links/switches.
    pub lost_in_flight: u64,
    /// Control packets dropped because the control processor's receive
    /// buffers were full (recovered by retransmission).
    pub cpu_queue_drops: u64,
    /// Timer ticks that ran the Autopilot. A switch's tick is armed only
    /// where its `timer_due` calls for one, so every other `SwitchTick`
    /// event is counted in `ticks_superseded`.
    pub ticks_run: u64,
    /// `SwitchTick` events dropped unrun: an earlier tick re-armed past
    /// them, their incarnation crashed, or they re-queued behind their
    /// switch's sample of the same instant.
    pub ticks_superseded: u64,
    /// Of `ticks_superseded`, those whose switch had crashed or rebooted
    /// since they were armed.
    pub ticks_stale: u64,
    /// Status-sampling rounds that ran the Autopilot; the rest of the
    /// `SwitchSample` events found nothing a round could change.
    pub samples_run: u64,
    /// Switch reopenings (completed reconfigurations observed).
    pub opens: u64,
    /// Switch closings (reconfigurations begun).
    pub closes: u64,
    /// Time of the most recent open/closed state change — the true
    /// completion instant of the last reconfiguration.
    pub last_state_change: SimTime,
}

impl NetStats {
    /// Records a completed reconfiguration (a switch reopening).
    pub fn note_open(&mut self, now: SimTime) {
        self.opens += 1;
        self.last_state_change = now;
    }

    /// Records the start of a reconfiguration (a switch closing).
    pub fn note_close(&mut self, now: SimTime) {
        self.closes += 1;
        self.last_state_change = now;
    }
}

/// One `Event` variant's handler cost, sampled: with
/// `NetParams::tracing` on, one handled event in
/// [`PROFILE_EVERY`](HandlerProfile::PROFILE_EVERY) is timed (see
/// `Net::handler_profile`).
#[derive(Clone, Copy, Debug, Default)]
pub struct HandlerProfile {
    /// The variant's name.
    pub kind: &'static str,
    /// Events of this variant handled (exact, tracing on or off).
    pub events: u64,
    /// How many of them were timed.
    pub timed: u64,
    /// Their summed handler wall, in nanoseconds.
    pub timed_ns: u64,
}

impl HandlerProfile {
    /// The sampling period: a prime, so the sample does not lock onto a
    /// periodic pattern of the event stream.
    pub const PROFILE_EVERY: u32 = 1009;

    /// `events` × the mean timed handler wall, in seconds: this variant's
    /// share of the run's wall (0 when none was timed).
    pub fn wall_s(&self) -> f64 {
        let mean_ns = self.timed_ns as f64 / self.timed.max(1) as f64;
        self.events as f64 * mean_ns / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_track_last_state_change() {
        let mut s = NetStats::default();
        s.note_close(SimTime::from_millis(5));
        s.note_open(SimTime::from_millis(9));
        assert_eq!(s.opens, 1);
        assert_eq!(s.closes, 1);
        assert_eq!(s.last_state_change, SimTime::from_millis(9));
    }
}

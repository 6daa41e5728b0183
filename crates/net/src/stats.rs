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
    /// Timer ticks that ran the Autopilot; the rest of the `SwitchTick`
    /// events fell before the switch's `timer_due` and were skipped.
    pub ticks_run: u64,
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

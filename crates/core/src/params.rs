//! Tunable parameters of the Autopilot control program.

use autonet_sim::SimDuration;

/// How the reconfiguration decides it is finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationMode {
    /// The paper's contribution: the stability protocol detects the exact
    /// moment the spanning tree is complete.
    Stability,
    /// The Perlman-style baseline: no node can ever be sure the tree has
    /// settled, so each node reports (and the root completes) after this
    /// quiescence timeout since its last observed change. Too small a
    /// timeout opens the network prematurely with an incomplete topology;
    /// a safe timeout delays reopening far past actual convergence.
    RootQuiescence(SimDuration),
}

/// Timing and policy parameters of one Autopilot instance.
///
/// The defaults are the "tuned" values scaled from the paper's hardware:
/// a 12.5 MHz 68000 with 1.2 ms timeout resolution achieving ~170 ms
/// reconfigurations of the 30-switch SRC network. The `naive()` and
/// `optimized()` presets reproduce the 5 s → 0.5 s progression of §6.6.5
/// (see `autonet-net`'s CPU model for the matching processing costs).
#[derive(Clone, Copy, Debug)]
pub struct AutopilotParams {
    /// Granularity of the control program's timer queue (paper: 1.2 ms).
    pub timer_resolution: SimDuration,
    /// How often the status sampler polls the hardware status bits.
    pub sampling_interval: SimDuration,
    /// Consecutive clean samples needed in `s.checking` to classify a port.
    pub classify_samples: u32,
    /// Status skeptic: minimum error-free hold before `s.dead` →
    /// `s.checking`.
    pub status_min_hold: SimDuration,
    /// Status skeptic: maximum hold.
    pub status_max_hold: SimDuration,
    /// Status skeptic: good time that halves the hold.
    pub status_decay: SimDuration,
    /// Connectivity monitor: probe period per `s.switch.*` port.
    pub probe_interval: SimDuration,
    /// Probe reply timeout.
    pub probe_timeout: SimDuration,
    /// Connectivity skeptic: minimum good-response period before
    /// `s.switch.who` → `s.switch.good`.
    pub conn_min_hold: SimDuration,
    /// Connectivity skeptic: maximum hold.
    pub conn_max_hold: SimDuration,
    /// Connectivity skeptic: good time that halves the hold.
    pub conn_decay: SimDuration,
    /// Retransmission period for unacknowledged reconfiguration messages.
    pub retransmit_interval: SimDuration,
    /// Termination detection discipline.
    pub termination: TerminationMode,
}

impl AutopilotParams {
    /// The tuned production configuration (~0.17 s reconfigurations).
    pub fn tuned() -> Self {
        AutopilotParams {
            timer_resolution: SimDuration::from_micros(1200),
            sampling_interval: SimDuration::from_millis(5),
            classify_samples: 3,
            status_min_hold: SimDuration::from_millis(100),
            status_max_hold: SimDuration::from_secs(60),
            status_decay: SimDuration::from_secs(10),
            probe_interval: SimDuration::from_millis(50),
            probe_timeout: SimDuration::from_millis(100),
            conn_min_hold: SimDuration::from_millis(100),
            conn_max_hold: SimDuration::from_secs(60),
            conn_decay: SimDuration::from_secs(10),
            retransmit_interval: SimDuration::from_millis(10),
            termination: TerminationMode::Stability,
        }
    }

    /// The first, easy-to-debug implementation (§6.6.5: ~5 s): coarse
    /// timers and conservative retransmission.
    pub fn naive() -> Self {
        AutopilotParams {
            timer_resolution: SimDuration::from_millis(10),
            sampling_interval: SimDuration::from_millis(100),
            retransmit_interval: SimDuration::from_millis(250),
            probe_interval: SimDuration::from_millis(500),
            probe_timeout: SimDuration::from_secs(2),
            ..AutopilotParams::tuned()
        }
    }

    /// The intermediate optimized implementation (~0.5 s).
    pub fn optimized() -> Self {
        AutopilotParams {
            timer_resolution: SimDuration::from_millis(2),
            sampling_interval: SimDuration::from_millis(20),
            retransmit_interval: SimDuration::from_millis(50),
            probe_interval: SimDuration::from_millis(100),
            probe_timeout: SimDuration::from_millis(300),
            ..AutopilotParams::tuned()
        }
    }

    /// The generation after `tuned()`: the shared route cache removes the
    /// per-switch table recomputation from the control processor's epoch
    /// budget (§6.6.5's progression continued), so the freed CPU headroom
    /// is reinvested in a finer timer wheel and snappier retransmission.
    pub fn incremental() -> Self {
        AutopilotParams {
            timer_resolution: SimDuration::from_micros(600),
            retransmit_interval: SimDuration::from_millis(5),
            ..AutopilotParams::tuned()
        }
    }
}

impl Default for AutopilotParams {
    fn default() -> Self {
        AutopilotParams::tuned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_aggressiveness() {
        let naive = AutopilotParams::naive();
        let opt = AutopilotParams::optimized();
        let tuned = AutopilotParams::tuned();
        assert!(naive.retransmit_interval > opt.retransmit_interval);
        assert!(opt.retransmit_interval > tuned.retransmit_interval);
        assert!(naive.timer_resolution > tuned.timer_resolution);
        assert_eq!(tuned.termination, TerminationMode::Stability);
        let inc = AutopilotParams::incremental();
        assert!(tuned.retransmit_interval > inc.retransmit_interval);
        assert!(tuned.timer_resolution > inc.timer_resolution);
    }
}

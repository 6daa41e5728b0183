//! Invariant-oracle scenario engine for the Autonet reproduction.
//!
//! The paper's argument is a safety-and-liveness contract: through any
//! sequence of cable, switch and host failures, every configuration the
//! network *actually installs* is loop- and deadlock-free, epochs only
//! move forward, flapping hardware is quarantined by skeptics, and every
//! reconfiguration terminates. This crate turns that contract into an
//! executable test harness:
//!
//! - [`Scenario`] / [`FaultOp`] — a declarative fault-campaign DSL
//!   (schedules of link/switch/host faults, flapping cables, partitions,
//!   timed waypoints), replayable deterministically from a seed;
//! - online invariant checkers ([`OracleConfig`], [`Violation`]) evaluated
//!   at every table install and epoch transition, fed by the typed event
//!   spine the network drains; [`table_cycle`] is the table oracle's
//!   channel-dependency fold over any given tables;
//! - [`BootedCampaign`] — one engine over the packet-level network on
//!   either event kernel (only the classic one has the [`ProbeFlows`] a
//!   hosted campaign needs), stopped at first quiescence: boot a world
//!   once, then resume it, or a clone of it per schedule;
//!   [`run_packet`] is boot-then-resume on a fresh classic network;
//! - [`ForkCache`] — many schedules judged on one booted world: each
//!   resumes the deepest paused walk whose events it begins with, and a
//!   schedule judged before is answered from a memo;
//! - [`shrink_schedule`] / [`Reproducer`] — when an oracle fires, the
//!   schedule is greedily minimized under deterministic re-runs and
//!   printed as a self-contained Rust test.
//!
//! The intended failure workflow: a randomized campaign trips an oracle
//! in CI → the panic message contains a copy-pasteable `#[test]` with a
//! ≤ handful-of-events schedule → the test goes into the regression
//! corpus next to the fix.

mod engine;
mod objective;
mod oracle;
mod postmortem;
mod scenario;
mod shrink;
mod substrate;
mod tables;
mod worst_case;

pub use engine::{run_packet, BootedCampaign, CheckOutcome, ForkCache, ForkWork};
pub use oracle::{OracleConfig, Violation};
pub use postmortem::{default_postmortem_dir, postmortem_on_failure, write_postmortem};
pub use scenario::{
    random_scenario, random_scenario_with, FaultEvent, FaultOp, GenOptions, Scenario, TopoSpec,
};
pub use shrink::{packet_reproducer, shrink_schedule, Reproducer};
pub use substrate::ProbeFlows;
pub use tables::table_cycle;
pub use worst_case::{mutants, worst_case_search, WorstCaseConfig, WorstCaseResult};

use autonet_core::AutopilotParams;
use autonet_sim::SimDuration;

/// [`AutopilotParams`] with the skeptic hysteresis effectively disabled:
/// holds collapse to a single timer tick, so flapping hardware is
/// readmitted almost immediately. The monitoring tower still *works* —
/// ports classify, probes verify — but the damping the paper argues for
/// (§6.5.5) is gone. Running a network with these parameters against an
/// [`OracleConfig`] derived from the honest ones is the planted-bug
/// check: the skeptic oracle must fire, and the shrinker must reduce the
/// campaign to a few events.
pub fn degraded_params() -> AutopilotParams {
    AutopilotParams {
        status_min_hold: SimDuration::from_millis(1),
        status_decay: SimDuration::from_millis(10),
        conn_min_hold: SimDuration::from_millis(1),
        conn_decay: SimDuration::from_millis(10),
        ..AutopilotParams::tuned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_params_break_the_tuned_bound() {
        let honest = OracleConfig::from_params(&AutopilotParams::tuned());
        let degraded = degraded_params();
        // The degraded skeptic can readmit far inside the honest bound.
        assert!(degraded.conn_min_hold + degraded.status_min_hold < honest.skeptic_bound);
        // But the oracle derived from the degraded params is consistent
        // with itself (the bound scales with the parameters).
        let weak = OracleConfig::from_params(&degraded);
        assert!(weak.skeptic_bound < honest.skeptic_bound);
    }
}

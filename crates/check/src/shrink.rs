//! Schedule shrinking: from a failing campaign to a minimal reproducer.
//!
//! When an oracle fires on a randomly generated campaign, the raw
//! schedule is rarely the story — most of its events are noise. The
//! shrinker re-runs the *same seed* (runs are deterministic, so the only
//! variable is the schedule itself) while greedily dropping events, then
//! compressing the timeline, keeping every change that still reproduces
//! the same violation kind. The result is wrapped in a [`Reproducer`]
//! that prints a self-contained Rust test.

use autonet_net::NetParams;

use crate::engine::{BootedCampaign, ForkCache};
use crate::oracle::{OracleConfig, Violation};
use crate::scenario::Scenario;

/// The full failure workflow for a packet-backend campaign: re-run to
/// capture the violation, shrink the schedule to events that still
/// reproduce the same violation kind, and wrap the result. Returns `None`
/// if the campaign doesn't actually fail (the caller misread an outcome).
pub fn packet_reproducer(
    scenario: &Scenario,
    params: &NetParams,
    cfg: &OracleConfig,
) -> Option<Reproducer> {
    // Shrinking only edits the schedule, so one bring-up serves the first
    // run and every shrink step.
    let booted = BootedCampaign::packet(&scenario.topo, scenario.seed, params, cfg);
    let mut forks = ForkCache::new(booted);
    let violation = forks.judge(scenario).violation?;
    let kind = violation.kind();
    let scenario = shrink_forked(&mut forks, scenario, |forks, s| {
        forks.judge(s).violation.is_some_and(|v| v.kind() == kind)
    });
    Some(Reproducer {
        scenario,
        violation,
    })
}

/// Greedily minimizes `scenario` under the predicate `still_fails`
/// (which should re-run the engine and answer "does the same violation
/// kind still occur?"). Two passes to fixpoint: drop events one at a
/// time, then repeatedly halve every event time (advancing the whole
/// schedule toward the first quiescence point).
pub fn shrink_schedule<F>(scenario: &Scenario, mut still_fails: F) -> Scenario
where
    F: FnMut(&Scenario) -> bool,
{
    let mut current = scenario.clone();
    // Pass 1: event removal, restarted until no single removal works.
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < current.events.len() {
            let mut candidate = current.clone();
            candidate.events.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            break;
        }
    }
    // Pass 2: time compression. Halving all offsets keeps relative order.
    loop {
        let mut candidate = current.clone();
        for e in &mut candidate.events {
            e.at_ms /= 2;
        }
        if candidate.events == current.events || !still_fails(&candidate) {
            break;
        }
        current = candidate;
    }
    current
}

/// [`shrink_schedule`] with every candidate judged through `forks`
/// (`still_fails` gets the cache to judge with): each step forks from
/// the deepest pause of the current schedule it shares. The shrinker
/// moves on to a candidate exactly when it still fails, so pauses are
/// kept for the current schedule and no other.
pub(crate) fn shrink_forked<F>(
    forks: &mut ForkCache,
    scenario: &Scenario,
    mut still_fails: F,
) -> Scenario
where
    F: FnMut(&mut ForkCache, &Scenario) -> bool,
{
    let mut current = scenario.clone();
    forks.keep_pauses_of([&current]);
    shrink_schedule(scenario, |s| {
        let fails = still_fails(forks, s);
        if fails {
            current = s.clone();
        }
        forks.keep_pauses_of([&current]);
        fails
    })
}

/// A minimal failing campaign plus the violation it reproduces.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// The shrunk scenario.
    pub scenario: Scenario,
    /// The violation the scenario triggers.
    pub violation: Violation,
}

impl Reproducer {
    /// A copy-pasteable, self-contained Rust test that runs the scenario
    /// with `run_packet(&scenario, &params, &cfg)`. `setup` is the
    /// statements that bind `params` and `cfg`, emitted verbatim above it.
    pub fn snippet(&self, setup: &str) -> String {
        let kind = self.violation.kind();
        render_test(
            &format!("Auto-shrunk reproducer: {}", self.violation),
            &format!("reproduces_{}", kind.replace('-', "_")),
            setup,
            &self.scenario,
            &format!(
                "let v = outcome.violation.expect(\"violation must reproduce\");\n    \
                 assert_eq!(v.kind(), {kind:?});"
            ),
        )
    }
}

/// The frame every rendered reproducer shares: a `#[test]` named `name`
/// under a `comment` line that runs `setup`, then `scenario` through
/// `run_packet`, then `assertion`. Each piece is emitted verbatim.
pub(crate) fn render_test(
    comment: &str,
    name: &str,
    setup: &str,
    scenario: &Scenario,
    assertion: &str,
) -> String {
    format!(
        "// {comment}\n\
         #[test]\n\
         fn {name}() {{\n    \
             use autonet_check::*;\n    \
             {setup}\n    \
             let scenario = {code};\n    \
             let outcome = run_packet(&scenario, &params, &cfg);\n    \
             {assertion}\n\
         }}\n",
        code = scenario.to_code(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FaultEvent, FaultOp, TopoSpec};
    use autonet_sim::SimTime;

    fn scenario_with(events: Vec<FaultEvent>) -> Scenario {
        Scenario {
            name: "unit".into(),
            topo: TopoSpec::Ring { n: 4, seed: 0 },
            seed: 1,
            events,
            settle_ms: 1000,
        }
    }

    /// The shrinker finds the one load-bearing event among decoys and
    /// compresses its time, without ever calling the real engine.
    #[test]
    fn drops_decoys_and_compresses_time() {
        let events = vec![
            FaultEvent {
                at_ms: 100,
                op: FaultOp::LinkDown(1),
            },
            FaultEvent {
                at_ms: 800,
                op: FaultOp::LinkDown(0),
            },
            FaultEvent {
                at_ms: 1600,
                op: FaultOp::SwitchDown(2),
            },
        ];
        let original = scenario_with(events);
        // "Fails" iff LinkDown(0) is still scheduled.
        let shrunk = shrink_schedule(&original, |s| {
            s.events.iter().any(|e| e.op == FaultOp::LinkDown(0))
        });
        assert_eq!(shrunk.events.len(), 1);
        assert_eq!(shrunk.events[0].op, FaultOp::LinkDown(0));
        assert_eq!(shrunk.events[0].at_ms, 0);
    }

    /// A predicate that needs two events keeps exactly those two.
    #[test]
    fn keeps_jointly_necessary_events() {
        let events = vec![
            FaultEvent {
                at_ms: 50,
                op: FaultOp::LinkDown(0),
            },
            FaultEvent {
                at_ms: 500,
                op: FaultOp::SwitchDown(1),
            },
            FaultEvent {
                at_ms: 900,
                op: FaultOp::LinkUp(0),
            },
        ];
        let original = scenario_with(events);
        let shrunk = shrink_schedule(&original, |s| {
            let down = s.events.iter().any(|e| e.op == FaultOp::LinkDown(0));
            let up = s.events.iter().any(|e| e.op == FaultOp::LinkUp(0));
            down && up
        });
        assert_eq!(shrunk.events.len(), 2);
    }

    #[test]
    fn snippet_is_self_contained() {
        let rep = Reproducer {
            scenario: scenario_with(vec![FaultEvent {
                at_ms: 10,
                op: FaultOp::LinkDown(0),
            }]),
            violation: Violation::SettleTimeout {
                at: SimTime::from_millis(5),
                budget_ms: 1000,
            },
        };
        let s = rep.snippet(
            "let params = autonet_net::NetParams::tuned();\n    let cfg = OracleConfig::from_params(&params.autopilot);",
        );
        assert!(s.contains("#[test]"));
        assert!(s.contains("fn reproduces_settle_timeout()"));
        assert!(s.contains("FaultOp::LinkDown(0)"));
        assert!(s.contains("run_packet"));
    }
}

//! The deterministic campaign runner.
//!
//! The engine turns a declarative [`Scenario`] into a simulation run:
//! bring the network up and wait for first quiescence, then walk the
//! fault schedule, running the network from one fault to the next and
//! folding each gap's drained event spine through the online oracles. A
//! firing oracle stops the run at the end of that gap with the violation
//! (timed where the spine put it); the caller (usually a test) hands the
//! scenario to the shrinker and prints a minimal reproducer. Waiting for
//! quiescence is the one poll: the engine asks the network every
//! `step_ms` whether it has settled. The network is the packet-level
//! [`Net`] on either kernel.
//!
//! The run is two halves, `boot` (to first quiescence) and `resume` (the
//! schedule from there), with a [`BootedCampaign`] in between. A single
//! run does both in place; callers with many schedules for one world —
//! the worst-case search, the shrinker — boot once and resume a clone of
//! the settled campaign per schedule.

use std::collections::{BTreeMap, BTreeSet};

use autonet_net::{link_flap_events, Driver, Net, NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{HostId, LinkId, NetView, SwitchId, Topology};
use autonet_trace::{
    CriticalPath, DamageReport, InterruptionConfig, InterruptionReport, Timeline, TraceRecord,
};

use crate::oracle::{audit_blackouts, OracleConfig, OracleState, Violation};
use crate::scenario::{FaultOp, Scenario, TopoSpec};
use crate::substrate::{apply, crossing_links, quiescent, ProbeFlows};

/// What a campaign run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckOutcome {
    /// The first oracle firing, if any.
    pub violation: Option<Violation>,
    /// Virtual time when the run ended.
    pub end: SimTime,
    /// Virtual time of first quiescence — the instant scenario event
    /// offsets (`at_ms`) are measured from. Cross-backend comparisons
    /// align on `origin + at_ms`. Equal to `end` if the run died during
    /// bring-up.
    pub origin: SimTime,
    /// How many quiescence points were reached (initial bring-up,
    /// waypoints, final settle).
    pub quiescences: u32,
    /// The service-interruption ledger, when probes ran (the topology
    /// has at least two hosts).
    pub interruption: Option<InterruptionReport>,
    /// The damage objectives of the run (soft objectives the worst-case
    /// search maximizes; total over any run — zero axes when their
    /// inputs never occurred).
    pub damage: DamageReport,
    /// The end-to-end critical path of the last fault burst, when one
    /// settled — names the nodes the worst run's latency waited on,
    /// which the worst-case search biases its mutations toward.
    pub critical: Option<CriticalPath>,
    /// The full event spine of the run — populated **only on failing
    /// runs** (the flight recorder's raw material); empty on passes so
    /// the worst-case search and shrinker re-runs stay allocation-lean.
    pub records: Vec<TraceRecord>,
}

impl CheckOutcome {
    /// Whether the campaign passed every oracle.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Mirrors a fault op, applied at `now`, into the engine's view of
/// intended physical state: where the plant *ends up* once the op has
/// played out. `flap_ends` holds, per link, the instant its last flap's
/// final repair lands (the plant's own [`link_flap_events`]); a cut of
/// that link before then is undone by that repair in the plant, so the
/// view keeps the link up. A cut at or after it stays.
fn mirror(
    view: &mut NetView<'_>,
    topo: &Topology,
    op: &FaultOp,
    now: SimTime,
    flap_ends: &mut BTreeMap<usize, SimTime>,
) {
    let cut = |view: &mut NetView<'_>, flap_ends: &BTreeMap<usize, SimTime>, l: LinkId| {
        if flap_ends.get(&l.0).is_none_or(|&end| end <= now) {
            view.fail_link(l);
        }
    };
    match op {
        FaultOp::LinkDown(l) => cut(view, flap_ends, LinkId(*l)),
        FaultOp::LinkUp(l) => view.repair_link(LinkId(*l)),
        FaultOp::SwitchDown(s) => view.fail_switch(SwitchId(*s)),
        FaultOp::SwitchUp(s) => view.repair_switch(SwitchId(*s)),
        // A flap ends on a repair; one of zero cycles does nothing.
        FaultOp::LinkFlaps {
            link,
            half_period_ms,
            cycles,
        } => {
            let half_period = SimDuration::from_millis(*half_period_ms);
            if let Some((end, _)) = link_flap_events(now, half_period, *cycles).last() {
                flap_ends
                    .entry(*link)
                    .and_modify(|last| *last = end.max(*last))
                    .or_insert(end);
                view.repair_link(LinkId(*link));
            }
        }
        FaultOp::Partition { side } => {
            for l in crossing_links(topo, side) {
                cut(view, flap_ends, l);
            }
        }
        FaultOp::Heal { side } => {
            for l in crossing_links(topo, side) {
                view.repair_link(l);
            }
        }
        FaultOp::HostPowerOff(_) | FaultOp::HostPowerOn(_) | FaultOp::Waypoint { .. } => {}
    }
}

/// Whether a campaign over `topo` runs service-interruption probes.
fn probing(topo: &Topology) -> bool {
    topo.num_hosts() >= 2
}

/// The engine's own state at first quiescence: everything a run has
/// accumulated besides the network itself. Plain data, so a settled
/// campaign can be copied and walked more than once.
#[derive(Clone)]
struct Settled {
    /// The online oracles, armed.
    oracle: OracleState,
    /// Every record drained during bring-up (the end-of-run timeline
    /// needs the whole spine, bring-up included).
    spine: Vec<TraceRecord>,
    /// First quiescence: the instant `at_ms` offsets count from.
    origin: SimTime,
}

/// One run in flight: the network plus what the engine keeps about it.
struct Run<'a, D: Driver> {
    net: &'a mut Net<D>,
    topo: &'a Topology,
    cfg: &'a OracleConfig,
    oracle: OracleState,
    /// The drained spine is kept whole: the end-of-run blackout oracle
    /// rebuilds the full reconfiguration timeline from it.
    spine: Vec<TraceRecord>,
    /// The engine's mirror of the intended physical state.
    view: NetView<'a>,
    /// Per link, when its last flap's final repair lands (see [`mirror`]).
    flap_ends: BTreeMap<usize, SimTime>,
    quiescences: u32,
    /// Pairs touching a host that ever lost power are exempt from the
    /// blackout oracle (their outage is the fault itself, not an epoch).
    exempt: BTreeSet<usize>,
}

impl<D: Driver> Run<'_, D>
where
    Net<D>: ProbeFlows,
{
    /// Advances `span`, then folds the drained spine through the oracles.
    fn advance(&mut self, span: SimDuration) -> Result<(), Violation> {
        self.net.run_for(span);
        let records = self.net.drain_trace_records();
        let verdict = self.oracle.ingest(self.topo, &records);
        self.spine.extend(records);
        verdict.map_or(Ok(()), Err)
    }

    /// Runs until the network is [`quiescent`], oracles firing along
    /// the way, then counts the quiescence point and checks agreement at
    /// it. Running out of budget is a [`Violation::SettleTimeout`].
    fn settle(&mut self, budget_ms: u64) -> Result<(), Violation> {
        let step = SimDuration::from_millis(self.cfg.step_ms.max(1));
        let deadline = self.net.now() + SimDuration::from_millis(budget_ms);
        loop {
            if self.net.now() >= deadline {
                return Err(Violation::SettleTimeout {
                    at: self.net.now(),
                    budget_ms,
                });
            }
            self.advance(step)?;
            if quiescent(self.net, &self.view) {
                break;
            }
        }
        self.quiescences += 1;
        self.oracle
            .at_quiescence(self.net.now(), &self.view)
            .map_or(Ok(()), Err)
    }

    /// Walks the fault schedule from first quiescence (`origin`) through
    /// the final settle and the reference audit.
    fn walk(&mut self, scenario: &Scenario, origin: SimTime) -> Result<(), Violation> {
        let mut events = scenario.events.clone();
        events.sort_by_key(|e| e.at_ms);
        for event in &events {
            let due = origin + SimDuration::from_millis(event.at_ms);
            if due > self.net.now() {
                self.advance(due - self.net.now())?;
            }
            if let FaultOp::Waypoint { settle_ms } = event.op {
                self.settle(settle_ms)?;
            } else {
                if let FaultOp::HostPowerOff(h) = event.op {
                    self.exempt.insert(h);
                }
                apply(self.net, &event.op, self.topo);
                let now = self.net.now();
                mirror(
                    &mut self.view,
                    self.topo,
                    &event.op,
                    now,
                    &mut self.flap_ends,
                );
                self.oracle.on_fault(&event.op);
            }
        }
        // Final settle: the reconfiguration-termination liveness bound.
        self.settle(scenario.settle_ms)?;
        self.net
            .check_against_reference()
            .map_err(|detail| Violation::ReferenceMismatch {
                detail,
                time: self.net.now(),
            })
    }

    /// Assembles the outcome from whatever the run produced: the timeline
    /// is built once and feeds the interruption ledger, the damage
    /// objectives, the critical path and the blackout oracle alike.
    fn finish(self, verdict: Result<(), Violation>, origin: SimTime) -> CheckOutcome {
        let end = self.net.now();
        let timeline = Timeline::build(&self.spine);
        let interruption = probing(self.topo).then(|| {
            InterruptionReport::build(
                &self.net.probe_pairs(),
                &self.net.probe_records(),
                &timeline,
                end,
                InterruptionConfig {
                    interval: self.cfg.probe_interval,
                    min_run: 2,
                },
            )
        });
        // Every online oracle stayed silent: the blackout ledger gets the
        // last word.
        let violation = verdict
            .err()
            .or_else(|| audit_blackouts(interruption.as_ref()?, &timeline, &self.exempt, end));
        CheckOutcome {
            end,
            origin,
            quiescences: self.quiescences,
            damage: DamageReport::measure(interruption.as_ref(), &timeline, end),
            critical: timeline.last_fault_critical_path(),
            interruption,
            // The spine goes into the outcome only when an oracle fired:
            // postmortems need it, passing runs don't pay for it.
            records: if violation.is_some() {
                self.spine
            } else {
                Vec::new()
            },
            violation,
        }
    }
}

/// Budget for the initial bring-up convergence.
const BRINGUP_BUDGET_MS: u64 = 120_000;

/// The boot half: brings the network up to first quiescence, where the
/// skeptic oracle arms and the probe flows start. A run that dies during
/// bring-up never reaches a schedule, so its outcome is already final.
///
/// # Panics
///
/// Panics if bring-up drained no trace record: every switch logs `Boot`
/// when tracing is on, and oracles folding over an empty spine would
/// pass vacuously.
fn boot<D: Driver>(
    net: &mut Net<D>,
    topo: &Topology,
    cfg: &OracleConfig,
) -> Result<Settled, Box<CheckOutcome>>
where
    Net<D>: ProbeFlows,
{
    let mut run = Run {
        net,
        topo,
        cfg,
        oracle: OracleState::new(topo, cfg.clone()),
        spine: Vec::new(),
        view: topo.view_all(),
        flap_ends: BTreeMap::new(),
        quiescences: 0,
        exempt: BTreeSet::new(),
    };
    let verdict = run.settle(BRINGUP_BUDGET_MS);
    assert!(
        !run.spine.is_empty(),
        "bring-up drained no trace record: the oracles fold over the event spine, \
         so campaigns need NetParams::tracing on"
    );
    if let Err(v) = verdict {
        let origin = run.net.now();
        return Err(Box::new(run.finish(Err(v), origin)));
    }
    if probing(topo) {
        // Probe a ring over the hosts: every host both sends and
        // receives, and a fault anywhere lands on some probed pair.
        let n = topo.num_hosts();
        let pairs: Vec<(HostId, HostId)> =
            (0..n).map(|i| (HostId(i), HostId((i + 1) % n))).collect();
        run.net.start_probes(&pairs, cfg.probe_interval);
    }
    Ok(Settled {
        origin: run.net.now(),
        oracle: run.oracle,
        spine: run.spine,
    })
}

/// The resume half: walks `scenario`'s schedule on a network that
/// [`boot`] left at first quiescence.
fn resume<D: Driver>(
    settled: Settled,
    scenario: &Scenario,
    net: &mut Net<D>,
    topo: &Topology,
    cfg: &OracleConfig,
) -> CheckOutcome
where
    Net<D>: ProbeFlows,
{
    let Settled {
        oracle,
        spine,
        origin,
    } = settled;
    let mut run = Run {
        net,
        topo,
        cfg,
        oracle,
        spine,
        view: topo.view_all(),
        flap_ends: BTreeMap::new(),
        quiescences: 1,
        exempt: BTreeSet::new(),
    };
    let verdict = run.walk(scenario, origin);
    run.finish(verdict, origin)
}

/// A campaign booted to first quiescence and not yet given a schedule:
/// the settled network `N` (a [`Net`] on either kernel), the armed
/// oracles, the bring-up spine, probes started. Every scenario on the
/// same topology and seed begins with exactly this bring-up, so where
/// the network is `Clone` (the classic kernel's [`Network`]) a search
/// boots once and resumes a clone per candidate;
/// a clone resumed is indistinguishable from a cold run of the same
/// scenario. `BootedCampaign<Network>` is `Send + Sync`, so forks of one
/// booted world can be taken and resumed on any thread.
pub struct BootedCampaign<N> {
    net: N,
    topo: Topology,
    cfg: OracleConfig,
    /// What the world was booted for: [`resume`](Self::resume) refuses
    /// a scenario that names anything else.
    spec: TopoSpec,
    seed: u64,
    /// The engine state at first quiescence, or the final outcome of a
    /// bring-up that never got there.
    settled: Result<Settled, Box<CheckOutcome>>,
    /// See [`boots`](Self::boots).
    boots: usize,
}

/// A clone is a fork: it continues the world the original booted and
/// pays no bring-up of its own, so its [`boots`](BootedCampaign::boots)
/// is 0.
impl<N: Clone> Clone for BootedCampaign<N> {
    fn clone(&self) -> Self {
        BootedCampaign {
            net: self.net.clone(),
            topo: self.topo.clone(),
            cfg: self.cfg.clone(),
            spec: self.spec.clone(),
            seed: self.seed,
            settled: self.settled.clone(),
            boots: 0,
        }
    }
}

// Forks are resumed on worker threads and their outcomes sent back.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    const fn send<T: Send>() {}
    send_sync::<BootedCampaign<Network>>();
    send::<CheckOutcome>();
};

impl<D: Driver> BootedCampaign<Net<D>>
where
    Net<D>: ProbeFlows,
{
    /// Builds `spec`'s topology, has `build` make the network for it
    /// (seeded with `seed`, nothing run yet), and boots that to first
    /// quiescence under `cfg`.
    pub fn boot(
        spec: &TopoSpec,
        seed: u64,
        cfg: &OracleConfig,
        build: impl FnOnce(&Topology) -> Net<D>,
    ) -> Self {
        let topo = spec.build();
        let mut net = build(&topo);
        let settled = boot(&mut net, &topo, cfg);
        BootedCampaign {
            net,
            topo,
            cfg: cfg.clone(),
            spec: spec.clone(),
            seed,
            settled,
            boots: 1,
        }
    }

    /// Cold bring-ups this value paid for: 1 for a campaign
    /// [`boot`](Self::boot) made, 0 for a clone. Summing it over the
    /// campaigns a search evaluated counts every boot where it happened,
    /// on whichever thread, so going back to a boot per candidate shows
    /// as an exact number rather than as a slower wall clock.
    pub fn boots(&self) -> usize {
        self.boots
    }

    /// Walks `scenario`'s schedule from first quiescence, in place, and
    /// hands back the network for further assertions.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` names another topology or seed than the
    /// campaign was booted for: the run would be a silent evaluation on
    /// the wrong world.
    pub fn resume(mut self, scenario: &Scenario) -> (CheckOutcome, Net<D>) {
        assert!(
            scenario.topo == self.spec && scenario.seed == self.seed,
            "campaign booted for {:?} seed {} cannot resume scenario '{}' on {:?} seed {}",
            self.spec,
            self.seed,
            scenario.name,
            scenario.topo,
            scenario.seed,
        );
        let outcome = match self.settled {
            Ok(settled) => resume(settled, scenario, &mut self.net, &self.topo, &self.cfg),
            Err(outcome) => *outcome,
        };
        (outcome, self.net)
    }
}

impl BootedCampaign<Network> {
    /// Boots the packet-level backend on the classic kernel.
    pub fn packet(spec: &TopoSpec, seed: u64, params: &NetParams, cfg: &OracleConfig) -> Self {
        BootedCampaign::boot(spec, seed, cfg, |topo| {
            Network::new(topo.clone(), *params, seed)
        })
    }
}

/// Runs a scenario on the packet-level backend.
pub fn run_packet(scenario: &Scenario, params: &NetParams, cfg: &OracleConfig) -> CheckOutcome {
    let booted = BootedCampaign::packet(&scenario.topo, scenario.seed, params, cfg);
    booted.resume(scenario).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted_ring() -> BootedCampaign<Network> {
        let params = NetParams::tuned();
        let cfg = OracleConfig::from_params(&params.autopilot);
        BootedCampaign::packet(&TopoSpec::Ring { n: 4, seed: 0 }, 7, &params, &cfg)
    }

    fn empty_scenario(topo: TopoSpec, seed: u64) -> Scenario {
        Scenario {
            name: "guard".into(),
            topo,
            seed,
            events: Vec::new(),
            settle_ms: 1_000,
        }
    }

    /// Whether link 1 is up in the mirror after `ops`, each `(ms, op)`.
    fn link_1_up_after(ops: &[(u64, FaultOp)]) -> bool {
        let topo = TopoSpec::Ring { n: 4, seed: 0 }.build();
        let mut view = topo.view_all();
        let mut flap_ends = BTreeMap::new();
        for (ms, op) in ops {
            mirror(
                &mut view,
                &topo,
                op,
                SimTime::from_millis(*ms),
                &mut flap_ends,
            );
        }
        view.link_usable(LinkId(1))
    }

    /// In the plant a flap's closing repair undoes any earlier cut of its
    /// link, so the mirror keeps the link up through such a cut; a cut at
    /// or after that repair takes the link down. A 20 ms × 2 flap from
    /// 100 ms goes down at 100 and 140 and up at 120 and 160.
    #[test]
    fn a_pending_flap_repair_wins_over_an_earlier_cut() {
        let flap = FaultOp::LinkFlaps {
            link: 1,
            half_period_ms: 20,
            cycles: 2,
        };
        let cut_at = |ms| link_1_up_after(&[(100, flap.clone()), (ms, FaultOp::LinkDown(1))]);
        assert!(cut_at(100));
        assert!(cut_at(159));
        assert!(!cut_at(160));
        assert!(!cut_at(179));
        // A flap of zero cycles schedules nothing: it neither repairs a
        // cut link nor shields a later cut.
        let idle = FaultOp::LinkFlaps {
            link: 1,
            half_period_ms: 20,
            cycles: 0,
        };
        assert!(!link_1_up_after(&[
            (90, FaultOp::LinkDown(1)),
            (100, idle.clone())
        ]));
        assert!(!link_1_up_after(&[
            (100, idle),
            (100, FaultOp::LinkDown(1))
        ]));
    }

    #[test]
    #[should_panic(expected = "bring-up drained no trace record")]
    fn an_untraced_campaign_is_refused() {
        let params = NetParams {
            tracing: false,
            ..NetParams::tuned()
        };
        let cfg = OracleConfig::from_params(&params.autopilot);
        run_packet(
            &empty_scenario(TopoSpec::Ring { n: 4, seed: 0 }, 7),
            &params,
            &cfg,
        );
    }

    #[test]
    #[should_panic(expected = "booted for Ring { n: 4, seed: 0 } seed 7 cannot resume \
                               scenario 'guard' on Ring { n: 4, seed: 0 } seed 8")]
    fn resume_refuses_another_seed() {
        booted_ring().resume(&empty_scenario(TopoSpec::Ring { n: 4, seed: 0 }, 8));
    }

    #[test]
    #[should_panic(expected = "booted for Ring { n: 4, seed: 0 } seed 7 cannot resume \
                               scenario 'guard' on Ring { n: 5, seed: 0 } seed 7")]
    fn resume_refuses_another_topology() {
        booted_ring().resume(&empty_scenario(TopoSpec::Ring { n: 5, seed: 0 }, 7));
    }
}

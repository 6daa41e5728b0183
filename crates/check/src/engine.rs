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
//! the worst-case search, the shrinker — boot once and judge each
//! schedule through a [`ForkCache`], which resumes a copy of the walk
//! paused right before the first event the schedule does not share with
//! one walked before.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use autonet_net::{link_flap_events, Driver, Net, NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{HostId, LinkId, NetView, SwitchId, Topology};
use autonet_trace::{
    CriticalPath, DamageReport, InterruptionConfig, InterruptionReport, Timeline, TraceRecord,
};

use crate::oracle::{audit_blackouts, OracleConfig, OracleState, Violation};
use crate::scenario::{FaultEvent, FaultOp, Scenario, TopoSpec};
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

/// `events` in the order a walk applies them: by offset, ties in schedule
/// order. The walk and the [`ForkCache`]'s keys both go through here, so
/// two schedules with one walk order are one schedule to the engine.
fn walk_order(events: &[FaultEvent]) -> Vec<FaultEvent> {
    let mut events = events.to_vec();
    events.sort_by_key(|e| e.at_ms);
    events
}

/// A walk paused right before it applies its next event: everything a
/// run has accumulated besides the network itself. Plain data, so a
/// paused walk can be copied and resumed more than once. The pause at
/// first quiescence (nothing applied yet) is where every schedule starts.
#[derive(Clone)]
struct Pause {
    /// The online oracles.
    oracle: OracleState,
    /// Every record drained during bring-up (the end-of-run timeline
    /// needs the whole spine), shared by every fork of the world.
    bringup: Arc<Vec<TraceRecord>>,
    /// Every record drained since first quiescence.
    spine: Vec<TraceRecord>,
    /// First quiescence: the instant `at_ms` offsets count from.
    origin: SimTime,
    quiescences: u32,
    /// The events applied so far, in walk order, each with the instant it
    /// was applied at. The engine's mirror of the physical state and the
    /// hosts exempt from the blackout oracle follow from them.
    applied: Vec<(SimTime, FaultEvent)>,
}

impl Pause {
    /// The whole spine, bring-up first.
    fn records(&self) -> Vec<TraceRecord> {
        [&self.bringup[..], &self.spine[..]].concat()
    }
}

/// One run in flight: the network plus what the engine keeps about it.
struct Run<'a, D: Driver> {
    net: &'a mut Net<D>,
    topo: &'a Topology,
    cfg: &'a OracleConfig,
    state: Pause,
    /// The engine's mirror of the intended physical state.
    view: NetView<'a>,
    /// Per link, when its last flap's final repair lands (see [`mirror`]).
    flap_ends: BTreeMap<usize, SimTime>,
}

impl<'a, D: Driver> Run<'a, D>
where
    Net<D>: ProbeFlows,
{
    /// Takes up `state` on `net`, which stands where the walk paused;
    /// the mirror is replayed from the events applied so far.
    fn new(net: &'a mut Net<D>, topo: &'a Topology, cfg: &'a OracleConfig, state: Pause) -> Self {
        let mut view = topo.view_all();
        let mut flap_ends = BTreeMap::new();
        for (at, event) in &state.applied {
            mirror(&mut view, topo, &event.op, *at, &mut flap_ends);
        }
        Run {
            net,
            topo,
            cfg,
            state,
            view,
            flap_ends,
        }
    }

    /// Advances `span`, then folds the drained spine through the oracles.
    fn advance(&mut self, span: SimDuration) -> Result<(), Violation> {
        self.net.run_for(span);
        let records = self.net.drain_trace_records();
        let verdict = self.state.oracle.ingest(self.topo, &records);
        self.state.spine.extend(records);
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
        self.state.quiescences += 1;
        self.state
            .oracle
            .at_quiescence(self.net.now(), &self.view)
            .map_or(Ok(()), Err)
    }

    /// Walks the rest of `events` (in [`walk_order`], the first
    /// `applied` of them already applied) through the final settle and
    /// the reference audit. Right before applying each event, once the
    /// network stands at its due instant, the walk shows itself to
    /// `on_pause`, which may copy it.
    fn walk(
        &mut self,
        events: &[FaultEvent],
        settle_ms: u64,
        on_pause: &mut dyn FnMut(&Run<'_, D>),
    ) -> Result<(), Violation> {
        let done = self.state.applied.len();
        debug_assert!(self
            .state
            .applied
            .iter()
            .map(|(_, e)| e)
            .eq(&events[..done]));
        for event in &events[done..] {
            let due = self.state.origin + SimDuration::from_millis(event.at_ms);
            if due > self.net.now() {
                self.advance(due - self.net.now())?;
            }
            on_pause(self);
            let now = self.net.now();
            if let FaultOp::Waypoint { settle_ms } = event.op {
                self.settle(settle_ms)?;
            } else {
                apply(self.net, &event.op, self.topo);
                mirror(
                    &mut self.view,
                    self.topo,
                    &event.op,
                    now,
                    &mut self.flap_ends,
                );
                self.state.oracle.on_fault(&event.op);
            }
            self.state.applied.push((now, event.clone()));
        }
        // Final settle: the reconfiguration-termination liveness bound.
        self.settle(settle_ms)?;
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
    fn finish(self, verdict: Result<(), Violation>) -> CheckOutcome {
        let end = self.net.now();
        let spine = self.state.records();
        let timeline = Timeline::build(&spine);
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
        // Pairs touching a host that ever lost power are exempt from the
        // blackout oracle (their outage is the fault itself, not an epoch).
        let exempt: BTreeSet<usize> = self
            .state
            .applied
            .iter()
            .filter_map(|(_, e)| match e.op {
                FaultOp::HostPowerOff(h) => Some(h),
                _ => None,
            })
            .collect();
        // Every online oracle stayed silent: the blackout ledger gets the
        // last word.
        let violation = verdict
            .err()
            .or_else(|| audit_blackouts(interruption.as_ref()?, &timeline, &exempt, end));
        CheckOutcome {
            end,
            origin: self.state.origin,
            quiescences: self.state.quiescences,
            damage: DamageReport::measure(interruption.as_ref(), &timeline, end),
            critical: timeline.last_fault_critical_path(),
            interruption,
            // The spine goes into the outcome only when an oracle fired:
            // postmortems need it, passing runs don't pay for it.
            records: if violation.is_some() {
                spine
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
/// skeptic oracle arms and the probe flows start, and pauses the walk
/// there. A run that dies during bring-up never reaches a schedule, so
/// its outcome is already final.
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
) -> Result<Pause, Box<CheckOutcome>>
where
    Net<D>: ProbeFlows,
{
    let state = Pause {
        oracle: OracleState::new(topo, cfg.clone()),
        bringup: Arc::default(),
        spine: Vec::new(),
        origin: SimTime::ZERO,
        quiescences: 0,
        applied: Vec::new(),
    };
    let mut run = Run::new(net, topo, cfg, state);
    let verdict = run.settle(BRINGUP_BUDGET_MS);
    assert!(
        !run.state.spine.is_empty(),
        "bring-up drained no trace record: the oracles fold over the event spine, \
         so campaigns need NetParams::tracing on"
    );
    run.state.origin = run.net.now();
    if let Err(v) = verdict {
        return Err(Box::new(run.finish(Err(v))));
    }
    if probing(topo) {
        // Probe a ring over the hosts: every host both sends and
        // receives, and a fault anywhere lands on some probed pair.
        let n = topo.num_hosts();
        let pairs: Vec<(HostId, HostId)> =
            (0..n).map(|i| (HostId(i), HostId((i + 1) % n))).collect();
        run.net.start_probes(&pairs, cfg.probe_interval);
    }
    let mut state = run.state;
    state.bringup = Arc::new(std::mem::take(&mut state.spine));
    Ok(state)
}

/// The resume half: walks `events` (in [`walk_order`]) on `net`, which
/// stands where `state` paused, showing `on_pause` every later pause point.
fn resume<D: Driver>(
    state: Pause,
    events: &[FaultEvent],
    settle_ms: u64,
    net: &mut Net<D>,
    topo: &Topology,
    cfg: &OracleConfig,
    on_pause: &mut dyn FnMut(&Run<'_, D>),
) -> CheckOutcome
where
    Net<D>: ProbeFlows,
{
    let mut run = Run::new(net, topo, cfg, state);
    let verdict = run.walk(events, settle_ms, on_pause);
    run.finish(verdict)
}

/// A campaign booted to first quiescence and not yet given a schedule:
/// the settled network `N` (a [`Net`] on either kernel), the armed
/// oracles, the bring-up spine, probes started. Every scenario on the
/// same topology and seed begins with exactly this bring-up, so where
/// the network is `Clone` (the classic kernel's [`Network`]) a search
/// boots once and resumes a clone per candidate, or hands the campaign
/// to a [`ForkCache`];
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
    /// The walk paused at first quiescence, or the final outcome of a
    /// bring-up that never got there.
    settled: Result<Pause, Box<CheckOutcome>>,
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
    send_sync::<BootedCampaign<Network>>();
    send_sync::<ForkCache>();
    send_sync::<CheckOutcome>();
};

impl<N> BootedCampaign<N> {
    /// Cold bring-ups this value paid for: 1 for a campaign
    /// [`boot`](BootedCampaign::boot) made, 0 for a clone. A search
    /// reports its cache's, so going back to a boot per candidate would
    /// show as an exact number rather than as a slower wall clock.
    pub fn boots(&self) -> usize {
        self.boots
    }

    /// # Panics
    ///
    /// Panics if `scenario` names another topology or seed than the
    /// campaign was booted for: the run would be a silent evaluation on
    /// the wrong world.
    fn admit(&self, scenario: &Scenario) {
        assert!(
            scenario.topo == self.spec && scenario.seed == self.seed,
            "campaign booted for {:?} seed {} cannot resume scenario '{}' on {:?} seed {}",
            self.spec,
            self.seed,
            scenario.name,
            scenario.topo,
            scenario.seed,
        );
    }
}

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

    /// Walks `scenario`'s schedule from first quiescence, in place, and
    /// hands back the network for further assertions.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` names another topology or seed than the
    /// campaign was booted for.
    pub fn resume(mut self, scenario: &Scenario) -> (CheckOutcome, Net<D>) {
        self.admit(scenario);
        let outcome = match self.settled {
            Ok(state) => resume(
                state,
                &walk_order(&scenario.events),
                scenario.settle_ms,
                &mut self.net,
                &self.topo,
                &self.cfg,
                &mut |_| {},
            ),
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

/// A walk paused on its own copy of the network.
struct Paused {
    net: Network,
    state: Pause,
}

impl Paused {
    /// How deep the walk got, then how late it paused: the order the
    /// cache prefers pauses in.
    fn depth(&self) -> (usize, SimTime) {
        (self.state.applied.len(), self.net.now())
    }

    /// Whether `events` (in [`walk_order`]) may resume here: they begin
    /// with the events applied so far and go on with one due no earlier
    /// than the instant the walk paused at.
    fn resumes(&self, events: &[FaultEvent]) -> bool {
        let k = self.state.applied.len();
        events.get(k).is_some_and(|next| {
            self.state.applied.iter().map(|(_, e)| e).eq(&events[..k])
                && self.net.now() <= self.state.origin + SimDuration::from_millis(next.at_ms)
        })
    }
}

/// Exact counts of what a [`ForkCache`] judged and what that cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForkWork {
    /// Schedules judged, memo hits included.
    pub evaluations: usize,
    /// Engine runs started for them: one per judgement the memo did not
    /// answer.
    pub runs: usize,
    /// Virtual time those runs simulated, each from the pause it resumed.
    pub simulated: SimDuration,
    /// Virtual time the judged outcomes span, each from first quiescence
    /// to its end: what resuming every judgement at first quiescence
    /// would have simulated.
    pub judged_time: SimDuration,
}

/// One run from the deepest kept pause: its outcome, the network it
/// ended on, the pauses the schedule may be forked from again, and the
/// virtual time it simulated.
struct Forked {
    outcome: CheckOutcome,
    net: Network,
    pauses: Vec<Arc<Paused>>,
    simulated: SimDuration,
}

/// A judgement made while the cache was read-only, for
/// [`ForkCache::record`]: the outcome, plus the run when the memo did
/// not answer.
pub(crate) struct Evaluation {
    outcome: CheckOutcome,
    run: Option<(SimDuration, Vec<Arc<Paused>>)>,
}

/// One booted world plus what walking schedules on it has left behind:
/// every judged schedule's outcome, and paused walks to fork the next
/// schedule from. A schedule that shares its first *k* events (in walk
/// order) with a kept pause taken before event *k* resumes a copy of the
/// deepest such pause, then the latest, instead of replaying that past;
/// a schedule judged before is answered from the memo. Either way the
/// outcome is the cold run's, field for field.
///
/// Outcomes are kept for every judged schedule; pauses only for the
/// schedules named to [`keep_pauses_of`](Self::keep_pauses_of), the ones
/// that may still be forked. The worst-case search judges a generation
/// without changing the cache, on many threads, and records the
/// judgements afterwards in candidate order, so the worker count cannot
/// show in what the cache holds.
pub struct ForkCache {
    booted: BootedCampaign<Network>,
    /// Kept pauses, listed under the schedule (in walk order) whose run
    /// took them or could have resumed from them.
    kept: Vec<(Vec<FaultEvent>, Vec<Arc<Paused>>)>,
    /// Every judged schedule's outcome, by walk order and settle budget.
    memo: Vec<((Vec<FaultEvent>, u64), CheckOutcome)>,
    work: ForkWork,
}

impl ForkCache {
    /// A cache over `booted`, holding only its pause at first quiescence.
    pub fn new(booted: BootedCampaign<Network>) -> ForkCache {
        ForkCache {
            booted,
            kept: Vec::new(),
            memo: Vec::new(),
            work: ForkWork::default(),
        }
    }

    /// The booted campaign's [`boots`](BootedCampaign::boots): forks and
    /// pauses pay none.
    pub fn boots(&self) -> usize {
        self.booted.boots()
    }

    /// What the cache has judged so far, and what that cost.
    pub fn work(&self) -> ForkWork {
        self.work
    }

    /// Runs `scenario` from the deepest kept pause it may resume, never
    /// from the memo, and hands back the network it ended on. Changes
    /// nothing in the cache.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` names another topology or seed than the
    /// campaign was booted for.
    pub fn resume(&self, scenario: &Scenario) -> (CheckOutcome, Network) {
        self.booted.admit(scenario);
        let forked = self.fork(&walk_order(&scenario.events), scenario.settle_ms);
        (forked.outcome, forked.net)
    }

    /// Judges `scenario`: from the memo if it was judged before, else by
    /// a run from the deepest kept pause, whose outcome is memoized and
    /// whose pauses are kept until [`keep_pauses_of`](Self::keep_pauses_of)
    /// drops them.
    pub fn judge(&mut self, scenario: &Scenario) -> CheckOutcome {
        let evaluation = self.evaluate(scenario);
        self.record(scenario, evaluation)
    }

    /// Judges `scenario` without changing the cache: from the memo if it
    /// was judged before, else by a run from the deepest kept pause.
    pub(crate) fn evaluate(&self, scenario: &Scenario) -> Evaluation {
        self.booted.admit(scenario);
        let events = walk_order(&scenario.events);
        let key = (events, scenario.settle_ms);
        if let Some((_, outcome)) = self.memo.iter().find(|(k, _)| *k == key) {
            return Evaluation {
                outcome: outcome.clone(),
                run: None,
            };
        }
        let forked = self.fork(&key.0, key.1);
        Evaluation {
            outcome: forked.outcome,
            // A bring-up that died started no run: its outcome is final.
            run: self
                .booted
                .settled
                .is_ok()
                .then_some((forked.simulated, forked.pauses)),
        }
    }

    /// Counts a judgement of `scenario` made by `evaluate`, memoizes its
    /// outcome and keeps the pauses its run left, then returns the
    /// outcome.
    pub(crate) fn record(&mut self, scenario: &Scenario, evaluation: Evaluation) -> CheckOutcome {
        let Evaluation { outcome, run } = evaluation;
        self.work.evaluations += 1;
        self.work.judged_time += outcome.end - outcome.origin;
        if let Some((simulated, pauses)) = run {
            self.work.runs += 1;
            self.work.simulated += simulated;
            let events = walk_order(&scenario.events);
            // A schedule that ran twice in one generation paused and
            // ended alike both times.
            if !self.kept.iter().any(|(owner, _)| *owner == events) {
                self.kept.push((events.clone(), pauses));
            }
            let key = (events, scenario.settle_ms);
            if !self.memo.iter().any(|(k, _)| *k == key) {
                self.memo.push((key, outcome.clone()));
            }
        }
        outcome
    }

    /// Drops every kept pause but those of `schedules`: the ones that may
    /// still be forked.
    pub fn keep_pauses_of<'s>(&mut self, schedules: impl IntoIterator<Item = &'s Scenario>) {
        let keep: Vec<Vec<FaultEvent>> = schedules
            .into_iter()
            .map(|s| walk_order(&s.events))
            .collect();
        self.kept.retain(|(owner, _)| keep.contains(owner));
    }

    /// Every kept pause `events` may resume from.
    fn resumable<'c>(&'c self, events: &'c [FaultEvent]) -> impl Iterator<Item = &'c Arc<Paused>> {
        self.kept
            .iter()
            .flat_map(|(_, pauses)| pauses)
            .filter(|p| p.resumes(events))
    }

    /// Walks `events` (in [`walk_order`]) from the deepest kept pause
    /// they may resume, then the latest, or from first quiescence.
    fn fork(&self, events: &[FaultEvent], settle_ms: u64) -> Forked {
        let settled = match &self.booted.settled {
            Ok(settled) => settled,
            Err(outcome) => {
                return Forked {
                    outcome: (**outcome).clone(),
                    net: self.booted.net.clone(),
                    pauses: Vec::new(),
                    simulated: SimDuration::ZERO,
                }
            }
        };
        let deepest = self.resumable(events).max_by_key(|p| p.depth());
        let (mut net, state) = match deepest {
            Some(p) => (p.net.clone(), p.state.clone()),
            None => (self.booted.net.clone(), settled.clone()),
        };
        let (depth, start) = (state.applied.len(), net.now());
        // The schedule may be forked from every pause it could resume,
        // and from each one its run passes after the one it resumed.
        let mut pauses: Vec<Arc<Paused>> = self.resumable(events).cloned().collect();
        let outcome = resume(
            state,
            events,
            settle_ms,
            &mut net,
            &self.booted.topo,
            &self.booted.cfg,
            &mut |run| {
                if run.state.applied.len() > depth || run.net.now() > start {
                    pauses.push(Arc::new(Paused {
                        net: run.net.clone(),
                        state: run.state.clone(),
                    }));
                }
            },
        );
        Forked {
            simulated: outcome.end - start,
            outcome,
            net,
            pauses,
        }
    }
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

    /// A schedule resumes the deepest kept pause it may, then the latest:
    /// the one right before its first event that differs from what was
    /// judged, unless that pause stands later than the event is due. A
    /// schedule judged before runs nothing.
    #[test]
    fn a_schedule_resumes_the_deepest_pause_it_may() {
        let mut forks = ForkCache::new(booted_ring());
        let cut = |at_ms, l| FaultEvent {
            at_ms,
            op: FaultOp::LinkDown(l),
        };
        let schedule = |events| Scenario {
            events,
            settle_ms: 60_000,
            ..empty_scenario(TopoSpec::Ring { n: 4, seed: 0 }, 7)
        };
        let parent = schedule(vec![cut(100, 0), cut(200, 1), cut(300, 2)]);
        forks.judge(&parent);
        // Each child, and how far past first quiescence its run resumed.
        let children = [
            (vec![cut(100, 0), cut(200, 1), cut(350, 3)], 300),
            (vec![cut(100, 0), cut(200, 1), cut(250, 3)], 200),
            (vec![cut(100, 0), cut(150, 2)], 100),
            (vec![cut(50, 3)], 0),
        ];
        for (events, from_ms) in children {
            let before = forks.work();
            let outcome = forks.judge(&schedule(events.clone()));
            let simulated = forks.work().simulated - before.simulated;
            let resumed_at = outcome.end - simulated;
            assert_eq!(
                resumed_at,
                outcome.origin + SimDuration::from_millis(from_ms),
                "{events:?}"
            );
        }
        let runs = forks.work().runs;
        assert_eq!(runs, 5);
        forks.judge(&parent);
        assert_eq!(forks.work().runs, runs);
        assert_eq!(forks.work().evaluations, 6);
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

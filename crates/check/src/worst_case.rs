//! Worst-case schedule search: counter-example-guided adversarial fault
//! campaigns.
//!
//! Random campaigns (`random_scenario`) ask "does a random storm break
//! it?". This module asks the adversary's question: *what is the worst
//! storm we can construct?* — the schedule a Saia/Trehan-style attacker
//! who times faults to land mid-reconvergence would pick. The search is
//! an optimizer over the existing [`Scenario`]/[`FaultOp`] DSL that
//! maximizes the soft damage objectives of [`DamageReport`] instead of
//! hunting hard oracle violations:
//!
//! The first two steps run in **generations**: every schedule of a
//! generation is drawn from the rng first, against the archive and the
//! bias as they stood when the generation began; then each is evaluated
//! on its own fork of the one booted world, on a pool of scoped threads
//! (one per core, the caller's among them), against the fork cache as
//! the generation found it; then the outcomes are recorded and walked in
//! candidate order. Nothing a fork computes feeds a draw or a fork of
//! its own generation, so the result depends on the seed alone, at any
//! worker count.
//!
//! 1. **seed corpus** — one generation of random k-event schedules on
//!    the target topology establishes both the Pareto archive and the
//!    random baseline (its median blackout is what E24 compares
//!    against; drawn before any run has biased the targets, it is an
//!    unbiased sample);
//! 2. **guided mutation** — each round is a generation of children bred
//!    from random archive entries by retiming, same-slot merging
//!    (simultaneous faults), retargeting, op-swapping, adding or
//!    dropping events. Retargeting is *biased toward the nodes named in
//!    the incumbent champion's critical path*
//!    ([`Timeline::last_fault_critical_path`] via
//!    [`CheckOutcome::critical`]): the switches the last reconfiguration
//!    waited on are where a second fault hurts most — the
//!    counter-example-guided step;
//! 3. **Pareto archive** — children that survive the hard oracles are
//!    offered to a [`ParetoFront`]; violating runs are counted but not
//!    archived (a violation is a *bug* for the shrink-and-reproduce
//!    workflow, not damage — unless nothing legal exists at all);
//! 4. **shrink** — the champion is minimized with [`shrink_schedule`]
//!    under an objective-preserving predicate (still legal, blackout no
//!    lower than found), then rendered with `to_code` as a
//!    self-contained reproducer, ready to pin as a golden. Each shrink
//!    step starts from the one before, so shrinking and the final
//!    re-measure run one fork at a time.
//!
//! Every candidate is judged through one [`ForkCache`] over the booted
//! world: a schedule judged before is answered from its memo, and any
//! other resumes the deepest paused walk whose events it begins with.
//! Pauses are kept for the schedules children are bred from (the Pareto
//! front) and, while shrinking, for the shrink's current schedule.
//!
//! [`Timeline::last_fault_critical_path`]: autonet_trace::Timeline::last_fault_critical_path

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use autonet_net::NetParams;
use autonet_sim::{SimDuration, SimRng};
use autonet_topo::Topology;
use autonet_trace::DamageReport;

use crate::engine::{BootedCampaign, CheckOutcome, Evaluation, ForkCache};
use crate::objective::ParetoFront;
use crate::oracle::OracleConfig;
use crate::scenario::{FaultEvent, FaultOp, Scenario, TopoSpec};
use crate::shrink::{render_test, shrink_forked};

/// Budget and shape knobs of one search. Everything is deterministic in
/// `seed`.
#[derive(Clone, Debug)]
pub struct WorstCaseConfig {
    /// Master seed: drives schedule generation, mutation choices, and
    /// the simulation seed of every candidate.
    pub seed: u64,
    /// Seed-corpus size (also the random-baseline sample).
    pub corpus: usize,
    /// Guided-mutation rounds.
    pub rounds: usize,
    /// Children bred per round.
    pub children: usize,
    /// Schedule length cap (the "k" of k-event schedules; goldens pin
    /// k ≤ 3).
    pub max_events: usize,
    /// Latest event offset from first quiescence, in milliseconds.
    pub horizon_ms: u64,
    /// Final settle budget of every candidate scenario.
    pub settle_ms: u64,
}

impl WorstCaseConfig {
    /// The default search budget: 5 + 3×4 = 17 evaluations plus the
    /// shrink re-runs. Every evaluation the memo cannot answer is a
    /// packet simulation of its faults and the reconvergence after them,
    /// so the budget is sized for the bench topologies, not for
    /// exhaustiveness; the 30 s settle window is an order of magnitude
    /// above any legal heal (E21 heals in tens of milliseconds;
    /// escalated skeptic quarantines run a few seconds) while keeping
    /// candidates that never settle from dominating the wall clock.
    pub fn new(seed: u64) -> WorstCaseConfig {
        WorstCaseConfig {
            seed,
            corpus: 5,
            rounds: 3,
            children: 4,
            max_events: 3,
            horizon_ms: 1_500,
            settle_ms: 30_000,
        }
    }

    /// A CI-smoke budget: 3 + 2×3 = 9 evaluations.
    /// Also the budget of the fat_tree-256 golden/bench rows, where a
    /// single evaluation simulates a 256-switch hosted fabric.
    pub fn smoke(seed: u64) -> WorstCaseConfig {
        WorstCaseConfig {
            corpus: 3,
            rounds: 2,
            children: 3,
            ..WorstCaseConfig::new(seed)
        }
    }
}

/// What a search found.
#[derive(Clone, Debug, PartialEq)]
pub struct WorstCaseResult {
    /// The shrunk champion schedule.
    pub champion: Scenario,
    /// The champion's damage, re-measured after shrinking.
    pub damage: DamageReport,
    /// The champion's damage before shrinking (shrinking must not lower
    /// the blackout axis; the others may move).
    pub pre_shrink: DamageReport,
    /// The final Pareto front (objective point and schedule).
    pub front: Vec<(DamageReport, Scenario)>,
    /// Median blackout across the seed corpus: the random baseline the
    /// champion is compared against in E24.
    pub random_median_blackout: SimDuration,
    /// Candidates judged: corpus, children, shrink steps and the final
    /// re-measure, memo hits included.
    pub evaluations: usize,
    /// Engine runs started for them: every judgement the memo did not
    /// answer ([`ForkWork::runs`](crate::ForkWork::runs)).
    pub runs: usize,
    /// Virtual time those runs simulated, each from the pause it resumed.
    pub simulated: SimDuration,
    /// Virtual time the judged outcomes span, each from first quiescence
    /// to its end; `simulated` over this is the share of the judged past
    /// that was simulated rather than forked or remembered.
    pub judged_time: SimDuration,
    /// Cold bring-ups paid for them ([`BootedCampaign::boots`]). Every
    /// candidate shares the search's topology, parameters and seed, so
    /// the world is booted once and every run resumes a copy of it: 1.
    pub boots: usize,
    /// Candidates discarded because a hard oracle fired.
    pub violations: usize,
    /// The champion as a self-contained, copy-pasteable Rust test.
    pub reproducer: String,
}

/// Per-topology target inventory, plus the critical-path bias set.
struct Targets {
    n_links: usize,
    n_switches: usize,
    /// Links incident to a bias node, recomputed when the champion
    /// changes.
    hot_links: Vec<usize>,
    /// The bias nodes themselves (switch indices from critical-path
    /// segments).
    hot_switches: Vec<usize>,
}

impl Targets {
    fn new(topo: &Topology) -> Targets {
        Targets {
            n_links: topo.num_links(),
            n_switches: topo.num_switches(),
            hot_links: Vec::new(),
            hot_switches: Vec::new(),
        }
    }

    /// Points the bias at the nodes the champion's reconfiguration
    /// latency was attributed to.
    fn rebias(&mut self, topo: &Topology, outcome: &CheckOutcome) {
        let Some(critical) = &outcome.critical else {
            return;
        };
        let mut nodes: Vec<usize> = critical.segments.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        self.hot_links = topo
            .link_ids()
            .filter(|&l| {
                let spec = topo.link(l);
                !spec.is_loopback()
                    && (nodes.contains(&spec.a.switch.0) || nodes.contains(&spec.b.switch.0))
            })
            .map(|l| l.0)
            .collect();
        self.hot_switches = nodes;
    }

    /// A link target, biased toward the critical path half the time.
    fn link(&self, rng: &mut SimRng) -> usize {
        if !self.hot_links.is_empty() && rng.below(2) == 0 {
            *rng.choose(&self.hot_links)
        } else {
            rng.index(self.n_links)
        }
    }

    /// A switch target, biased toward the critical path half the time.
    fn switch(&self, rng: &mut SimRng) -> usize {
        if !self.hot_switches.is_empty() && rng.below(2) == 0 {
            *rng.choose(&self.hot_switches)
        } else {
            rng.index(self.n_switches)
        }
    }

    /// A fresh fault op, weighted toward the damaging kinds.
    fn op(&self, rng: &mut SimRng) -> FaultOp {
        match rng.below(10) {
            0..=4 => FaultOp::LinkDown(self.link(rng)),
            5 | 6 => FaultOp::SwitchDown(self.switch(rng)),
            7 => FaultOp::LinkFlaps {
                link: self.link(rng),
                half_period_ms: 20 + rng.below(60),
                cycles: 1 + rng.index(2),
            },
            8 => FaultOp::LinkUp(self.link(rng)),
            _ => FaultOp::SwitchUp(self.switch(rng)),
        }
    }
}

/// Percent chance a generated event lands in its predecessor's slot.
const SAME_SLOT_PCT: u64 = 35;

/// A random k-event schedule on the target topology (the corpus
/// generator; unlike [`crate::scenario::random_scenario`] the topology
/// is the caller's, not drawn from the seed).
fn random_schedule(targets: &Targets, rng: &mut SimRng, cfg: &WorstCaseConfig) -> Vec<FaultEvent> {
    let k = 1 + rng.index(cfg.max_events);
    let mut t_ms = 0u64;
    let mut events = Vec::with_capacity(k);
    for _ in 0..k {
        let same_slot = !events.is_empty() && rng.below(100) < SAME_SLOT_PCT;
        if !same_slot {
            t_ms += 30 + rng.below(cfg.horizon_ms.max(60) / 3);
        }
        events.push(FaultEvent {
            at_ms: t_ms,
            op: targets.op(rng),
        });
    }
    events
}

/// One mutation step: timing, ordering, or target of the schedule.
fn mutate(
    events: &mut Vec<FaultEvent>,
    targets: &Targets,
    rng: &mut SimRng,
    cfg: &WorstCaseConfig,
) {
    if events.is_empty() {
        events.push(FaultEvent {
            at_ms: rng.below(cfg.horizon_ms),
            op: targets.op(rng),
        });
        return;
    }
    match rng.below(6) {
        // Retime: move one event anywhere in the horizon.
        0 => {
            let i = rng.index(events.len());
            events[i].at_ms = rng.below(cfg.horizon_ms);
        }
        // Same-slot merge: land one event exactly on another's slot — a
        // simultaneous fault.
        1 => {
            let i = rng.index(events.len());
            let j = rng.index(events.len());
            events[i].at_ms = events[j].at_ms;
        }
        // Retarget: keep the op kind, move it to a (biased) new target.
        2 => {
            let i = rng.index(events.len());
            events[i].op = match &events[i].op {
                FaultOp::LinkDown(_) => FaultOp::LinkDown(targets.link(rng)),
                FaultOp::LinkUp(_) => FaultOp::LinkUp(targets.link(rng)),
                FaultOp::SwitchDown(_) => FaultOp::SwitchDown(targets.switch(rng)),
                FaultOp::SwitchUp(_) => FaultOp::SwitchUp(targets.switch(rng)),
                FaultOp::LinkFlaps {
                    half_period_ms,
                    cycles,
                    ..
                } => FaultOp::LinkFlaps {
                    link: targets.link(rng),
                    half_period_ms: *half_period_ms,
                    cycles: *cycles,
                },
                other => other.clone(),
            };
        }
        // Op swap: a fresh op in the same slot.
        3 => {
            let i = rng.index(events.len());
            events[i].op = targets.op(rng);
        }
        // Add an event (capped at k).
        4 if events.len() < cfg.max_events => {
            events.push(FaultEvent {
                at_ms: rng.below(cfg.horizon_ms),
                op: targets.op(rng),
            });
        }
        // Drop an event (never below one).
        _ if events.len() > 1 => {
            let i = rng.index(events.len());
            events.remove(i);
        }
        _ => {
            let i = rng.index(events.len());
            events[i].at_ms = rng.below(cfg.horizon_ms);
        }
    }
}

/// `n` children of `parent`, each one step of the search's mutation
/// drawn from `cfg.seed` with unbiased targets: what a generation breeds
/// from a front member, for checking what is forked from it.
pub fn mutants(parent: &Scenario, cfg: &WorstCaseConfig, n: usize) -> Vec<Scenario> {
    let targets = Targets::new(&parent.topo.build());
    let mut rng = SimRng::new(cfg.seed);
    (0..n)
        .map(|_| {
            let mut events = parent.events.clone();
            mutate(&mut events, &targets, &mut rng, cfg);
            Scenario {
                events,
                ..parent.clone()
            }
        })
        .collect()
}

/// Runs the counter-example-guided worst-case search on `topo` (which
/// must carry hosts for the blackout objectives to be non-trivial) and
/// returns the shrunk champion with its Pareto front. Each generation is
/// evaluated on one thread per core; the result is the same at any
/// count.
pub fn worst_case_search(
    topo: &TopoSpec,
    params: &NetParams,
    oracle: &OracleConfig,
    cfg: &WorstCaseConfig,
) -> WorstCaseResult {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    search(topo, params, oracle, cfg, workers)
}

/// Evaluates one generation on `min(workers, batch.len())` threads, the
/// caller's among them: each takes the next unclaimed candidate until
/// none is left. The cache is read-only meanwhile, and the evaluations
/// come back in candidate order, whichever fork finished first.
fn evaluate_generation(forks: &ForkCache, batch: &[Scenario], workers: usize) -> Vec<Evaluation> {
    // The counter only hands out indices, each once (a read-modify-write
    // is atomic at any ordering); the outcomes reach this thread through
    // `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(s) = batch.get(i) else {
                return done;
            };
            done.push((i, forks.evaluate(s)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(batch.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, evaluated)| evaluated).collect()
}

/// [`worst_case_search`] on `workers` threads.
fn search(
    topo: &TopoSpec,
    params: &NetParams,
    oracle: &OracleConfig,
    cfg: &WorstCaseConfig,
    workers: usize,
) -> WorstCaseResult {
    let built = topo.build();
    let mut targets = Targets::new(&built);
    let mut rng = SimRng::new(cfg.seed ^ 0x40CA5E);
    let mk = |events: Vec<FaultEvent>| Scenario {
        name: format!("worst-{}", cfg.seed),
        topo: topo.clone(),
        seed: cfg.seed,
        events,
        settle_ms: cfg.settle_ms,
    };
    let mut forks = ForkCache::new(BootedCampaign::packet(topo, cfg.seed, params, oracle));
    let mut violations = 0usize;
    let mut best_rank = DamageReport::default().rank();

    // Evaluates a generation, then records it in candidate order: counts
    // violations and re-points the bias at each legal run at least as
    // damaging as every one before it. Hands back each candidate with its
    // damage and legality.
    let mut generation = |forks: &mut ForkCache, batch: Vec<Scenario>, targets: &mut Targets| {
        let evaluated = evaluate_generation(forks, &batch, workers);
        batch
            .into_iter()
            .zip(evaluated)
            .map(|(s, evaluation)| {
                let outcome = forks.record(&s, evaluation);
                let legal = outcome.passed();
                if !legal {
                    violations += 1;
                }
                if legal && outcome.damage.rank() >= best_rank {
                    best_rank = outcome.damage.rank();
                    targets.rebias(&built, &outcome);
                }
                (outcome.damage, s, legal)
            })
            .collect::<Vec<_>>()
    };

    // Generation 0, the seed corpus: Pareto seeds plus the random
    // baseline, every schedule drawn before any run has biased a target.
    let corpus: Vec<Scenario> = (0..cfg.corpus.max(1))
        .map(|_| mk(random_schedule(&targets, &mut rng, cfg)))
        .collect();
    let corpus_runs = generation(&mut forks, corpus, &mut targets);
    let mut blackouts: Vec<SimDuration> = corpus_runs.iter().map(|(v, _, _)| v.blackout).collect();
    blackouts.sort_unstable();
    let random_median_blackout = blackouts[blackouts.len() / 2];
    // Archive legal runs; if the topology admits no legal schedule at
    // all (every corpus run trips an oracle) fall back to archiving
    // everything — the search then degenerates into "worst bug", which
    // the caller sees via `violations`.
    let legal_only = corpus_runs.iter().any(|(_, _, legal)| *legal);
    let mut front: ParetoFront<Scenario> = ParetoFront::new();
    for (v, s, legal) in corpus_runs {
        if legal || !legal_only {
            front.offer(v, s);
        }
    }
    forks.keep_pauses_of(front.entries().iter().map(|(_, s)| s));

    // One generation per round of guided mutation, bred from the front
    // and the bias as the previous generation left them.
    for _ in 0..cfg.rounds {
        let children: Vec<Scenario> = (0..cfg.children)
            .map(|_| {
                let entries = front.entries();
                let mut events = entries[rng.index(entries.len())].1.events.clone();
                mutate(&mut events, &targets, &mut rng, cfg);
                mk(events)
            })
            .collect();
        for (v, child, legal) in generation(&mut forks, children, &mut targets) {
            if legal || !legal_only {
                front.offer(v, child);
            }
        }
        forks.keep_pauses_of(front.entries().iter().map(|(_, s)| s));
    }

    // Shrink the champion, preserving legality and the blackout
    // objective; the other axes may move (dropping a decoy flap can shed
    // skeptic-hold time without touching the blackout).
    let (pre_shrink, champion_raw) = front
        .champion()
        .map(|(v, s)| (*v, s.clone()))
        .expect("corpus is non-empty, so the front is too");
    let floor = pre_shrink.blackout;
    // A zero floor would let the shrinker discard every event (the empty
    // schedule is legal and trivially reaches blackout >= 0), so the
    // predicate also insists on a non-empty schedule.
    let champion = shrink_forked(&mut forks, &champion_raw, |forks, s| {
        if s.events.is_empty() {
            return false;
        }
        let outcome = forks.judge(s);
        (outcome.passed() || !legal_only) && outcome.damage.blackout >= floor
    });
    // The shrunk champion was judged when the shrinker kept it, or in its
    // generation if it kept nothing: a memo hit.
    let damage = forks.judge(&champion).damage;
    let reproducer = render_reproducer(&champion, &damage);
    let work = forks.work();

    WorstCaseResult {
        champion,
        damage,
        pre_shrink,
        front: front
            .entries()
            .iter()
            .map(|(v, s)| (*v, s.clone()))
            .collect(),
        random_median_blackout,
        evaluations: work.evaluations,
        runs: work.runs,
        simulated: work.simulated,
        judged_time: work.judged_time,
        boots: forks.boots(),
        violations,
        reproducer,
    }
}

/// Renders a champion as a self-contained `#[test]` asserting its
/// blackout floor (the shape the golden pins use).
fn render_reproducer(scenario: &Scenario, damage: &DamageReport) -> String {
    render_test(
        &format!("Worst-case champion: {damage}"),
        "worst_case_reproducer",
        "let params = autonet_net::NetParams::tuned();\n    \
         let cfg = OracleConfig::from_params(&params.autopilot);",
        scenario,
        &format!(
            "assert!(\n        \
                 outcome.damage.blackout\n            \
                     >= autonet_sim::SimDuration::from_nanos({floor}),\n        \
                 \"blackout objective regressed: {{}}\",\n        \
                 outcome.damage,\n    \
             );",
            floor = damage.blackout.as_nanos(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::AutopilotParams;

    fn hosted_ring(n: usize) -> TopoSpec {
        TopoSpec::Hosted {
            base: Box::new(TopoSpec::Ring { n, seed: 5 }),
            per_switch: 1,
            seed: 5,
        }
    }

    /// A tiny search on a hosted ring finds *some* damaging schedule,
    /// stays within the event cap, and renders a reproducer — and is
    /// deterministic in the seed.
    #[test]
    fn tiny_search_finds_damage_and_is_deterministic() {
        let params = NetParams::tuned();
        let oracle = OracleConfig::from_params(&AutopilotParams::tuned());
        let cfg = WorstCaseConfig {
            corpus: 2,
            rounds: 1,
            children: 2,
            max_events: 2,
            horizon_ms: 400,
            settle_ms: 60_000,
            ..WorstCaseConfig::smoke(9)
        };
        let a = worst_case_search(&hosted_ring(4), &params, &oracle, &cfg);
        assert!(a.champion.events.len() <= 2);
        assert!(!a.front.is_empty());
        assert!(a.evaluations >= 5);
        assert!(a.reproducer.contains("Scenario {"));
        assert!(a.reproducer.contains("outcome.damage.blackout"));
        // Shrinking never lowers the blackout axis.
        assert!(a.damage.blackout >= a.pre_shrink.blackout);
        let b = worst_case_search(&hosted_ring(4), &params, &oracle, &cfg);
        assert_eq!(a.champion, b.champion);
        assert_eq!(a.damage, b.damage);
    }

    /// Outcomes are merged in candidate order and the cache grows only
    /// between generations, so the worker count is invisible: one thread
    /// and three (more than the two-candidate generations need, so one
    /// idles) find the same champion, damage, front, counts (runs and
    /// simulated time included) and reproducer.
    #[test]
    fn worker_count_is_invisible() {
        let params = NetParams::tuned();
        let oracle = OracleConfig::from_params(&AutopilotParams::tuned());
        let cfg = WorstCaseConfig {
            corpus: 3,
            rounds: 2,
            children: 2,
            max_events: 2,
            horizon_ms: 400,
            settle_ms: 60_000,
            ..WorstCaseConfig::smoke(17)
        };
        let one = search(&hosted_ring(4), &params, &oracle, &cfg, 1);
        let three = search(&hosted_ring(4), &params, &oracle, &cfg, 3);
        // Corpus, children, then at least the final re-measure, which the
        // memo answers without a run.
        assert!(one.evaluations > 3 + 2 * 2, "{}", one.evaluations);
        assert!(one.runs < one.evaluations, "{one:?}");
        assert!(one.simulated < one.judged_time, "{one:?}");
        assert_eq!(one.boots, 1);
        assert_eq!(one, three);
    }
}

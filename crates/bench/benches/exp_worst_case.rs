//! E24 — Worst-case schedules vs random campaigns.
//!
//! The adversary's question: how much worse than a random fault storm is
//! the *worst* ≤3-event schedule an optimizer can construct? For each
//! bench topology the counter-example-guided search
//! (`autonet_check::worst_case_search`) seeds a random corpus (whose
//! median total blackout is the random baseline), breeds mutations
//! biased toward the critical path of the worst run so far, keeps a
//! Pareto front over the four damage axes, and shrinks the champion to
//! its minimal form. The spread between `worst` and `random median` is
//! the payoff of searching instead of sampling — and the champion
//! schedules are pinned as goldens in `tests/worst_case_goldens.rs`.
//!
//! One search seed is an anecdote, so a second table runs each topology
//! at 8 consecutive search seeds from 24 and reports the champion
//! blackout's spread, the median of the random medians, and the sweep's
//! total evaluations, runs, violations and wall. Seed
//! 24 of the sweep is the first table's row, run once. The gate holds
//! min ≤ median ≤ max and the median champion ≥ max(median random median,
//! 1 ns); medians are upper medians.
//!
//! Every candidate of a search shares its topology, parameters and seed,
//! so the search boots the network once and judges every candidate
//! through one fork cache, each generation on one thread per core: a
//! schedule judged before is answered from the memo, any other resumes
//! the deepest paused walk it shares a prefix with. `evals` counts the
//! candidates judged, `runs` the engine runs that took, and `simulated
//! share` the virtual time those runs simulated over the time the judged
//! outcomes span from first quiescence. `boots` (counted by each booted
//! campaign) and the search's wall clock ride along in the row.
//! `scripts/check_bench.py` holds `boots` at exactly 1, `runs` ≤ `evals`,
//! the share ≤ 1, and `worst blackout` ≥ `random median`.
//!
//! `WORST_CASE_SMOKE=1` runs the CI-budget variant (ring-8 only, smoke
//! search budget, 4 sweep seeds) and writes `BENCH_worst_case_smoke.json`
//! instead.

use autonet_bench::{quantile, Report, Table, Value};
use autonet_check::{worst_case_search, OracleConfig, TopoSpec, WorstCaseConfig};
use autonet_net::NetParams;
use autonet_sim::SimDuration;

const SEARCH_SEED: u64 = 24;

/// Simulated over judged virtual time.
fn share(simulated: SimDuration, judged: SimDuration) -> Value {
    Value::Real(simulated.as_secs_f64() / judged.as_secs_f64())
}

fn hosted(base: TopoSpec) -> TopoSpec {
    TopoSpec::Hosted {
        base: Box::new(base),
        per_switch: 1,
        seed: 7,
    }
}

fn main() {
    let smoke = std::env::var("WORST_CASE_SMOKE").is_ok_and(|v| v == "1");
    println!("E24: worst-case schedule search vs random campaigns");
    println!("(total blackout over all probed pairs; schedules capped at 3 events)");

    let tuned = NetParams::tuned();
    // The 256-switch fabric rides E22's scale CPU preset, with tracing
    // back on for objective extraction. The tuned 200 µs/packet control
    // processor boots this size too (tests/scale.rs); the row stays on
    // the preset its floor was searched under — moving it is a second
    // variable.
    let scale = NetParams {
        tracing: true,
        ..NetParams::scale()
    };
    // (name, topology, parameters, search budget by seed, sweep seeds)
    type Case = (
        &'static str,
        TopoSpec,
        NetParams,
        fn(u64) -> WorstCaseConfig,
        u64,
    );
    let cases: Vec<Case> = if smoke {
        vec![(
            "ring-8",
            hosted(TopoSpec::Ring { n: 8, seed: 2 }),
            tuned,
            WorstCaseConfig::smoke,
            4,
        )]
    } else {
        vec![
            (
                "src-30",
                hosted(TopoSpec::Src { seed: 1991 }),
                tuned,
                WorstCaseConfig::new,
                8,
            ),
            (
                "ring-8",
                hosted(TopoSpec::Ring { n: 8, seed: 2 }),
                tuned,
                WorstCaseConfig::new,
                8,
            ),
            (
                "torus-4x4",
                hosted(TopoSpec::Torus {
                    w: 4,
                    h: 4,
                    seed: 3,
                }),
                tuned,
                WorstCaseConfig::new,
                8,
            ),
            (
                // The 256-switch fabric gets the smoke budget: every
                // evaluation is a full hosted packet sim at bench scale.
                "fat_tree-256",
                hosted(TopoSpec::FatTree {
                    arities: vec![8, 2, 4],
                    seed: 99,
                }),
                scale,
                WorstCaseConfig::smoke,
                8,
            ),
        ]
    };

    let mut t = Table::new(
        &format!("E24: worst found vs random median, total blackout (search seed {SEARCH_SEED})"),
        &[
            "topology",
            "events",
            "worst blackout",
            "random median",
            "ratio",
            "pairs dark",
            "skeptic hold",
            "unroutable",
            "evals",
            "runs",
            "simulated share",
            "violations",
            "boots",
            "search wall (s)",
        ],
    );
    let mut sweep = Table::new(
        &format!("E24: champion blackout over search seeds {SEARCH_SEED}.. (upper medians)"),
        &[
            "topology",
            "seeds",
            "min worst",
            "median worst",
            "max worst",
            "median random median",
            "evals",
            "runs",
            "simulated share",
            "violations",
            "search wall (s)",
        ],
    );
    for (name, topo, params, budget, seeds) in cases {
        let oracle = OracleConfig::from_params(&params.autopilot);
        let (mut worsts, mut medians) = (Vec::new(), Vec::new());
        let (mut evals, mut runs, mut violations, mut sweep_wall) = (0, 0, 0, 0.0);
        let (mut simulated, mut judged) = (SimDuration::ZERO, SimDuration::ZERO);
        for seed in SEARCH_SEED..SEARCH_SEED + seeds {
            let started = std::time::Instant::now();
            let res = worst_case_search(&topo, &params, &oracle, &budget(seed));
            let wall_s = started.elapsed().as_secs_f64();
            let (worst, median) = (res.damage.blackout, res.random_median_blackout);
            worsts.push(worst);
            medians.push(median);
            evals += res.evaluations;
            runs += res.runs;
            simulated += res.simulated;
            judged += res.judged_time;
            violations += res.violations;
            sweep_wall += wall_s;
            if seed != SEARCH_SEED {
                continue;
            }
            // No ratio against a random corpus that found no blackout at all.
            let ratio = (median.as_nanos() > 0).then(|| worst.as_secs_f64() / median.as_secs_f64());
            t.row([
                name.into(),
                res.champion.events.len().into(),
                worst.into(),
                median.into(),
                ratio.into(),
                res.damage.affected_pairs.into(),
                res.damage.skeptic_hold.into(),
                res.damage.unroutable.into(),
                res.evaluations.into(),
                res.runs.into(),
                share(res.simulated, res.judged_time),
                res.violations.into(),
                res.boots.into(),
                Value::Wall(wall_s),
            ]);
        }
        sweep.row([
            name.into(),
            seeds.into(),
            worsts.iter().min().copied().into(),
            quantile(&worsts, 0.5).into(),
            worsts.iter().max().copied().into(),
            quantile(&medians, 0.5).into(),
            evals.into(),
            runs.into(),
            share(simulated, judged),
            violations.into(),
            Value::Wall(sweep_wall),
        ]);
    }
    Report::new(if smoke {
        "worst_case_smoke"
    } else {
        "worst_case"
    })
    .table(t)
    .table(sweep)
    .finish();
    println!(
        "\nShape check: the searched schedule always at least matches its\n\
         own random corpus median (it is selected from a superset), and on\n\
         the SRC fabric the ≤3-event champion must beat the E21 single-cut\n\
         per-pair median — simultaneous and critical-path-timed faults\n\
         hurt more than any single cable."
    );
}

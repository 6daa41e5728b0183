//! `src30_worst_case_search`: `autonet_check::worst_case_search` on the
//! hosted SRC network under `NetParams::tuned()` with every oracle on.
//!
//! Why it exists. A search is many short simulations, each paying the
//! same cold boot, with online oracle ingest, damage extraction and
//! shrinking on top: `autonet-check` and `autonet-trace` do most of the
//! work and the kernel little. Forking a settled world instead of
//! rebooting it, or evaluating candidates in parallel, can only show
//! here, which is why a search is timed as one opaque call and its op is
//! one candidate evaluation (`WorstCaseResult::evaluations`). Single
//! evaluations cannot be timed from outside, so wall per op is the wall
//! of all searches over all their evaluations: a mean, the one figure
//! under the name `op_wall_ms_p50` that is not a median.

use autonet_check::{
    run_packet, worst_case_search, OracleConfig, Scenario, TopoSpec, WorstCaseConfig,
};
use autonet_net::NetParams;

use super::{end_to_end, span_metrics, timed, Args, Checks, Outcome, Section};
use crate::inputs::derive;
use crate::metrics::Metrics;
use crate::spans::{Spans, NO_OP};
use crate::stats::median;

const TOPO_SEED: u64 = 1991;
/// Searches per second of timed section (reference box).
const SEARCHES_PER_S: f64 = 0.6;
/// Cold boots per run; `setup_s` is their median.
const BOOTS: u64 = 5;

fn budget(seed: u64, smoke: bool) -> WorstCaseConfig {
    if smoke {
        WorstCaseConfig::smoke(seed)
    } else {
        WorstCaseConfig {
            corpus: 6,
            rounds: 3,
            children: 4,
            ..WorstCaseConfig::new(seed)
        }
    }
}

fn hosted_src(host_seed: u64) -> TopoSpec {
    TopoSpec::Hosted {
        base: Box::new(TopoSpec::Src { seed: TOPO_SEED }),
        per_switch: 1,
        seed: host_seed,
    }
}

pub fn run(args: Args) -> Outcome {
    let searches = args.ops(SEARCHES_PER_S, 1) as u64;
    let topo = hosted_src(derive(args.seed, 3));
    let params = NetParams::tuned();
    let oracle = OracleConfig::from_params(&params.autopilot);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut spans = Spans::new(args.traced);

    // Set-up: the cold boot every evaluation repeats, done the way the
    // engine does it (an empty schedule). Its simulated time to first
    // quiescence is this workload's recovery time: the one simulated
    // cost inside every op.
    let mut setup_s = Vec::new();
    let mut boot_sim_ms = Vec::new();
    for k in 0..BOOTS {
        let scenario = Scenario {
            name: "boot".into(),
            topo: topo.clone(),
            seed: derive(args.seed, 20 + k),
            events: Vec::new(),
            settle_ms: 1_000,
        };
        let (outcome, wall) = timed(|| {
            spans.within("net.bringup", NO_OP, || {
                run_packet(&scenario, &params, &oracle)
            })
        });
        setup_s.push(wall);
        checks.check(outcome.passed(), || {
            format!("boot {k}: oracle fired: {:?}", outcome.violation)
        });
        boot_sim_ms.push(outcome.origin.as_nanos() as f64 / 1e6);
    }

    let mut sec = Section {
        recovery_ms: boot_sim_ms,
        ..Section::default()
    };
    let (mut evals, mut violations) = (0usize, 0usize);
    let mut champion_ms = Vec::new();
    for k in 0..searches {
        let cfg = budget(derive(args.seed, 40 + k), args.smoke);
        let (res, wall) = timed(|| {
            spans.within("check.search", k as u32, || {
                worst_case_search(&topo, &params, &oracle, &cfg)
            })
        });
        sec.ops += res.evaluations as u64;
        sec.wall_s += wall;
        evals += res.evaluations;
        violations += res.violations;
        champion_ms.push(res.damage.blackout.as_millis_f64());
        // Rides the digest of the `exact:` line: same seed, same champion.
        sec.cut_digests.push(res.damage.blackout.as_nanos());
        // A candidate that trips an oracle is a finding about the protocol,
        // reported as `check.violations`; it does not fail the search. What
        // the search owes: a full budget spent, a non-empty champion, and
        // shrinking that never lowered the blackout it was asked to keep.
        checks.check(
            res.evaluations > cfg.corpus + cfg.rounds * cfg.children
                && !res.champion.events.is_empty()
                && res.damage.blackout >= res.pre_shrink.blackout,
            || {
                format!(
                    "search {k}: malformed result ({} evaluations)",
                    res.evaluations
                )
            },
        );
    }

    sec.op_wall_ms = vec![sec.wall_s * 1e3 / evals.max(1) as f64];
    if !args.traced {
        end_to_end(&setup_s, &sec, &mut metrics);
        metrics.set_noted(
            "op_wall_ms_p50",
            sec.op_wall_ms[0],
            format!(
                "mean: {:.3} s / {evals} evaluations in {searches} searches",
                sec.wall_s
            ),
        );
        return Outcome::done(checks, metrics, spans, &sec);
    }

    let boot_ms = median(&setup_s).unwrap_or(0.0) * 1e3;
    metrics.set("check.evals", evals as f64);
    metrics.set("check.violations", violations as f64);
    metrics.set_noted(
        "check.champion_blackout_ms",
        median(&champion_ms).unwrap_or(0.0),
        format!("median of {} searches", champion_ms.len()),
    );
    metrics.set_noted(
        "check.eval_ms_mean",
        sec.wall_s * 1e3 / evals.max(1) as f64,
        format!("{:.3} s / {evals} evaluations", sec.wall_s),
    );
    metrics.set_noted("check.boot_ms", boot_ms, format!("median of {BOOTS} boots"));
    metrics.set_noted(
        "check.boot_share",
        evals as f64 * boot_ms / 1e3 / sec.wall_s,
        format!(
            "{evals} evaluations x {boot_ms:.1} ms / {:.3} s wall",
            sec.wall_s
        ),
    );
    let (_, gen_s) = timed(|| topo.build());
    metrics.set("topo.gen_ms", gen_s * 1e3);
    span_metrics(&spans, sec.wall_s, &mut metrics);
    Outcome::done(checks, metrics, spans, &sec)
}

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
//! Every candidate of a search shares its topology, parameters and seed,
//! so the search boots the network once and resumes a clone per
//! evaluation: `boots` (counted by the engine, gated at exactly 1 by
//! `scripts/check_bench_schema.py`) and the search's `wall_s` ride along
//! in the JSON.
//!
//! `WORST_CASE_SMOKE=1` runs the CI-budget variant (ring-8 only, smoke
//! search budget) and writes `BENCH_worst_case_smoke.json` instead.

use autonet_bench::{ms, ms_f64, print_table, write_bench_json};
use autonet_check::{worst_case_search, OracleConfig, TopoSpec, WorstCaseConfig};
use autonet_net::NetParams;

const SEARCH_SEED: u64 = 24;

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
    let cases: Vec<(&str, TopoSpec, NetParams, WorstCaseConfig)> = if smoke {
        vec![(
            "ring-8",
            hosted(TopoSpec::Ring { n: 8, seed: 2 }),
            tuned,
            WorstCaseConfig::smoke(SEARCH_SEED),
        )]
    } else {
        vec![
            (
                "src-30",
                hosted(TopoSpec::Src { seed: 1991 }),
                tuned,
                WorstCaseConfig::new(SEARCH_SEED),
            ),
            (
                "ring-8",
                hosted(TopoSpec::Ring { n: 8, seed: 2 }),
                tuned,
                WorstCaseConfig::new(SEARCH_SEED),
            ),
            (
                "torus-4x4",
                hosted(TopoSpec::Torus {
                    w: 4,
                    h: 4,
                    seed: 3,
                }),
                tuned,
                WorstCaseConfig::new(SEARCH_SEED),
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
                WorstCaseConfig::smoke(SEARCH_SEED),
            ),
        ]
    };

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, topo, params, budget) in cases {
        let oracle = OracleConfig::from_params(&params.autopilot);
        let started = std::time::Instant::now();
        let res = worst_case_search(&topo, &params, &oracle, &budget);
        let wall_s = started.elapsed().as_secs_f64();
        let ratio = if res.random_median_blackout.as_nanos() > 0 {
            ms_f64(res.damage.blackout) / ms_f64(res.random_median_blackout)
        } else {
            f64::INFINITY
        };
        rows.push(vec![
            name.to_string(),
            res.champion.events.len().to_string(),
            ms(res.damage.blackout),
            ms(res.random_median_blackout),
            if ratio.is_finite() {
                format!("{ratio:.1}x")
            } else {
                "inf".into()
            },
            res.damage.affected_pairs.to_string(),
            ms(res.damage.skeptic_hold),
            res.evaluations.to_string(),
            res.boots.to_string(),
            format!("{wall_s:.2} s"),
        ]);
        json.push(format!(
            "    {{\"topology\": {name:?}, \"events\": {}, \"worst_blackout_ms\": {:.3}, \
             \"random_median_blackout_ms\": {:.3}, \"affected_pairs\": {}, \
             \"skeptic_hold_ms\": {:.3}, \"unroutable_ms\": {:.3}, \"evaluations\": {}, \
             \"violations\": {}, \"boots\": {}, \"wall_s\": {wall_s:.3}}}",
            res.champion.events.len(),
            ms_f64(res.damage.blackout),
            ms_f64(res.random_median_blackout),
            res.damage.affected_pairs,
            ms_f64(res.damage.skeptic_hold),
            ms_f64(res.damage.unroutable),
            res.evaluations,
            res.violations,
            res.boots,
        ));
    }
    print_table(
        "E24: worst found vs random median (total blackout)",
        &[
            "topology",
            "events",
            "worst blackout",
            "random median",
            "ratio",
            "pairs dark",
            "skeptic hold",
            "evals",
            "boots",
            "wall",
        ],
        &rows,
    );
    println!(
        "\nShape check: the searched schedule always at least matches its\n\
         own random corpus median (it is selected from a superset), and on\n\
         the SRC fabric the ≤3-event champion must beat the E21 single-cut\n\
         per-pair median — simultaneous and critical-path-timed faults\n\
         hurt more than any single cable."
    );
    let body = format!(
        "{{\n  \"experiment\": \"worst_case\",\n  \"unit\": \"ms\",\n  \"seed\": {SEARCH_SEED},\n  \"smoke\": {smoke},\n  \"topologies\": [\n{}\n  ]\n}}\n",
        json.join(",\n")
    );
    let path = write_bench_json(
        if smoke {
            "worst_case_smoke"
        } else {
            "worst_case"
        },
        &body,
    );
    println!("wrote {}", path.display());
}

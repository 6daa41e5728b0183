//! Worst-case schedule search demo: the counter-example-guided adversary
//! behind EXPERIMENTS.md E24.
//!
//! Run with: `cargo run --release --example worst_case [topology] [seed]`
//!
//! Topologies (one dual-homed host per switch):
//!   ring    8-switch ring (default)
//!   src     the 30-switch SRC network from the paper
//!   torus   4x4 torus
//!
//! Seeds a random corpus of ≤3-event fault schedules, breeds mutations
//! biased toward the critical path of the worst run so far, keeps a
//! Pareto front over the damage axes (total blackout, affected pairs,
//! skeptic hold, unroutable window), shrinks the champion, and prints
//! it as a self-contained reproducer test next to the random baseline
//! it beat.

use autonet::net::NetParams;
use autonet_check::{worst_case_search, OracleConfig, TopoSpec, WorstCaseConfig};

fn main() {
    let topology = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ring".to_string());
    let seed: u64 = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(24);
    let base = match topology.as_str() {
        "ring" => TopoSpec::Ring { n: 8, seed: 2 },
        "src" => TopoSpec::Src { seed: 1991 },
        "torus" => TopoSpec::Torus {
            w: 4,
            h: 4,
            seed: 3,
        },
        other => {
            eprintln!("unknown topology '{other}'; pick one of: ring, src, torus");
            std::process::exit(2);
        }
    };
    let topo = TopoSpec::Hosted {
        base: Box::new(base),
        per_switch: 1,
        seed: 7,
    };

    let params = NetParams::tuned();
    let oracle = OracleConfig::from_params(&params.autopilot);
    let budget = WorstCaseConfig::new(seed);
    println!(
        "searching: topology {topology}, seed {seed}, corpus {}, {} rounds x {} children, k <= {}\n",
        budget.corpus, budget.rounds, budget.children, budget.max_events
    );
    let res = worst_case_search(&topo, &params, &oracle, &budget);

    println!(
        "evaluations: {} on {} boot(s) ({} oracle violations discarded)",
        res.evaluations, res.boots, res.violations
    );
    println!(
        "engine runs: {} ({:.0} % of the judged virtual time simulated)",
        res.runs,
        100.0 * res.simulated.as_secs_f64() / res.judged_time.as_secs_f64()
    );
    println!(
        "random corpus median blackout: {}",
        res.random_median_blackout
    );
    println!("worst found (after shrink):    {}", res.damage);
    println!("\nPareto front ({} entries):", res.front.len());
    for (v, s) in &res.front {
        println!("  {:>2} events — {v}", s.events.len());
    }
    println!("\nchampion reproducer:\n\n{}", res.reproducer);
}

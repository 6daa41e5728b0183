//! Pinned worst-case schedules: the adversarial champions found by
//! `worst_case_search` on each E24 bench topology, frozen as
//! `include!`-able reproducers under `tests/goldens/worst_case_*.rs`.
//!
//! Each golden is a `(Scenario, u64)` expression — the shrunk ≤3-event
//! champion plus its total-blackout floor in nanoseconds. Replaying the
//! schedule must still produce a non-zero blackout (the objective
//! extraction pipeline is alive) and must not exceed the floor by more
//! than [`TOLERANCE`] (the network has not become *more fragile* than
//! when the schedule was pinned). Getting *less* fragile passes: the
//! goldens are a fragility ceiling, not a byte-exact trace.
//!
//! To re-pin after an intentional behavior change (re-runs the search,
//! so use release mode):
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release --test worst_case_goldens -- --include-ignored
//! ```

use std::fs;
use std::path::PathBuf;

use autonet::net::NetParams;
use autonet::sim::SimDuration;
#[allow(unused_imports)]
use autonet_check::{
    run_packet, worst_case_search, FaultEvent, FaultOp, OracleConfig, Scenario, TopoSpec,
    WorstCaseConfig,
};

/// Replay headroom over the pinned blackout floor: the golden fails only
/// when the measured blackout exceeds the pinned damage by >10%.
const TOLERANCE: f64 = 1.10;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("worst_case_{name}.rs"))
}

fn hosted(base: TopoSpec) -> TopoSpec {
    TopoSpec::Hosted {
        base: Box::new(base),
        per_switch: 1,
        seed: 7,
    }
}

/// Under `UPDATE_GOLDENS=1`, re-runs the search and rewrites the golden
/// (returning `true`); otherwise replays the pinned schedule and checks
/// the fragility ceiling.
fn assert_golden(
    name: &str,
    topo: TopoSpec,
    params: &NetParams,
    budget: WorstCaseConfig,
    pinned: (Scenario, u64),
) {
    let oracle = OracleConfig::from_params(&params.autopilot);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        let res = worst_case_search(&topo, params, &oracle, &budget);
        let body = format!(
            "// Pinned by: UPDATE_GOLDENS=1 cargo test --release --test worst_case_goldens\n\
             // Search seed {seed}: {damage}\n\
             // Random corpus median blackout: {median}; {evals} evaluations, {viols} oracle violations.\n\
             (\n    {code},\n    {floor}u64,\n)\n",
            seed = budget.seed,
            damage = res.damage,
            median = res.random_median_blackout,
            evals = res.evaluations,
            viols = res.violations,
            code = res.champion.to_code(),
            floor = res.damage.blackout.as_nanos(),
        );
        let path = golden_path(name);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, body).unwrap();
        return;
    }

    let (scenario, floor_ns) = pinned;
    assert_eq!(
        scenario.topo, topo,
        "golden '{name}' pins a schedule for a different topology; regenerate it"
    );
    assert!(
        !scenario.events.is_empty() && scenario.events.len() <= 3,
        "golden '{name}' must pin a 1–3 event schedule, has {}",
        scenario.events.len()
    );
    let outcome = run_packet(&scenario, params, &oracle);
    let blackout = outcome.damage.blackout;
    assert!(
        blackout > SimDuration::ZERO,
        "golden '{name}': pinned adversarial schedule produced zero blackout — \
         objective extraction broke (or the schedule no longer bites)"
    );
    let ceiling = SimDuration::from_nanos((floor_ns as f64 * TOLERANCE) as u64);
    assert!(
        blackout <= ceiling,
        "golden '{name}': network is MORE fragile than pinned — blackout {} exceeds \
         floor {} (+10% tolerance {}); if the regression is intentional, regenerate \
         with UPDATE_GOLDENS=1",
        blackout,
        SimDuration::from_nanos(floor_ns),
        ceiling,
    );
}

#[test]
fn worst_case_golden_ring8() {
    assert_golden(
        "ring8",
        hosted(TopoSpec::Ring { n: 8, seed: 2 }),
        &NetParams::tuned(),
        WorstCaseConfig::new(24),
        include!("goldens/worst_case_ring8.rs"),
    );
}

#[test]
#[ignore = "release tier: src-30 packet replay"]
fn worst_case_golden_src30() {
    assert_golden(
        "src30",
        hosted(TopoSpec::Src { seed: 1991 }),
        &NetParams::tuned(),
        WorstCaseConfig::new(24),
        include!("goldens/worst_case_src30.rs"),
    );
}

#[test]
#[ignore = "release tier: torus-4x4 packet replay"]
fn worst_case_golden_torus4x4() {
    assert_golden(
        "torus4x4",
        hosted(TopoSpec::Torus {
            w: 4,
            h: 4,
            seed: 3,
        }),
        &NetParams::tuned(),
        WorstCaseConfig::new(24),
        include!("goldens/worst_case_torus4x4.rs"),
    );
}

#[test]
#[ignore = "release tier: fat-tree-256 packet replay"]
fn worst_case_golden_fat_tree256() {
    assert_golden(
        "fat_tree256",
        hosted(TopoSpec::FatTree {
            arities: vec![8, 2, 4],
            seed: 99,
        }),
        // The scale CPU preset, with tracing back on for objective
        // extraction. The tuned 200 µs/packet control processor boots
        // 256 switches too (tests/scale.rs holds it to < 1 sim-s, zero
        // queue drops); the golden stays on the preset it was searched
        // under so a re-pin changes one variable at a time.
        &NetParams {
            tracing: true,
            ..NetParams::scale()
        },
        // The 256-switch fabric gets the smoke budget: each evaluation is
        // a full hosted packet sim of the largest bench topology.
        WorstCaseConfig::smoke(24),
        include!("goldens/worst_case_fat_tree256.rs"),
    );
}

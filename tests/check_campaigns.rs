//! The invariant-oracle campaign corpus.
//!
//! Three layers of assurance, all built on `autonet_check`:
//!
//! 1. **Seeded corpus** — randomly generated fault campaigns (fixed
//!    seeds, fully deterministic) run against the packet backend with the
//!    honest tuned parameters. Every oracle must stay silent. On a
//!    failure the schedule is shrunk and the panic message carries a
//!    copy-pasteable `#[test]` reproducing it.
//! 2. **Planted bug** — the same engine run with the skeptic hysteresis
//!    deliberately disabled (`degraded_params`) against the bounds the
//!    tuned parameters promise. The skeptic oracle must fire, and the
//!    shrinker must cut the campaign down to a handful of events.
//! 3. **Sharded corpus** — the seeded corpus again through the packet
//!    backend on the sharded kernel: the same oracles, the same final
//!    reference audit, zero violations.

use autonet::autopilot::AutopilotParams;
use autonet::net::{NetParams, PartitionedNetwork};
use autonet_check::{
    default_postmortem_dir, degraded_params, packet_reproducer, postmortem_on_failure,
    random_scenario, run_packet, write_postmortem, BootedCampaign, CheckOutcome, FaultEvent,
    FaultOp, OracleConfig, Reproducer, Scenario, TopoSpec,
};

/// Shrinks a failing campaign, drops a postmortem bundle, and panics with
/// a self-contained reproducer (the whole point of the exercise: the CI
/// log *is* the regression test, and the bundle is the crime scene).
fn fail_with_reproducer(
    scenario: &Scenario,
    outcome: &CheckOutcome,
    params: &NetParams,
    cfg: &OracleConfig,
) -> ! {
    let rep = packet_reproducer(scenario, params, cfg).expect("caller observed a violation");
    postmortem_on_failure(&scenario.name, scenario, outcome, Some(&rep));
    panic!(
        "campaign {} violated an invariant; minimal reproducer:\n\n{}",
        scenario.name,
        rep.snippet(
            "let params = autonet::net::NetParams::tuned();\n    \
             let cfg = OracleConfig::from_params(&params.autopilot);",
        )
    );
}

fn run_corpus(seeds: impl Iterator<Item = u64>, n_events: usize) {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    for seed in seeds {
        let scenario = random_scenario(seed, n_events);
        let outcome = run_packet(&scenario, &params, &cfg);
        if !outcome.passed() {
            fail_with_reproducer(&scenario, &outcome, &params, &cfg);
        }
        assert!(
            outcome.quiescences >= 2,
            "{}: campaign must reach initial and final quiescence",
            scenario.name
        );
    }
}

/// The corpus on the sharded kernel at 2 partitions. Verdicts only, not
/// histories: the classic kernel reads neighbours live and the sharded
/// one through the window latch, so the two legitimately interleave
/// differently and a classic reproducer would not replay a failure here.
fn run_corpus_sharded(seeds: impl Iterator<Item = u64>, n_events: usize) {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    for seed in seeds {
        let scenario = random_scenario(seed, n_events);
        let booted = BootedCampaign::boot(&scenario.topo, scenario.seed, &cfg, |t| {
            PartitionedNetwork::new(t.clone(), params, scenario.seed, 2)
        });
        let outcome = booted.resume(&scenario).0;
        assert!(
            outcome.passed(),
            "{} (sharded): {}",
            scenario.name,
            outcome.violation.unwrap()
        );
        assert!(outcome.quiescences >= 2, "{} (sharded)", scenario.name);
    }
}

/// The tier-1 corpus: small but honest — every oracle armed, every fault
/// class reachable by the generator.
#[test]
fn seeded_campaign_corpus() {
    run_corpus(1..=4, 6);
}

/// More seeds, longer schedules, still tier-1.
#[test]
fn random_fault_sequences_always_settle_consistently() {
    run_corpus(1..=10, 8);
}

#[test]
fn heavier_fault_barrage() {
    run_corpus(100..=103, 20);
}

/// The release-mode corpus CI runs via `scripts/check.sh` (`--ignored`):
/// more seeds, longer schedules.
#[test]
#[ignore = "release-mode corpus; run explicitly (scripts/check.sh does)"]
fn seeded_campaign_corpus_extended() {
    run_corpus(1..=12, 10);
    run_corpus_sharded(1..=12, 10);
}

/// Tier-1 slice of the sharded corpus (the release tier runs all of it).
#[test]
fn seeded_campaign_corpus_sharded() {
    run_corpus_sharded(1..=2, 6);
}

/// The planted-bug acceptance check: disable the skeptic hysteresis, keep
/// the oracle honest, and the engine must (a) catch it, (b) shrink the
/// schedule to ≤ 5 events, and (c) reproduce it deterministically from
/// the shrunk schedule.
#[test]
fn planted_skeptic_bug_is_caught_and_shrunk() {
    let params = NetParams {
        autopilot: degraded_params(),
        ..NetParams::tuned()
    };
    // Bounds derived from the *tuned* parameters: what the skeptic is
    // supposed to enforce.
    let cfg = OracleConfig::from_params(&AutopilotParams::tuned());
    // One short cable bounce (the actual bug trigger: down 40 ms, the
    // degraded skeptic readmits far inside the 100 ms hold) buried in
    // decoy events the shrinker must discard.
    let scenario = Scenario {
        name: "planted-skeptic".into(),
        topo: TopoSpec::Ring { n: 4, seed: 0 },
        seed: 7,
        events: vec![
            FaultEvent {
                at_ms: 100,
                op: FaultOp::LinkDown(0),
            },
            FaultEvent {
                at_ms: 140,
                op: FaultOp::LinkUp(0),
            },
            FaultEvent {
                at_ms: 400,
                op: FaultOp::LinkDown(1),
            },
            FaultEvent {
                at_ms: 900,
                op: FaultOp::LinkUp(1),
            },
            FaultEvent {
                at_ms: 1200,
                op: FaultOp::LinkFlaps {
                    link: 2,
                    half_period_ms: 200,
                    cycles: 1,
                },
            },
            FaultEvent {
                at_ms: 1300,
                op: FaultOp::Waypoint { settle_ms: 60_000 },
            },
        ],
        settle_ms: 60_000,
    };

    let outcome = run_packet(&scenario, &params, &cfg);
    let violation = outcome
        .violation
        .expect("the degraded skeptic must be caught");
    assert_eq!(violation.kind(), "skeptic-hold", "got: {violation}");

    let shrunk = autonet_check::shrink_schedule(&scenario, |s| {
        run_packet(s, &params, &cfg)
            .violation
            .is_some_and(|v| v.kind() == "skeptic-hold")
    });
    assert!(
        shrunk.events.len() <= 5,
        "shrinker left {} events: {:#?}",
        shrunk.events.len(),
        shrunk.events
    );
    // The trigger pair must survive; every decoy must be gone.
    assert!(shrunk
        .events
        .iter()
        .any(|e| e.op == FaultOp::LinkDown(0) || e.op == FaultOp::LinkUp(0)));
    assert!(!shrunk
        .events
        .iter()
        .any(|e| matches!(e.op, FaultOp::LinkFlaps { .. } | FaultOp::Waypoint { .. })));

    // Deterministic replay of the minimal schedule.
    let replay = run_packet(&shrunk, &params, &cfg);
    let v1 = replay.violation.expect("shrunk schedule must still fail");
    assert_eq!(v1.kind(), "skeptic-hold");
    let replay2 = run_packet(&shrunk, &params, &cfg);
    assert_eq!(
        replay2.violation,
        Some(v1.clone()),
        "replay must be bit-identical"
    );

    // And the reproducer snippet is a complete test.
    let rep = Reproducer {
        scenario: shrunk,
        violation: v1,
    };
    let snippet = rep.snippet(
        "let params = autonet::net::NetParams { autopilot: degraded_params(), ..autonet::net::NetParams::tuned() };\n    \
         let cfg = OracleConfig::from_params(&autonet::autopilot::AutopilotParams::tuned());",
    );
    assert!(snippet.contains("fn reproduces_skeptic_hold()"));
    assert!(snippet.contains("FaultOp::LinkDown(0)"));
    assert!(snippet.contains("assert_eq!(v.kind(), \"skeptic-hold\")"));
}

/// The flight-recorder acceptance check: a forced oracle failure (the
/// planted skeptic bug's two-event trigger) must produce a complete
/// postmortem bundle — summary, bounded event window, Perfetto span
/// export and the shrunken reproducer — in one directory under the
/// gitignored artifacts root.
#[test]
fn forced_failure_emits_a_complete_postmortem_bundle() {
    let params = NetParams {
        autopilot: degraded_params(),
        ..NetParams::tuned()
    };
    let cfg = OracleConfig::from_params(&AutopilotParams::tuned());
    let scenario = Scenario {
        name: "forced-postmortem".into(),
        topo: TopoSpec::Ring { n: 4, seed: 0 },
        seed: 7,
        events: vec![
            FaultEvent {
                at_ms: 100,
                op: FaultOp::LinkDown(0),
            },
            FaultEvent {
                at_ms: 140,
                op: FaultOp::LinkUp(0),
            },
        ],
        settle_ms: 60_000,
    };
    let outcome = run_packet(&scenario, &params, &cfg);
    let violation = outcome.violation.as_ref().expect("the bug must fire");
    assert_eq!(violation.kind(), "skeptic-hold");
    assert!(
        !outcome.records.is_empty(),
        "failing outcomes must carry the event spine"
    );

    let rep = packet_reproducer(&scenario, &params, &cfg).expect("the failure shrinks");
    // The shrinker found it on forks of one booted world; the reproducer
    // it emits boots its own (`run_packet`) and must convict the same way.
    let replay = run_packet(&rep.scenario, &params, &cfg);
    assert_eq!(
        replay.violation.as_ref().map(|v| v.kind()),
        Some(rep.violation.kind()),
        "shrunk to {:?}",
        rep.scenario.events
    );
    let dir = write_postmortem(
        &default_postmortem_dir(),
        &scenario.name,
        &scenario,
        &outcome,
        Some(&rep),
    )
    .expect("bundle written");
    assert!(dir.ends_with("forced-postmortem-skeptic-hold"));

    let read = |f: &str| -> String {
        std::fs::read_to_string(dir.join(f)).unwrap_or_else(|e| panic!("bundle misses {f}: {e}"))
    };
    let summary = read("summary.txt");
    assert!(summary.contains("violation kind: skeptic-hold"));
    assert!(
        summary.contains("Scenario {"),
        "summary embeds the scenario"
    );
    assert!(summary.contains("files: events.jsonl, spans.trace.json, reproducer.rs"));
    let events = read("events.jsonl");
    assert!(!events.is_empty(), "the violation window holds events");
    assert!(events.lines().all(|l| l.starts_with('{')));
    let trace = read("spans.trace.json");
    assert!(trace.contains("\"traceEvents\""));
    assert!(
        trace.contains("\"ph\":\"X\""),
        "the run's epochs appear as spans"
    );
    let repro = read("reproducer.rs");
    assert!(repro.contains("fn reproduces_skeptic_hold()"));

    // The convenience hook writes the same bundle and reports its path.
    assert_eq!(
        postmortem_on_failure(&scenario.name, &scenario, &outcome, Some(&rep)),
        Some(dir)
    );
}

/// The hosted corpus: dual-homed hosts on every switch, probe flows
/// running from first quiescence, and the blackout oracle armed. A trunk
/// cut must leave only epoch-attributed blackout windows, and a host
/// power cycle must not trip the oracle (its pairs are exempt — the
/// outage *is* the fault).
#[test]
fn hosted_campaigns_explain_every_blackout() {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    for (topo_seed, sim_seed) in [(3, 11), (5, 23)] {
        let scenario = Scenario {
            name: format!("hosted-cut-{topo_seed}"),
            topo: TopoSpec::Hosted {
                base: Box::new(TopoSpec::RandomConnected {
                    n: 5,
                    extra: 1,
                    seed: topo_seed,
                }),
                per_switch: 1,
                seed: topo_seed ^ 0x4057,
            },
            seed: sim_seed,
            events: vec![
                FaultEvent {
                    at_ms: 500,
                    op: FaultOp::LinkDown(0),
                },
                FaultEvent {
                    at_ms: 3_000,
                    op: FaultOp::HostPowerOff(1),
                },
                FaultEvent {
                    at_ms: 6_000,
                    op: FaultOp::HostPowerOn(1),
                },
            ],
            settle_ms: 120_000,
        };
        let outcome = run_packet(&scenario, &params, &cfg);
        assert!(
            outcome.passed(),
            "{}: hosted campaign failed: {}",
            scenario.name,
            outcome.violation.unwrap()
        );
        let report = outcome
            .interruption
            .expect("probes ran on a hosted topology");
        assert_eq!(report.pairs.len(), 5, "one probe pair per host");
        let delivered: u64 = report.pairs.iter().map(|p| p.delivered).sum();
        assert!(delivered > 0, "{}: probes must flow", scenario.name);
        for w in report.windows() {
            let p = &report.pairs[w.pair as usize];
            if p.src != 1 && p.dst != 1 {
                assert!(
                    w.epoch.is_some(),
                    "{}: non-exempt blackout unexplained: {w:?}",
                    scenario.name
                );
            }
        }
    }
}

/// A finding of the worst-case search (`src30_worst_case_search --seed
/// 7` in `benchmark/`), shrunk to its three load-bearing events. It
/// was an oracle false positive, not a protocol bug. A flap of link 2
/// and a cut of link 2 in the same slot leave the cable *up*: the flap's
/// closing repair lands 67 ms after the cut. The engine mirrored the flap
/// as an instant repair with the cut after it, so it waited for link 2 to
/// go down for good. Quiescence needs the plant to match that mirror, so
/// once the repair landed the run could only end in
/// `SettleTimeout { at: 30.362 s, budget_ms: 30000 }` (30.943 s at the
/// unshrunk offsets 410 / 410 / 663 ms). All three events were needed:
/// without the switch crash the network settled inside the flap, before
/// the repair landed, so every 2-event subset passed. The mirror now lets
/// a flap's pending repair win over an earlier cut of its link. The
/// campaign settles after that repair, and every oracle stays silent.
#[test]
fn flap_and_cut_of_one_link_in_one_slot_settle() {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    let scenario = Scenario {
        name: "seed7-flap-and-cut".into(),
        topo: TopoSpec::Hosted {
            base: Box::new(TopoSpec::Src { seed: 1991 }),
            per_switch: 1,
            seed: 1505231282862050854,
        },
        seed: 4930668020354992713,
        events: vec![
            FaultEvent {
                at_ms: 51,
                op: FaultOp::LinkFlaps {
                    link: 2,
                    half_period_ms: 67,
                    cycles: 1,
                },
            },
            FaultEvent {
                at_ms: 51,
                op: FaultOp::LinkDown(2),
            },
            FaultEvent {
                at_ms: 82,
                op: FaultOp::SwitchDown(15),
            },
        ],
        settle_ms: 30_000,
    };
    let outcome = run_packet(&scenario, &params, &cfg);
    if !outcome.passed() {
        fail_with_reproducer(&scenario, &outcome, &params, &cfg);
    }
    assert_eq!(outcome.quiescences, 2);
    // The final quiescence waited for the flap's repair.
    let repaired = outcome.origin + autonet::sim::SimDuration::from_millis(51 + 67);
    assert!(outcome.end > repaired, "ended at {}", outcome.end);
}

/// The other side of that boundary, as the search's retime and same-slot
/// mutations can draw it: a cut of a flapped link at or after the flap's
/// final repair (40 ms × 2 from 50 ms: up for good at 170 ms, the flap's
/// span ends at 210 ms) takes the link down for good, in the plant and in
/// the engine's mirror, so the campaign settles with the link cut.
#[test]
fn a_cut_after_a_flaps_final_repair_settles() {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    for cut_ms in [170, 200] {
        let scenario = Scenario {
            name: format!("flap-then-cut-at-{cut_ms}"),
            topo: TopoSpec::Hosted {
                base: Box::new(TopoSpec::Ring { n: 6, seed: 0 }),
                per_switch: 1,
                seed: 0,
            },
            seed: 3,
            events: vec![
                FaultEvent {
                    at_ms: 50,
                    op: FaultOp::LinkFlaps {
                        link: 2,
                        half_period_ms: 40,
                        cycles: 2,
                    },
                },
                FaultEvent {
                    at_ms: cut_ms,
                    op: FaultOp::LinkDown(2),
                },
            ],
            settle_ms: 30_000,
        };
        let outcome = run_packet(&scenario, &params, &cfg);
        if !outcome.passed() {
            fail_with_reproducer(&scenario, &outcome, &params, &cfg);
        }
        assert_eq!(outcome.quiescences, 2, "{}", scenario.name);
    }
}

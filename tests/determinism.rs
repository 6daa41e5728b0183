//! The whole stack is deterministic: identical seeds produce bit-identical
//! histories, which is what makes every experiment in EXPERIMENTS.md
//! reproducible.

use autonet::autopilot::AutopilotParams;
use autonet::net::{Driver, Net, NetParams, Network, PartitionedNetwork};
use autonet::sim::{bucket_quantile, SimDuration, SimTime};
use autonet::topo::{gen, HostId, LinkId, SwitchId};
use autonet::trace::TraceRecord;
use autonet::wire::ShortAddress;
use autonet_check::{
    degraded_params, mutants, random_scenario_with, run_packet, BootedCampaign, CheckOutcome,
    FaultEvent, FaultOp, ForkCache, GenOptions, OracleConfig, Scenario, TopoSpec, WorstCaseConfig,
};
use std::time::Duration;

fn run_once(seed: u64) -> (String, Vec<(u64, usize)>) {
    let mut topo = gen::torus(3, 3, 77);
    gen::add_dual_homed_hosts(&mut topo, 1, 3);
    let mut net = Network::new(topo, NetParams::tuned(), seed);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    net.run_for(SimDuration::from_secs(3));
    let dst = net.topology().host(HostId(5)).uid;
    for i in 0..20 {
        net.schedule_host_send(
            net.now() + SimDuration::from_millis(7) * i,
            HostId(0),
            dst,
            256,
            100 + i,
        );
    }
    net.schedule_link_down(net.now() + SimDuration::from_millis(40), LinkId(2));
    net.run_for(SimDuration::from_secs(2));
    let trace = autonet::trace::to_jsonl(net.trace_log().records());
    let deliveries: Vec<(u64, usize)> =
        net.deliveries().iter().map(|d| (d.tag, d.host.0)).collect();
    (trace, deliveries)
}

#[test]
fn identical_seeds_identical_histories() {
    let (e1, d1) = run_once(11);
    let (e2, d2) = run_once(11);
    assert_eq!(e1, e2, "traces must match bit for bit");
    assert_eq!(d1, d2, "delivery records must match");
    assert!(!e1.is_empty() && !d1.is_empty());
}

#[test]
fn different_seeds_differ_somewhere() {
    // Boot jitter differs, so at least the event timing must diverge.
    let (e1, _) = run_once(11);
    let (e3, _) = run_once(12);
    assert_ne!(e1, e3, "seeds must actually matter");
}

/// Tracing off must be free and behavior-neutral: a 16-switch run with
/// `tracing: false` records nothing in the one trace log there is (the
/// Autopilots hand over no events, the network spine stays empty) yet
/// converges to exactly the same control-plane state as the traced run —
/// same final epochs, same installed-table digests.
#[test]
fn disabled_tracing_is_zero_cost_and_behavior_neutral() {
    let run = |tracing: bool| {
        let params = NetParams {
            tracing,
            ..NetParams::tuned()
        };
        let mut net = Network::new(gen::torus(4, 4, 21), params, 6);
        net.run_until_stable(SimTime::from_secs(60))
            .expect("converges");
        net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(1));
        net.run_until_stable(net.now() + SimDuration::from_secs(60))
            .expect("heals");
        net
    };
    let on = run(true);
    let off = run(false);
    // Zero trace records with tracing off.
    assert!(off.trace_log().is_empty(), "spine must stay empty");
    assert!(off.merged_trace().is_empty(), "nothing to merge");
    // The traced run actually traced, and the merged view is all of it.
    assert!(!on.trace_log().is_empty());
    assert_eq!(on.merged_trace().len(), on.trace_log().len());
    // Identical control-plane outcome, switch by switch.
    for s in on.topology().switch_ids() {
        let (a, b) = (on.autopilot(s), off.autopilot(s));
        assert_eq!(a.epoch(), b.epoch(), "switch {s:?} epoch");
        assert_eq!(a.is_open(), b.is_open(), "switch {s:?} open");
        assert_eq!(
            on.forwarding_table(s).canonical_digest(),
            off.forwarding_table(s).canonical_digest(),
            "switch {s:?} table"
        );
    }
}

/// The datapath side of the same guarantee: with tracing off, no probe
/// state is ever allocated (probes are opt-in) and a hosted workload
/// produces the exact same byte stream — identical delivery records,
/// identical `NetStats`, the same events handled, kind by kind.
#[test]
fn disabled_tracing_keeps_the_datapath_byte_identical() {
    let run = |tracing: bool| {
        let params = NetParams {
            tracing,
            ..NetParams::tuned()
        };
        let mut topo = gen::torus(3, 3, 77);
        gen::add_dual_homed_hosts(&mut topo, 1, 3);
        let mut net = Network::new(topo, params, 9);
        net.run_until_stable(SimTime::from_secs(60))
            .expect("converges");
        net.run_for(SimDuration::from_secs(3));
        let dst = net.topology().host(HostId(5)).uid;
        for i in 0..30 {
            net.schedule_host_send(
                net.now() + SimDuration::from_millis(5) * i,
                HostId(0),
                dst,
                512,
                500 + i,
            );
        }
        net.schedule_link_down(net.now() + SimDuration::from_millis(60), LinkId(2));
        net.run_for(SimDuration::from_secs(2));
        net
    };
    let on = run(true);
    let off = run(false);
    assert!(off.probe_records().is_empty(), "probes never ran");
    let deliveries = |net: &Network| {
        net.deliveries()
            .iter()
            .map(|d| format!("{:?}", d))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        deliveries(&on),
        deliveries(&off),
        "delivery stream must be bit-identical with tracing off"
    );
    assert_eq!(format!("{:?}", on.stats()), format!("{:?}", off.stats()));
    assert_eq!(on.events_processed(), off.events_processed());
    assert_eq!(on.events_by_kind(), off.events_by_kind());
}

/// A 16-switch torus on 2 partitions: bring-up, then one trunk cut.
fn cut_on_two_partitions(tracing: bool) -> PartitionedNetwork {
    let params = NetParams {
        tracing,
        ..NetParams::tuned()
    };
    let mut net = PartitionedNetwork::new(gen::torus(4, 4, 21), params, 6, 2);
    net.run_for(SimDuration::from_millis(600)); // bring-up
    net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(1));
    net.run_for(SimDuration::from_millis(600));
    net
}

/// Per switch: open, epoch, installed-table digest.
fn control_plane(net: &PartitionedNetwork) -> Vec<(bool, u64, u64)> {
    net.topology()
        .switch_ids()
        .map(|s| {
            let ap = net.autopilot(s);
            (
                ap.is_open(),
                ap.epoch().0,
                net.forwarding_table(s).canonical_digest(),
            )
        })
        .collect()
}

/// The observability layers added on top of the raw records inherit the
/// same guarantee: with tracing off the span tree derived from the run
/// is empty (its Chrome-trace export carries metadata only, no spans)
/// and the partitioned kernel allocates no shard telemetry at all —
/// `shard_telemetry`, `barrier_wait_fraction` and `load_imbalance` are
/// `None`, not zeros. With tracing on, all of them materialize.
#[test]
fn disabled_tracing_disables_spans_and_kernel_telemetry() {
    let off = cut_on_two_partitions(false);
    assert!(off.shard_telemetry().is_none(), "no telemetry allocated");
    assert!(off.barrier_wait_fraction().is_none());
    assert!(off.load_imbalance().is_none());
    let tree = autonet::trace::Timeline::build(&off.merged_trace()).span_tree();
    assert!(tree.is_empty(), "no records, no spans");
    let export = tree.to_chrome_trace();
    assert!(
        !export.contains("\"ph\":\"X\""),
        "untraced export must hold no spans: {export}"
    );

    let on = cut_on_two_partitions(true);
    let tel = on.shard_telemetry().expect("telemetry allocated");
    assert_eq!(tel.len(), 2, "one telemetry block per shard");
    assert_eq!(
        tel.iter().map(|t| t.events).sum::<u64>(),
        on.events_processed(),
        "the shards' event counts cover every processed event"
    );
    assert!(on.barrier_wait_fraction().is_some());
    assert!(on.load_imbalance().unwrap() >= 1.0);
    let tree = autonet::trace::Timeline::build(&on.merged_trace()).span_tree();
    assert!(!tree.is_empty(), "traced run settles epochs");
    tree.check_well_formed().expect("well-formed span tree");
}

/// Kernel telemetry observes and never steers: the same run with it on
/// and off ends in the same control-plane state after the same number of
/// events. And its wait/work buckets hold one sample per shard-window,
/// so their quantiles are per-window costs.
#[test]
fn kernel_histograms_are_per_window_and_telemetry_is_neutral() {
    let (off, on) = (cut_on_two_partitions(false), cut_on_two_partitions(true));
    assert_eq!(control_plane(&off), control_plane(&on));
    assert_eq!(off.events_processed(), on.events_processed());
    let traffic = |net: &PartitionedNetwork| {
        let s = net.stats();
        (s.control_sent, s.opens, s.closes, s.last_state_change)
    };
    assert_eq!(traffic(&off), traffic(&on));

    let tel = on.shard_telemetry().expect("telemetry allocated");
    let windows: u64 = tel.iter().map(|t| t.windows).sum();
    assert!(windows > 1_000, "a real run: {windows} shard-windows");
    for t in &tel {
        for buckets in [&t.barrier_wait_buckets, &t.work_buckets] {
            assert_eq!(
                buckets.iter().sum::<u64>(),
                t.windows,
                "one sample per window"
            );
        }
    }
    // A window of this 16-switch run is microseconds of work, not the
    // hundreds of milliseconds of a run total.
    let p50 = bucket_quantile(tel.iter().map(|t| &t.work_buckets), 0.5);
    assert!(p50 < Duration::from_millis(10), "per-window p50: {p50:?}");
}

type HostState = (usize, Option<ShortAddress>, SimTime, Option<SimTime>);

/// Everything observable a partitioned campaign produces, in canonical
/// (partition-count-independent) form.
#[derive(Debug, PartialEq)]
struct PartitionedHistory {
    trace_jsonl: String,
    switches: Vec<(bool, u64, u64)>,
    deliveries: Vec<(u64, u64, usize)>,
    /// Per host: active port, short address, last port switch, last
    /// address change.
    hosts: Vec<HostState>,
    reconfigs: u64,
}

/// One full fault campaign — trunk cut and repair, a flapping cable, a
/// switch crash and reboot, a host power cycle, and a stream of host
/// sends — executed on
/// `nparts` shards. Spans are fixed (no convergence polling) so every
/// fault lands at the same virtual instant regardless of partitioning.
fn partitioned_campaign(nparts: usize) -> PartitionedHistory {
    let mut topo = gen::torus(4, 4, 77);
    gen::add_dual_homed_hosts(&mut topo, 1, 3);
    let mut net = PartitionedNetwork::new(topo, NetParams::tuned(), 11, nparts);
    net.run_for(SimDuration::from_millis(600)); // bring-up
    let dst = net.topology().host(HostId(5)).uid;
    for i in 0..20 {
        net.schedule_host_send(
            net.now() + SimDuration::from_millis(7) * i,
            HostId(0),
            dst,
            256,
            100 + i,
        );
    }
    net.schedule_link_down(net.now() + SimDuration::from_millis(40), LinkId(2));
    net.run_for(SimDuration::from_millis(400));
    // Two faults at one instant, scheduled against node order: what they
    // cause must still come out in one order at every partition count.
    net.schedule_host_power_off(net.now() + SimDuration::from_millis(10), HostId(2));
    net.schedule_switch_down(net.now() + SimDuration::from_millis(10), SwitchId(6));
    net.schedule_link_flaps(
        net.now() + SimDuration::from_millis(20),
        LinkId(9),
        SimDuration::from_millis(30),
        2,
    );
    net.run_for(SimDuration::from_millis(400));
    net.schedule_link_up(net.now() + SimDuration::from_millis(5), LinkId(2));
    net.schedule_switch_up(net.now() + SimDuration::from_millis(25), SwitchId(6));
    net.schedule_host_power_on(net.now() + SimDuration::from_millis(35), HostId(2));
    net.run_for(SimDuration::from_millis(600));
    // The merged trace is the canonical artifact: stable-sorted by
    // (time, node), serialized to JSONL, byte-comparable across runs.
    let trace_jsonl = autonet::trace::to_jsonl(&net.merged_trace());
    let switches = control_plane(&net);
    // Deliveries come out merged by (time, receiving host), so their
    // order is part of what must not depend on the partitioning.
    let deliveries: Vec<(u64, u64, usize)> = net
        .deliveries()
        .iter()
        .map(|d| (d.time.as_nanos(), d.tag, d.host.0))
        .collect();
    let hosts = net
        .topology()
        .host_ids()
        .map(|h| {
            let c = net.host(h);
            (
                c.active_port(),
                c.short_address(),
                c.switched_at(),
                c.address_changed_at(),
            )
        })
        .collect();
    PartitionedHistory {
        trace_jsonl,
        switches,
        deliveries,
        hosts,
        reconfigs: net.total_reconfigs_triggered(),
    }
}

/// The tentpole guarantee: the sharded executor is *invisible*. The same
/// campaign at 1, 2, and 8 partitions produces byte-identical canonical
/// trace digests and identical control-plane and data-plane outcomes.
#[test]
fn partition_count_is_invisible() {
    let base = partitioned_campaign(1);
    assert!(!base.trace_jsonl.is_empty(), "campaign must leave a trace");
    assert!(!base.deliveries.is_empty(), "hosts must deliver data");
    assert!(base.reconfigs > 0, "faults must trigger reconfigurations");
    for nparts in [2, 8] {
        let other = partitioned_campaign(nparts);
        assert_eq!(
            base.trace_jsonl, other.trace_jsonl,
            "trace digest must not depend on partitioning ({nparts} shards)"
        );
        assert_eq!(base.switches, other.switches, "{nparts} shards");
        assert_eq!(base.deliveries, other.deliveries, "{nparts} shards");
        assert_eq!(base.hosts, other.hosts, "{nparts} shards");
        assert_eq!(base.reconfigs, other.reconfigs, "{nparts} shards");
    }
}

/// More shards than cores, twice over: two 8-partition campaigns at once
/// on a 2-core box (plus whatever else `cargo test` is running). The
/// round barrier spins only briefly, then yields, then parks, so the
/// oversubscribed case costs about what the blocking barriers it replaced
/// did (~2 s each here, debug build) instead of livelocking.
#[test]
fn oversubscribed_partitions_finish_within_budget() {
    let started = std::time::Instant::now();
    let runs: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(|| partitioned_campaign(8)))
        .collect();
    let histories: Vec<_> = runs
        .into_iter()
        .map(|run| run.join().expect("campaign completes"))
        .collect();
    assert_eq!(histories[0], histories[1]);
    let wall = started.elapsed();
    assert!(
        wall < std::time::Duration::from_secs(120),
        "two concurrent 8-partition campaigns took {wall:?} (budget 120 s)"
    );
}

#[test]
fn merged_trace_is_time_ordered() {
    let mut topo = gen::ring(4, 5);
    gen::add_dual_homed_hosts(&mut topo, 1, 9);
    let mut net = Network::new(topo, NetParams::tuned(), 4);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    let merged = net.merged_trace();
    assert!(!merged.is_empty());
    assert!(merged.windows(2).all(|w| w[0].time <= w[1].time));
    // Bring-up leaves traces from every switch.
    let nodes: std::collections::BTreeSet<usize> = merged.iter().map(|r| r.node).collect();
    assert_eq!(nodes.len(), 4);
}

/// A cut-and-heal campaign in three fixed legs. Returns what draining the
/// spine after every leg handed out (nothing unless `drain`) and
/// `merged_trace()` at the end.
fn traced_legs<D: Driver>(mut net: Net<D>, drain: bool) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    let mut drained = Vec::new();
    for link_up in [None, Some(false), Some(true)] {
        let at = net.now() + SimDuration::from_millis(1);
        match link_up {
            Some(false) => net.schedule_link_down(at, LinkId(2)),
            Some(true) => net.schedule_link_up(at, LinkId(2)),
            None => {}
        }
        net.run_for(SimDuration::from_millis(400));
        if drain {
            drained.extend(net.drain_trace_records());
        }
    }
    (drained, net.merged_trace())
}

/// One trace log, one merged view. `merged_trace()` is the same canonical
/// history at 1, 2 and 4 partitions, and on either kernel a second run of
/// the same campaign that drains the spine as it goes is handed exactly
/// that history in pieces.
#[test]
fn merged_trace_is_partition_invariant_and_equals_the_drains() {
    let sharded =
        |nparts| PartitionedNetwork::new(gen::torus(3, 3, 7), NetParams::tuned(), 11, nparts);
    let classic = || Network::new(gen::torus(3, 3, 7), NetParams::tuned(), 11);
    let (_, base) = traced_legs(sharded(1), false);
    assert!(base.len() > 100, "a real campaign: {} records", base.len());
    for nparts in [2, 4] {
        assert_eq!(
            traced_legs(sharded(nparts), false).1,
            base,
            "{nparts} shards"
        );
    }
    let (_, classic_base) = traced_legs(classic(), false);
    let canonical = |w: &[TraceRecord]| (w[0].time, w[0].node) <= (w[1].time, w[1].node);
    assert!(base.windows(2).all(canonical) && classic_base.windows(2).all(canonical));
    for ((drained, left), base) in [
        (traced_legs(sharded(2), true), &base),
        (traced_legs(classic(), true), &classic_base),
    ] {
        assert!(left.is_empty(), "everything was drained");
        assert_eq!(&autonet::trace::merge_sorted(&drained), base);
    }
}

fn hosted(base: TopoSpec) -> TopoSpec {
    TopoSpec::Hosted {
        base: Box::new(base),
        per_switch: 1,
        seed: 7,
    }
}

/// A seeded `random_scenario_with` schedule carried over to `topo`: the
/// generator draws its targets on a topology of its own, so link, switch
/// and host indices are folded into the target's ranges.
fn schedule_on(topo: TopoSpec, seed: u64, schedule_seed: u64, n_events: usize) -> Scenario {
    let built = topo.build();
    let (links, switches) = (built.num_links(), built.num_switches());
    let opts = GenOptions { same_slot_pct: 30 };
    let drawn = random_scenario_with(schedule_seed, n_events, opts);
    let events = drawn
        .events
        .into_iter()
        .map(|e| FaultEvent {
            at_ms: e.at_ms,
            op: match e.op {
                FaultOp::LinkDown(l) => FaultOp::LinkDown(l % links),
                FaultOp::LinkUp(l) => FaultOp::LinkUp(l % links),
                FaultOp::SwitchDown(s) => FaultOp::SwitchDown(s % switches),
                FaultOp::SwitchUp(s) => FaultOp::SwitchUp(s % switches),
                FaultOp::LinkFlaps {
                    link,
                    half_period_ms,
                    cycles,
                } => FaultOp::LinkFlaps {
                    link: link % links,
                    half_period_ms,
                    cycles,
                },
                other => other,
            },
        })
        .collect();
    Scenario {
        name: format!("fork-{seed}-{schedule_seed}"),
        topo,
        seed,
        events,
        settle_ms: 120_000,
    }
}

/// A run's outcome plus the route cache's work counters at its end.
type RunResult = (CheckOutcome, Option<(u64, u64, u64, u64, u64)>);

fn with_cache_work((outcome, net): (CheckOutcome, Network)) -> RunResult {
    let work = net.route_cache_stats().map(|s| s.work());
    (outcome, work)
}

/// The cold path, exactly `run_packet`'s body: a fresh network, booted,
/// resumed in place. No clone anywhere.
fn cold(s: &Scenario, params: &NetParams, cfg: &OracleConfig) -> RunResult {
    with_cache_work(BootedCampaign::packet(&s.topo, s.seed, params, cfg).resume(s))
}

fn forked(base: &BootedCampaign<Network>, s: &Scenario) -> RunResult {
    with_cache_work(base.clone().resume(s))
}

/// Boot once, fork per candidate, and nobody can tell: a scenario resumed
/// on a clone of the settled world produces the outcome a cold run does,
/// field for field (violation, end, origin, quiescences, interruption
/// ledger, damage, critical path, failing-run records), and leaves the
/// route cache with the same work counters. Forks are isolated from each
/// other and from the base they were cloned from, and a fork resumed on
/// another thread is the same fork.
#[test]
fn forked_campaigns_equal_cold_runs() {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    let topos = [
        hosted(TopoSpec::Ring { n: 8, seed: 2 }),
        hosted(TopoSpec::Torus {
            w: 4,
            h: 4,
            seed: 3,
        }),
        hosted(TopoSpec::Src { seed: 1991 }),
    ];
    for (k, topo) in topos.into_iter().enumerate() {
        let seed = 40 + k as u64;
        let base = BootedCampaign::packet(&topo, seed, &params, &cfg);
        let a = schedule_on(topo.clone(), seed, seed, 4);
        // The second schedule also powers a host off (its pairs become
        // exempt) and is sure to stop at a waypoint on its way.
        let mut b = schedule_on(topo.clone(), seed, 90 + seed, 3);
        b.events.insert(
            0,
            FaultEvent {
                at_ms: 10,
                op: FaultOp::HostPowerOff(1),
            },
        );
        b.events.insert(
            2,
            FaultEvent {
                at_ms: b.events[1].at_ms,
                op: FaultOp::Waypoint { settle_ms: 60_000 },
            },
        );

        let fork_a = forked(&base, &a);
        assert!(fork_a.0.quiescences >= 2, "{}: {:?}", a.name, fork_a.0);
        let cold_a = cold(&a, &params, &cfg);
        assert_eq!(fork_a, cold_a, "{} on {:?}", a.name, a.topo);
        // Nor can the thread it runs on: a fork resumed on a spawned
        // thread, as the search's worker pool does, equals the cold run
        // on this one.
        let on_thread = std::thread::scope(|s| {
            s.spawn(|| forked(&base, &a))
                .join()
                .expect("fork completes")
        });
        assert_eq!(on_thread, cold_a, "{} on a spawned thread", a.name);
        let fork_b = forked(&base, &b);
        assert!(fork_b.0.quiescences >= 3, "{}: {:?}", b.name, fork_b.0);
        assert_eq!(
            fork_b,
            cold(&b, &params, &cfg),
            "{} on {:?}",
            b.name,
            b.topo
        );
        // Sibling isolation: B ran in between, A comes out the same.
        assert_eq!(forked(&base, &a), fork_a, "{}: forks leak", a.name);
        assert_ne!(fork_a.0, fork_b.0, "the two schedules must differ");
        if k == 0 {
            assert_eq!(run_packet(&a, &params, &cfg), fork_a.0);
        }
    }
}

/// Judges `parent` through a cache over `base`, then checks every
/// child against its cold run in `colds`: first each resumed from the
/// parent's pauses alone, route cache work included; then each judged in
/// reverse order, so a child may resume a pause its sibling left; then
/// each judged again, which the memo answers without a run. Returns what
/// the cache spent.
fn children_equal_cold(
    base: &BootedCampaign<Network>,
    parent: &Scenario,
    children: &[Scenario],
    colds: &[RunResult],
) -> autonet_check::ForkWork {
    let mut forks = ForkCache::new(base.clone());
    forks.judge(parent);
    for (child, cold) in children.iter().zip(colds) {
        let resumed = with_cache_work(forks.resume(child));
        assert_eq!(&resumed, cold, "{}: {:?}", child.name, child.events);
    }
    for (child, cold) in children.iter().zip(colds).rev() {
        assert_eq!(
            forks.judge(child),
            cold.0,
            "{}: {:?}",
            child.name,
            child.events
        );
    }
    let runs = forks.work().runs;
    for (child, cold) in children.iter().zip(colds) {
        assert_eq!(forks.judge(child), cold.0, "{} from the memo", child.name);
    }
    assert_eq!(forks.work().runs, runs, "a second judgement runs nothing");
    forks.work()
}

/// Fork ≡ cold from any pause: a child that begins with its parent's
/// first k events (in walk order) resumes the parent's walk paused right
/// before event k, and nobody can tell. The children are the search's
/// own mutations of the parent plus hand-built ones that keep a prefix
/// through a host power-off, a flap whose repair lands after the pause,
/// two events at one instant (forked between them) and a waypoint.
/// However it is judged, each equals its cold run field for field,
/// route-cache work counters included, and some resumed past origin.
#[test]
fn prefix_forks_equal_cold_runs() {
    let params = NetParams::tuned();
    let cfg = OracleConfig::from_params(&params.autopilot);
    let topos = [
        hosted(TopoSpec::Ring { n: 8, seed: 2 }),
        hosted(TopoSpec::Torus {
            w: 4,
            h: 4,
            seed: 3,
        }),
        hosted(TopoSpec::Src { seed: 1991 }),
    ];
    let at = |at_ms, op| FaultEvent { at_ms, op };
    for (k, topo) in topos.into_iter().enumerate() {
        let seed = 60 + k as u64;
        let base = BootedCampaign::packet(&topo, seed, &params, &cfg);
        // Link 0 flaps from 60 ms until its last repair at 300 ms.
        let flap = FaultOp::LinkFlaps {
            link: 0,
            half_period_ms: 60,
            cycles: 2,
        };
        let parent = Scenario {
            name: format!("prefix-{seed}"),
            topo: topo.clone(),
            seed,
            events: vec![
                at(40, FaultOp::HostPowerOff(1)),
                at(60, flap),
                at(120, FaultOp::LinkDown(2)),
                at(120, FaultOp::SwitchDown(3)),
                at(150, FaultOp::Waypoint { settle_ms: 60_000 }),
                at(1_000, FaultOp::LinkUp(2)),
            ],
            settle_ms: 60_000,
        };
        let child = |edit: &dyn Fn(&mut Vec<FaultEvent>)| {
            let mut c = parent.clone();
            edit(&mut c.events);
            c
        };
        let mut children = vec![
            // Forked mid-flap, at 120 ms: the flap's last repair, at
            // 300 ms, undoes its cut of the flapping link at 130 ms.
            child(&|e| e[2] = at(130, FaultOp::LinkDown(0))),
            // Forked between the two events due at 120 ms.
            child(&|e| e[3] = at(120, FaultOp::SwitchDown(4))),
            // Forked after the waypoint settled.
            child(&|e| e[5] = at(1_200, FaultOp::SwitchUp(3))),
            // Forked right before the waypoint: the last event dropped.
            child(&|e| {
                e.pop();
            }),
        ];
        children.extend(mutants(&parent, &WorstCaseConfig::new(seed), 3));
        let colds: Vec<RunResult> = children.iter().map(|c| cold(c, &params, &cfg)).collect();
        assert!(colds[2].0.quiescences >= 3, "{:?}", colds[2].0);
        let work = children_equal_cold(&base, &parent, &children, &colds);
        assert_eq!(work.evaluations, 2 * children.len() + 1);
        assert!(work.simulated < work.judged_time, "{topo:?}: {work:?}");
    }
}

/// The same on a failing run, where the outcome carries the whole event
/// spine: the planted skeptic bug (hysteresis disabled, honest bounds)
/// convicts identically from a fork and from a cold start.
#[test]
fn forked_violation_equals_the_cold_one() {
    let params = NetParams {
        autopilot: degraded_params(),
        ..NetParams::tuned()
    };
    let cfg = OracleConfig::from_params(&AutopilotParams::tuned());
    let topo = hosted(TopoSpec::Ring { n: 8, seed: 2 });
    let bounce = Scenario {
        name: "fork-planted-skeptic".into(),
        topo: topo.clone(),
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
    let base = BootedCampaign::packet(&topo, 7, &params, &cfg);
    let fork = forked(&base, &bounce);
    let violation = fork.0.violation.as_ref().expect("the bug must fire");
    assert_eq!(violation.kind(), "skeptic-hold");
    assert!(!fork.0.records.is_empty(), "failing runs carry the spine");
    assert_eq!(fork, cold(&bounce, &params, &cfg));
    // A child bouncing the link 40 ms later resumes the parent paused
    // right before its repair, and convicts as its cold run does.
    let mut later = bounce.clone();
    later.events[1].at_ms = 180;
    let colds = [cold(&later, &params, &cfg)];
    let violation = colds[0].0.violation.as_ref().expect("the child fails too");
    assert_eq!(violation.kind(), "skeptic-hold");
    let work = children_equal_cold(&base, &bounce, &[later], &colds);
    assert!(work.simulated < work.judged_time, "{work:?}");
}

//! Golden-trace regression tests: three canonical fault scenarios (from
//! `autonet::scenarios`, which `scripts/trace.sh` renders) whose full
//! typed event streams, serialized as canonical JSONL, must stay
//! byte-identical to the checked-in goldens under `tests/goldens/`.
//!
//! The event taxonomy, the node attribution, the timestamps and the
//! forwarding-table digests are all part of the contract — any change to
//! the reconfiguration pipeline that alters what happens (or when) shows
//! up as a golden diff and must be reviewed, not absorbed silently.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_traces
//! ```

use std::fs;
use std::path::PathBuf;

use autonet::net::{NetParams, Network, SlotNet};
use autonet::scenarios;
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, HostId, LinkId, SwitchId, Topology};
use autonet::trace::{to_jsonl, InterruptionConfig, InterruptionReport, Timeline, TraceRecord};
use autonet::wire::Uid;

fn golden_path(name: &str) -> PathBuf {
    // Names without an extension are event streams (`.jsonl`); names
    // carrying one (e.g. `single_link_cut.trace.json`) are kept as-is.
    let file = if name.contains('.') {
        name.to_string()
    } else {
        format!("{name}.jsonl")
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(file)
}

/// Compares against (or, under `UPDATE_GOLDENS=1`, rewrites) the golden.
fn assert_golden(name: &str, jsonl: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, jsonl).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {path:?} ({e}); run UPDATE_GOLDENS=1 cargo test --test golden_traces"
        )
    });
    if jsonl != want {
        let got_lines: Vec<&str> = jsonl.lines().collect();
        let want_lines: Vec<&str> = want.lines().collect();
        let first_diff = got_lines
            .iter()
            .zip(want_lines.iter())
            .position(|(g, w)| g != w)
            .unwrap_or(got_lines.len().min(want_lines.len()));
        panic!(
            "golden trace '{name}' diverged: {} lines vs {} expected; first difference at line {}:\n  got:  {}\n  want: {}\n(if intentional, regenerate with UPDATE_GOLDENS=1)",
            got_lines.len(),
            want_lines.len(),
            first_diff + 1,
            got_lines.get(first_diff).unwrap_or(&"<end of trace>"),
            want_lines.get(first_diff).unwrap_or(&"<end of golden>"),
        );
    }
}

/// The hosted variant of the single link cut: probe flows across the cut,
/// and the canonical `InterruptionReport` JSONL (per-pair counters plus
/// every epoch-attributed blackout window) is golden too.
fn run_interruption_single_link_cut() -> String {
    let mut topo = gen::ring(4, 5);
    gen::add_dual_homed_hosts(&mut topo, 1, 9);
    let mut net = Network::new(topo, NetParams::tuned(), 1);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("bring-up converges");
    // Hosts learn addresses, then a steady probed baseline.
    net.run_for(SimDuration::from_secs(3));
    let interval = SimDuration::from_millis(2);
    net.start_probes(
        &[
            (HostId(0), HostId(2)),
            (HostId(2), HostId(0)),
            (HostId(1), HostId(3)),
        ],
        interval,
    );
    net.run_for(SimDuration::from_secs(1));
    net.schedule_link_down(net.now() + SimDuration::from_millis(10), LinkId(0));
    net.run_for(SimDuration::from_millis(50));
    net.run_until_stable(net.now() + SimDuration::from_secs(60))
        .expect("heals around the cut");
    net.run_for(SimDuration::from_secs(2));
    let timeline = Timeline::build(net.trace_log().records());
    let report = InterruptionReport::build(
        &net.probe_pairs(),
        net.probe_records(),
        &timeline,
        net.now(),
        InterruptionConfig {
            interval,
            min_run: 2,
        },
    );
    report.to_jsonl()
}

#[test]
fn golden_single_link_cut() {
    assert_golden("single_link_cut", &to_jsonl(&scenarios::single_link_cut()));
}

/// The causal span export of the canonical scenario is golden too: the
/// Chrome Trace Event Format bytes (ready for <https://ui.perfetto.dev>)
/// pin the span-tree derivation — epoch boundaries, phase attribution,
/// thread layout — on top of the raw event stream pinned above.
#[test]
fn golden_single_link_cut_chrome_trace() {
    let records = scenarios::single_link_cut();
    let timeline = Timeline::build(&records);
    let tree = timeline.span_tree();
    tree.check_well_formed().expect("golden span tree");
    assert_golden("single_link_cut.trace.json", &tree.to_chrome_trace());
}

#[test]
fn golden_switch_crash_revive() {
    assert_golden(
        "switch_crash_revive",
        &to_jsonl(&scenarios::switch_crash_revive()),
    );
}

#[test]
fn golden_simultaneous_failures() {
    assert_golden(
        "simultaneous_failures",
        &to_jsonl(&scenarios::simultaneous_failures()),
    );
}

#[test]
fn golden_interruption_single_link_cut() {
    assert_golden(
        "interruption_single_link_cut",
        &run_interruption_single_link_cut(),
    );
}

/// E21's attribution on E21's src-30 cut: the burst holding the first
/// epoch the cut started begins at or after the cut, and it is the one
/// E21 reports (the first settled burst to do so), not a bring-up epoch.
#[test]
fn src30_cut_is_attributed_to_its_own_burst() {
    let mut topo = gen::src_network(1991);
    gen::add_dual_homed_hosts(&mut topo, 1, 7);
    let mut net = Network::new(topo, NetParams::tuned(), 42);
    net.run_until_stable(SimTime::from_secs(120))
        .expect("bring-up");
    net.run_for(SimDuration::from_secs(2));
    let before = net.autopilot(SwitchId(0)).epoch();
    let cut_at = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(cut_at, LinkId(11));
    net.run_for(SimDuration::from_millis(50));
    net.run_until_stable(net.now() + SimDuration::from_secs(120))
        .expect("heals");
    let timeline = Timeline::build(net.trace_log().records());
    let mut epochs = timeline.epochs.iter().map(|r| r.epoch);
    let first = epochs
        .find(|&e| e > before)
        .expect("the cut starts an epoch");
    let paths: Vec<_> = timeline.critical_paths().collect();
    let (cut_path, _) = paths
        .iter()
        .find(|(cp, from)| cp.epoch == first || from.contains(&first))
        .expect("the cut's burst settles");
    assert!(
        cut_path.segments[0].start >= cut_at,
        "the cut's burst starts before the cut"
    );
    let reported = paths.iter().find(|(cp, _)| cp.segments[0].start >= cut_at);
    assert_eq!(reported.map(|(cp, _)| cp.epoch), Some(cut_path.epoch));
}

/// The golden serialization itself must be reproducible: two consecutive
/// runs of the same seeded scenario give byte-identical JSONL.
#[test]
fn goldens_are_deterministic() {
    let a = to_jsonl(&scenarios::single_link_cut());
    let b = to_jsonl(&scenarios::single_link_cut());
    assert_eq!(a, b, "same seed, same scenario, different bytes");
    assert!(!a.is_empty());
}

/// The conformance topology both backends can express: two switches, one
/// trunk link, no hosts.
fn two_switch_topo() -> Topology {
    let mut t = Topology::new();
    let a = t.add_switch(Uid::new(1)).unwrap();
    let b = t.add_switch(Uid::new(2)).unwrap();
    t.connect(a, b, autonet::wire::LinkTiming::coax_100m())
        .unwrap();
    t
}

/// Per-node control-plane summary: the ordered sequence of control-plane
/// event kinds. Absolute epoch values — and even the number of epochs a
/// bring-up consumes — legitimately differ across backends (coalescing is
/// timing-dependent); the close/install/open *story* must not.
fn control_story(records: &[TraceRecord], nodes: usize) -> Vec<Vec<&'static str>> {
    let mut stories = vec![Vec::new(); nodes];
    for rec in autonet::trace::merge_sorted(records) {
        if rec.event.is_control_plane() {
            stories[rec.node].push(rec.event.kind());
        }
    }
    stories
}

fn is_subsequence(needle: &[&str], haystack: &[&str]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Every `network-opened` a node reports must carry a strictly larger
/// epoch than its previous one — on either backend.
fn assert_open_epochs_monotonic(records: &[TraceRecord], backend: &str) {
    let mut last: std::collections::BTreeMap<usize, u64> = Default::default();
    for rec in autonet::trace::merge_sorted(records) {
        if let autonet::autopilot::Event::NetworkOpened { epoch } = rec.event {
            if let Some(&prev) = last.get(&rec.node) {
                assert!(
                    epoch.0 > prev,
                    "{backend}: node {} reopened at epoch {} after {prev}",
                    rec.node,
                    epoch.0
                );
            }
            last.insert(rec.node, epoch.0);
        }
    }
}

/// Packet-level and slot-level backends must tell the same control-plane
/// story for the conformance scenario: every close/install/open a node
/// reports on one backend appears, in order, on the other (the backend
/// with the more leisurely timing may interleave extra epochs).
#[test]
fn backends_agree_on_control_plane_events() {
    // Packet backend.
    let mut pnet = Network::new(two_switch_topo(), NetParams::tuned(), 7);
    pnet.run_until_stable(SimTime::from_secs(60))
        .expect("packet backend converges");
    let packet = pnet.trace_log().records().to_vec();

    // Slot backend: same topology, scaled protocol constants.
    let topo = two_switch_topo();
    let mut snet = SlotNet::new(&topo, SlotNet::fast_params());
    snet.boot();
    assert!(
        snet.run_until_converged(2, 4_000_000),
        "slot backend converges"
    );
    let slot = snet.trace_log().records().to_vec();

    let p_story = control_story(&packet, 2);
    let s_story = control_story(&slot, 2);
    for node in 0..2 {
        assert!(
            is_subsequence(&p_story[node], &s_story[node])
                || is_subsequence(&s_story[node], &p_story[node]),
            "node {node}: control-plane stories diverge\n  packet: {:?}\n  slot:   {:?}",
            p_story[node],
            s_story[node],
        );
        // Both must actually finish the five-step dance.
        for story in [&p_story[node], &s_story[node]] {
            assert!(
                story.last() == Some(&"network-opened"),
                "node {node} must end open: {story:?}"
            );
        }
    }
    assert_open_epochs_monotonic(&packet, "packet");
    assert_open_epochs_monotonic(&slot, "slot");

    // Same physical network, same UIDs, same route computation: the final
    // routed tables must be identical down to their digests.
    for node in [SwitchId(0), SwitchId(1)] {
        let p_digest = final_table_digest(&packet, node.0);
        let s_digest = final_table_digest(&slot, node.0);
        assert_eq!(
            p_digest, s_digest,
            "node {node:?}: final table digests differ across backends"
        );
    }
}

fn final_table_digest(records: &[TraceRecord], node: usize) -> u64 {
    autonet::trace::merge_sorted(records)
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            autonet::autopilot::Event::TableInstalled { table, .. } if r.node == node => {
                Some(table.canonical_digest())
            }
            _ => None,
        })
        .expect("node installed at least one table")
}

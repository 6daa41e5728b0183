//! The named fault scenarios behind the golden traces and the timeline
//! demo: each boots a network, applies its faults, runs to quiescence
//! and returns the whole typed event spine.
//!
//! `tests/golden_traces.rs` pins the first three byte for byte, and
//! `scripts/trace.sh <name>` (the `trace_timeline` example) renders any
//! of the four, so what the script shows is exactly what the goldens pin.

use autonet_net::{NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{gen, LinkId, SwitchId};
use autonet_trace::TraceRecord;

/// Every scenario [`run`] knows, in the order the example lists them.
pub const NAMES: [&str; 4] = [
    "single_link_cut",
    "switch_crash_revive",
    "simultaneous_failures",
    "src_link_cut",
];

/// Runs the scenario called `name`, or returns `None` if there is none.
pub fn run(name: &str) -> Option<Vec<TraceRecord>> {
    Some(match name {
        "single_link_cut" => single_link_cut(),
        "switch_crash_revive" => switch_crash_revive(),
        "simultaneous_failures" => simultaneous_failures(),
        "src_link_cut" => src_link_cut(),
        _ => return None,
    })
}

/// Single link cut on a 4-switch ring: the minimal reconfiguration story.
pub fn single_link_cut() -> Vec<TraceRecord> {
    let mut net = Network::new(gen::ring(4, 5), NetParams::tuned(), 1);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("bring-up converges");
    net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(0));
    net.run_until_stable(net.now() + SimDuration::from_secs(60))
        .expect("heals around the cut");
    net.trace_log().records().to_vec()
}

/// A switch of a 4-switch ring crashes and later revives; both
/// transitions reconfigure.
pub fn switch_crash_revive() -> Vec<TraceRecord> {
    let mut net = Network::new(gen::ring(4, 5), NetParams::tuned(), 2);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("bring-up converges");
    net.schedule_switch_down(net.now() + SimDuration::from_millis(1), SwitchId(1));
    net.run_until_stable(net.now() + SimDuration::from_secs(60))
        .expect("survivors reconfigure");
    net.schedule_switch_up(net.now() + SimDuration::from_millis(1), SwitchId(1));
    net.run_until_stable(net.now() + SimDuration::from_secs(60))
        .expect("revived switch rejoins");
    net.trace_log().records().to_vec()
}

/// E15's race: four link cuts within one millisecond on a 4x4 torus,
/// coalescing into a few epochs.
pub fn simultaneous_failures() -> Vec<TraceRecord> {
    let mut net = Network::new(gen::torus(4, 4, 3), NetParams::tuned(), 3);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("bring-up converges");
    let t0 = net.now() + SimDuration::from_millis(1);
    for (i, l) in [0usize, 5, 9, 14].into_iter().enumerate() {
        net.schedule_link_down(t0 + SimDuration::from_micros(200) * i as u64, LinkId(l));
    }
    net.run_until_stable(net.now() + SimDuration::from_secs(120))
        .expect("absorbs the simultaneous failures");
    net.trace_log().records().to_vec()
}

/// E1's scenario: one trunk cut on the 30-switch SRC network. Not a
/// golden; E20's phase-breakdown numbers come from it.
pub fn src_link_cut() -> Vec<TraceRecord> {
    let mut net = Network::new(gen::src_network(1991), NetParams::tuned(), 100);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("bring-up converges");
    net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(0));
    net.run_until_stable(net.now() + SimDuration::from_secs(60))
        .expect("heals around the cut");
    net.trace_log().records().to_vec()
}

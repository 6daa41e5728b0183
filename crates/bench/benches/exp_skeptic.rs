//! E8 — Skeptic hysteresis: responsiveness vs stability (§4.4, §6.5.5).
//!
//! Paper: faults must be responded to quickly, but an intermittent link
//! must be "ignored for progressively longer periods" so it cannot thrash
//! the network. We flap one ring link at several rates and count the
//! reconfigurations it manages to cause, with the skeptics enabled and
//! with them neutered; we also verify a clean single fault is still
//! handled in tens of milliseconds.

use autonet_bench::{converge, measure_reconfiguration, Report, Table};
use autonet_net::NetParams;
use autonet_sim::SimDuration;
use autonet_topo::{gen, LinkId};

/// Reconfigurations triggered during a flap barrage plus the settle time.
fn flap_run(params: NetParams, half_period: SimDuration, cycles: usize, seed: u64) -> u64 {
    let topo = gen::ring(6, 17);
    let mut net = converge(topo, params, seed);
    let before = net.total_reconfigs_triggered();
    let start = net.now() + SimDuration::from_millis(50);
    net.schedule_link_flaps(start, LinkId(0), half_period, cycles);
    // Observe the barrage window plus a settling tail.
    let window = half_period.saturating_mul(2 * cycles as u64) + SimDuration::from_secs(2);
    net.run_for(SimDuration::from_millis(50) + window);
    net.total_reconfigs_triggered() - before
}

fn main() {
    println!("E8: skeptic hysteresis against a flapping link");
    println!("(6-switch ring; one link flaps down/up for 30 cycles)");
    let with = NetParams::tuned();
    let mut without = NetParams::tuned();
    // Neutered skeptics: no growing holds, instant readmission.
    without.autopilot.status_min_hold = SimDuration::from_millis(10);
    without.autopilot.status_max_hold = SimDuration::from_millis(10);
    without.autopilot.conn_min_hold = SimDuration::from_millis(10);
    without.autopilot.conn_max_hold = SimDuration::from_millis(10);

    let mut flaps = Table::new(
        "E8: reconfigurations caused by 30 flap cycles",
        &["flap half-period", "with skeptics", "skeptics neutered"],
    );
    for half_ms in [50, 100, 250, 1000] {
        let half = SimDuration::from_millis(half_ms);
        flaps.row([
            half.into(),
            flap_run(with, half, 30, 3).into(),
            flap_run(without, half, 30, 3).into(),
        ]);
    }

    // Responsiveness: a clean single fault is still handled promptly.
    let topo = gen::ring(6, 17);
    let mut net = converge(topo, with, 9);
    let m = measure_reconfiguration(&mut net, LinkId(2)).expect("reconverges");
    let mut clean = Table::new(
        "E8: a single clean fault, skeptics on",
        &["detection", "reconfiguration", "fault-to-open"],
    );
    clean.row([m.detection.into(), m.reconfiguration.into(), m.total.into()]);
    Report::new("skeptic").table(flaps).table(clean).finish();
    println!(
        "\nShape check: with skeptics the flapping link is quarantined after\n\
         its first few offenses (reconfiguration count far below two per\n\
         cycle and nearly flat across flap rates); neutered hysteresis lets\n\
         every cycle thrash the network. A clean fault is still handled in\n\
         tens of milliseconds — responsiveness is not sacrificed."
    );
}

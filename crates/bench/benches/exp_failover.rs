//! E9 — Alternate host ports: failover timing (§3.9, §6.8.3).
//!
//! Paper: a host tries to contact its switch, escalates after silence, and
//! switches links after three seconds without contact; failover "usually
//! can be done without disrupting communication protocols". We crash the
//! active switch and time the driver's failover, the address re-learn, and
//! the end-to-end traffic outage, across a sweep of the failover threshold.

use autonet_bench::{Report, Table};
use autonet_net::{NetParams, Network};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{gen, HostId};

/// After the crash: when the driver failed over, when the host had its
/// address again, and how long it received nothing.
fn run(threshold: SimDuration, seed: u64) -> [SimDuration; 3] {
    let mut topo = gen::ring(4, 51);
    gen::add_dual_homed_hosts(&mut topo, 1, 53);
    let mut params = NetParams::tuned();
    params.host.failover_threshold = threshold;
    let mut net = Network::new(topo, params, seed);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    net.run_for(SimDuration::from_secs(3));
    let h = HostId(0);
    let peer = HostId(2);
    let dst = net.topology().host(h).uid;
    // A steady ping stream at 50 ms so the outage window is visible.
    let t0 = net.now();
    for i in 0..600u64 {
        net.schedule_host_send(
            t0 + SimDuration::from_millis(50) * i,
            peer,
            dst,
            128,
            10_000 + i,
        );
    }
    let crash_at = t0 + SimDuration::from_secs(2);
    let victim = net.topology().host(h).primary.switch;
    net.schedule_switch_down(crash_at, victim);
    net.run_for(SimDuration::from_secs(28));
    // The driver fails over once and re-learns once, so its last port
    // switch and last address change are those.
    let host = net.host(h);
    let failover = host.switched_at();
    assert!(failover > crash_at, "failover happens");
    let relearn = host
        .address_changed_at()
        .filter(|&t| t > failover)
        .expect("address relearned");
    // Outage: gap between the last pre-crash delivery and the first
    // post-recovery delivery to the host.
    let last_before = net
        .deliveries()
        .iter()
        .filter(|d| d.host == h && d.time <= crash_at)
        .map(|d| d.time)
        .max()
        .unwrap_or(crash_at);
    let first_after = net
        .deliveries()
        .iter()
        .filter(|d| d.host == h && d.time > crash_at)
        .map(|d| d.time)
        .min()
        .expect("traffic resumes");
    [
        failover.saturating_since(crash_at),
        relearn.saturating_since(crash_at),
        first_after.saturating_since(last_before),
    ]
}

fn main() {
    println!("E9: host failover after the active switch crashes");
    println!("(4-switch ring, dual-homed hosts, 50 ms ping stream)");
    let mut t = Table::new(
        "E9: failover timing vs driver threshold",
        &[
            "driver threshold",
            "paper",
            "failover after crash",
            "address re-learned",
            "traffic outage",
        ],
    );
    for (secs, paper) in [(1, "-"), (3, "~3 s"), (5, "-")] {
        let threshold = SimDuration::from_secs(secs);
        let [failover, relearn, outage] = run(threshold, 61);
        t.row([
            threshold.into(),
            paper.into(),
            failover.into(),
            relearn.into(),
            outage.into(),
        ]);
    }
    Report::new("failover").table(t).finish();
    println!(
        "\nShape check: failover tracks the configured threshold (minus up\n\
         to one liveness interval of pre-crash silence); the outage is the\n\
         threshold plus a few hundred milliseconds of re-learning and\n\
         gratuitous-ARP propagation — no reconfiguration of the switch\n\
         fabric is needed for a host-side failover (the crash itself also\n\
         triggers one, concurrently)."
    );
}

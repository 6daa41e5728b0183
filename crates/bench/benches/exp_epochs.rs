//! E15 — Epochs serialize overlapping reconfigurations (§6.6.2).
//!
//! Paper: every port-state change bumps the epoch; switches join any
//! higher epoch; "if changes in port state stop occurring for long enough,
//! then the highest numbered epoch eventually will be adopted by all
//! switches, and the reconfiguration process for that epoch will
//! complete." We inject k near-simultaneous link failures and check that
//! exactly one final epoch wins everywhere, counting the churn it cost.

use autonet_bench::{converge, Report, Table, Value};
use autonet_net::NetParams;
use autonet_sim::SimDuration;
use autonet_topo::{gen, LinkId, SwitchId};

fn run(k: usize, seed: u64) -> Option<Vec<Value>> {
    let topo = gen::torus(4, 4, 31);
    let mut net = converge(topo, NetParams::tuned(), seed);
    let epoch_before = net.autopilot(SwitchId(0)).epoch();
    let reconfigs_before = net.total_reconfigs_triggered();
    // k failures spread over one millisecond; chosen links never
    // disconnect a 4x4 torus.
    let victims = [0usize, 7, 13, 21, 3, 10, 17, 26];
    let fault_at = net.now() + SimDuration::from_millis(10);
    for (i, &l) in victims.iter().take(k).enumerate() {
        net.schedule_link_down(
            fault_at + SimDuration::from_micros(125 * i as u64),
            LinkId(l),
        );
    }
    net.run_for(SimDuration::from_millis(30));
    let done = net.run_until_stable(net.now() + SimDuration::from_secs(60))?;
    // All switches on one epoch?
    let final_epoch = net.autopilot(SwitchId(0)).epoch();
    let agree = net
        .topology()
        .switch_ids()
        .all(|s| net.autopilot(s).epoch() == final_epoch);
    net.check_against_reference().ok()?;
    Some(vec![
        (final_epoch.0 - epoch_before.0).into(),
        (net.total_reconfigs_triggered() - reconfigs_before).into(),
        agree.into(),
        done.saturating_since(fault_at).into(),
    ])
}

fn main() {
    println!("E15: epoch coalescing under k near-simultaneous link failures");
    println!("(4x4 torus; failures land within 1 ms of each other)");
    let mut t = Table::new(
        "E15: convergence after overlapping failures",
        &[
            "simultaneous faults",
            "epochs consumed",
            "reconfigs triggered",
            "single final epoch",
            "fault-to-stable",
        ],
    );
    for k in [1usize, 2, 4, 8] {
        // A run that never settles leaves its cells empty.
        let cells = run(k, 40 + k as u64).unwrap_or(vec![Value::Missing; 4]);
        t.row([k.into()].into_iter().chain(cells));
    }
    Report::new("epochs").table(t).finish();
    println!(
        "\nShape check: every run ends with all 16 switches agreeing on one\n\
         final epoch and a topology matching the survivors, regardless of\n\
         how many triggers raced; the epochs consumed grow with k (each\n\
         detection bumps the counter) but convergence time grows only\n\
         mildly — later epochs subsume the work of earlier ones."
    );
}

//! Scale smoke tests: the paper sizes an Autonet at up to ~1000
//! dual-connected hosts (§2); the reconfiguration protocol must keep
//! working well beyond the 30-switch service network.

use autonet::net::{Driver, Net, NetParams, Network, PartitionedNetwork};
use autonet::sim::{SimDuration, SimTime};
use autonet::topo::{gen, LinkId, SwitchId};

#[test]
fn five_by_five_torus_with_hosts() {
    let mut topo = gen::torus(5, 5, 55);
    gen::add_dual_homed_hosts(&mut topo, 2, 57);
    let mut net = Network::new(topo, NetParams::tuned(), 1);
    net.run_until_stable(SimTime::from_secs(60))
        .expect("converges");
    net.check_against_reference().expect("consistent");
    // Survive a fault and a repair.
    let t = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(t, LinkId(11));
    net.run_for(SimDuration::from_millis(50));
    net.run_until_stable(net.now() + SimDuration::from_secs(60))
        .expect("reconverges");
    net.check_against_reference()
        .expect("consistent after fault");
    let g = net.autopilot(SwitchId(0)).global().unwrap();
    assert_eq!(g.switches.len(), 25);
}

/// The big one: a 100-switch torus (400 trunk links). Run explicitly with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "heavy: run with --release -- --ignored"]
fn hundred_switch_torus() {
    let topo = gen::torus(10, 10, 99);
    let mut net = Network::new(topo, NetParams::tuned(), 2);
    let t = net
        .run_until_stable(SimTime::from_secs(120))
        .expect("100-switch bring-up converges");
    net.check_against_reference().expect("consistent");
    println!("100-switch bring-up converged at {t}");
    // One fault, timed.
    let fault = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(fault, LinkId(0));
    net.run_for(SimDuration::from_millis(50));
    let done = net
        .run_until_stable(net.now() + SimDuration::from_secs(120))
        .expect("reconverges");
    println!(
        "100-switch reconfiguration: {}",
        done.saturating_since(fault)
    );
    assert!(
        done.saturating_since(fault) < SimDuration::from_secs(2),
        "even at 100 switches reconfiguration stays subsecond-ish"
    );
}

/// The scale-tier cycle: cold bring-up, trunk cut, reconvergence, each
/// audited against the from-scratch reference — with a wall-clock budget
/// so kernel regressions fail the gate, not just slow it down. Budgets
/// are ~10x the measured release-mode cost (bring-up 2.6 s + cut 0.4 s on
/// the 256-switch fat-tree) to stay robust on slow CI machines while
/// still catching order-of-magnitude regressions. One body for both
/// kernels; `net` is freshly built.
fn scale_tier_cycle<D: Driver>(name: &str, mut net: Net<D>, wall_budget_s: u64) {
    let n = net.topology().num_switches();
    let wall = std::time::Instant::now();
    net.run_until_stable_every(SimDuration::from_millis(100), SimTime::from_secs(300))
        .unwrap_or_else(|| panic!("{name}: {n}-switch bring-up converges"));
    net.check_against_reference().expect("consistent");
    let fault = net.now() + SimDuration::from_millis(10);
    net.schedule_link_down(fault, LinkId(0));
    let done = net
        .run_until_stable_every(
            SimDuration::from_millis(50),
            net.now() + SimDuration::from_secs(60),
        )
        .unwrap_or_else(|| panic!("{name}: reconverges after trunk cut"));
    net.check_against_reference().expect("consistent after cut");
    assert!(
        done.saturating_since(fault) < SimDuration::from_secs(2),
        "{name}: reconfiguration must stay in the seconds range (sim)"
    );
    let open = (0..n)
        .filter(|&s| net.autopilot(SwitchId(s)).is_open())
        .count();
    assert_eq!(open, n, "{name}: every switch reopens");
    let elapsed = wall.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(wall_budget_s),
        "{name}: wall budget blown: {elapsed:?} > {wall_budget_s} s"
    );
    println!("{name}: {n} switches, cycle wall {elapsed:?}");
}

/// Scale tier (release): a 256-switch three-stage fat tree.
#[test]
#[ignore = "scale tier: run with --release -- --ignored"]
fn fat_tree_256_cycle_within_budget() {
    let net = Network::new(gen::fat_tree(&[8, 2, 4], 99), NetParams::scale(), 2);
    scale_tier_cycle("fat_tree 256", net, 60);
}

/// Scale tier (release): a 256-switch degree-8 expander.
#[test]
#[ignore = "scale tier: run with --release -- --ignored"]
fn expander_256_cycle_within_budget() {
    let net = Network::new(gen::expander(256, 4, 99), NetParams::scale(), 2);
    scale_tier_cycle("expander 256", net, 60);
}

/// Scale tier (release): the same 256-switch fat tree through the sharded
/// kernel at 4 partitions — the same cycle, the same reference audit of
/// root, levels and installed tables.
#[test]
#[ignore = "scale tier: run with --release -- --ignored"]
fn fat_tree_256_sharded_cycle() {
    let net = PartitionedNetwork::new(gen::fat_tree(&[8, 2, 4], 99), NetParams::scale(), 2, 4);
    scale_tier_cycle("sharded fat_tree 256", net, 120);
}

/// Bring-up liveness under the paper-faithful control processor (200 µs a
/// packet): the tuned preset must boot a fabric of hundreds of switches,
/// promptly and without overrunning a single receive pool. Any
/// amplification of bring-up traffic shows here first: an engine that
/// answers stale-epoch messages leaves fat_tree-256 unsettled after 60
/// simulated seconds and 82 363 queue drops.
#[test]
#[ignore = "scale tier: run with --release -- --ignored"]
fn tuned_cpu_boots_hundreds_of_switches() {
    for arities in [[8, 2, 4], [8, 3, 6]] {
        let mut net = Network::new(gen::fat_tree(&arities, 99), NetParams::tuned(), 2);
        let n = net.topology().num_switches();
        let settled = net
            .run_until_stable_every(SimDuration::from_millis(100), SimTime::from_secs(5))
            .unwrap_or_else(|| panic!("tuned fat_tree-{n} never reached first quiescence"));
        net.check_against_reference().expect("consistent");
        assert!(
            settled < SimTime::from_secs(1),
            "tuned fat_tree-{n}: first quiescence at {settled}"
        );
        assert_eq!(net.stats().cpu_queue_drops, 0, "tuned fat_tree-{n}");
        println!("tuned fat_tree-{n}: first quiescence at {settled}");
    }
}

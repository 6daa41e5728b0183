//! E13 — First-come-first-considered vs first-come-first-served port
//! scheduling (§4.5, §6.4).
//!
//! Paper: the FCFC engine lets younger requests capture ports an older
//! blocked request cannot use (queue jumping), while broadcast requests
//! accumulate reservations so they are never starved. A strict FCFS
//! discipline stalls the whole queue behind one blocked head.

use autonet_bench::{mean, Report, Table};
use autonet_sim::SimDuration;
use autonet_switch::datapath::{DatapathConfig, DatapathSim};
use autonet_switch::{ForwardingEntry, PortSet};
use autonet_wire::{ShortAddress, SLOT_NS};

/// One slot per datapath tick.
fn slots(ticks: u64) -> SimDuration {
    SimDuration::from_nanos(ticks * SLOT_NS)
}

struct Outcome {
    delivered: usize,
    makespan: SimDuration,
    /// Submit-to-grant wait of every request.
    waits: Vec<SimDuration>,
    /// The same for the short packets to the uncontended output (port 3)
    /// — the class queue jumping is supposed to help.
    short_waits: Vec<SimDuration>,
    bcast_done: bool,
}

/// The contention scenario: hosts A and B both stream to the (slow,
/// contended) output X; host C streams to the free output Y; one broadcast
/// from D must capture X and Y simultaneously.
fn run(use_fcfs: bool) -> Outcome {
    let config = DatapathConfig {
        use_fcfs_scheduler: use_fcfs,
        ..DatapathConfig::default()
    };
    let mut sim = DatapathSim::new(config);
    let s = sim.add_switch();
    let a = sim.add_host();
    let b = sim.add_host();
    let c = sim.add_host();
    let d = sim.add_host();
    let x = sim.add_host();
    let y = sim.add_host();
    sim.connect_host(a, s, 1, 7);
    sim.connect_host(b, s, 2, 7);
    sim.connect_host(c, s, 3, 7);
    sim.connect_host(d, s, 4, 7);
    sim.connect_host(x, s, 5, 7);
    sim.connect_host(y, s, 6, 7);
    let to_x = ShortAddress::from_raw(0x0105);
    let to_y = ShortAddress::from_raw(0x0106);
    for in_port in [1u8, 2, 3, 4] {
        sim.table_mut(s).set(
            in_port,
            to_x,
            ForwardingEntry::alternatives(PortSet::single(5)),
        );
        sim.table_mut(s).set(
            in_port,
            to_y,
            ForwardingEntry::alternatives(PortSet::single(6)),
        );
        sim.table_mut(s).set(
            in_port,
            ShortAddress::BROADCAST_HOSTS,
            ForwardingEntry::simultaneous(PortSet::from_ports([5, 6])),
        );
    }
    // Offered load: A and B send long packets to X (the contended output);
    // C sends many short packets to Y (should not wait behind them under
    // FCFC); D sends one broadcast mid-stream.
    for _ in 0..4 {
        sim.send(a, to_x, 3000, false);
        sim.send(b, to_x, 3000, false);
    }
    for _ in 0..40 {
        sim.send(c, to_y, 100, false);
    }
    sim.send(d, ShortAddress::BROADCAST_HOSTS, 500, true);
    let _ = sim.run_until_drained(20_000_000, 100_000);
    let records = sim.scheduling_records();
    let waits = |short_only: bool| {
        records
            .iter()
            .filter(|r| !short_only || r.in_port == 3)
            .map(|r| slots(r.grant_tick - r.submit_tick))
            .collect()
    };
    let last_delivery = sim.deliveries().iter().map(|d| d.tick).max().unwrap_or(0);
    Outcome {
        delivered: sim.deliveries().len(),
        makespan: slots(last_delivery),
        waits: waits(false),
        short_waits: waits(true),
        bcast_done: records.iter().any(|r| r.broadcast),
    }
}

fn main() {
    println!("E13: FCFC vs FCFS output-port scheduling under contention");
    let mut t = Table::new(
        "E13: scheduling discipline comparison",
        &[
            "scheduler",
            "delivered",
            "makespan",
            "mean wait",
            "max wait",
            "short-pkt mean",
            "short-pkt max",
            "broadcast served",
        ],
    );
    for (name, fcfs) in [("FCFC (Autonet)", false), ("FCFS (baseline)", true)] {
        let o = run(fcfs);
        t.row([
            name.into(),
            o.delivered.into(),
            o.makespan.into(),
            mean(&o.waits).into(),
            o.waits.iter().max().copied().into(),
            mean(&o.short_waits).into(),
            o.short_waits.iter().max().copied().into(),
            o.bcast_done.into(),
        ]);
    }
    Report::new("scheduler").table(t).finish();
    println!(
        "\nShape check: FCFC finishes the whole offered load sooner because\n\
         the short packets to the free output jump the blocked head-of-queue\n\
         requests; both serve the broadcast (reservation accumulation), but\n\
         FCFS pays for it with head-of-line blocking on everything else."
    );
}

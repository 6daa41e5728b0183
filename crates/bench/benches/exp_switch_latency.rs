//! E12 — Switch transit latency and router throughput (§4.5, §5.1).
//!
//! Paper: best-case latency from first bit in to first bit out is 26–32
//! clock cycles (80 ns each, ≈ 2.1–2.6 µs) when the router queue is empty
//! and an output is free; the router makes one forwarding decision every
//! 480 ns, bounding the switch at ~2 million packets per second.

use autonet_bench::{Report, Table};
use autonet_sim::SimDuration;
use autonet_switch::datapath::{DatapathConfig, DatapathSim};
use autonet_switch::{ForwardingEntry, PortSet};
use autonet_wire::{ShortAddress, SLOT_NS};

/// One slot per datapath tick.
fn slots(ticks: u64) -> SimDuration {
    SimDuration::from_nanos(ticks * SLOT_NS)
}

/// Idle-switch transit latency for a range of packet sizes.
fn transit_latency() -> Table {
    let mut t = Table::new(
        "E12: first bit in to first bit out of an idle switch (paper: 26-32 cycles, 2.1-2.6 µs)",
        &["packet bytes", "cycles", "latency"],
    );
    for len in [64usize, 200, 1000] {
        let mut sim = DatapathSim::new(DatapathConfig::default());
        let s = sim.add_switch();
        let h0 = sim.add_host();
        let h1 = sim.add_host();
        sim.connect_host(h0, s, 1, 7);
        sim.connect_host(h1, s, 2, 7);
        sim.table_mut(s).set(
            1,
            ShortAddress::from_raw(0x0100),
            ForwardingEntry::alternatives(PortSet::single(2)),
        );
        sim.send(h0, ShortAddress::from_raw(0x0100), len, false);
        sim.run_until_drained(1_000_000, 10_000);
        let transit = sim.transits()[0];
        let cycles = transit.out_tick - transit.in_tick;
        t.row([len.into(), cycles.into(), slots(cycles).into()]);
    }
    t
}

/// Router decision throughput: 12 inputs hammer one switch with minimal
/// packets; decisions are rate-limited to one per 6 slots.
fn router_throughput() -> Table {
    let mut sim = DatapathSim::new(DatapathConfig::default());
    let s = sim.add_switch();
    // Six senders, six receivers.
    let mut senders = Vec::new();
    for p in 1..=6u8 {
        let h = sim.add_host();
        sim.connect_host(h, s, p, 1);
        senders.push((h, p));
    }
    for p in 7..=12u8 {
        let h = sim.add_host();
        sim.connect_host(h, s, p, 1);
    }
    for (i, &(h, in_port)) in senders.iter().enumerate() {
        let out = 7 + i as u8;
        let dst = ShortAddress::from_raw(0x0200 + i as u16);
        sim.table_mut(s).set(
            in_port,
            dst,
            ForwardingEntry::alternatives(PortSet::single(out)),
        );
        // A stream of minimal packets (2 address bytes only).
        for _ in 0..200 {
            sim.send(h, dst, 2, false);
        }
    }
    sim.run_until_drained(10_000_000, 50_000);
    let grants = || sim.scheduling_records().iter().map(|r| r.grant_tick);
    let decisions = grants().count();
    let span = slots(grants().max().unwrap() - grants().min().unwrap());
    let mut t = Table::new(
        "E12: router decisions under 6-way load (paper: ~2.0 M packets/s)",
        &["decisions", "first to last grant", "M decisions/s"],
    );
    t.row([
        decisions.into(),
        span.into(),
        ((decisions - 1) as f64 / span.as_secs_f64() / 1e6).into(),
    ]);
    t
}

fn main() {
    println!("E12: switch transit latency and router throughput (slot-level)");
    Report::new("switch_latency")
        .table(transit_latency())
        .table(router_throughput())
        .finish();
    println!(
        "\nShape check: cut-through transit is independent of packet length\n\
         and sits in the paper's 26-32 cycle window; decision throughput\n\
         saturates near 1/(480 ns) ≈ 2 M/s."
    );
}

//! Microbenchmarks for the hot paths: forwarding-table lookups (the
//! per-packet cost the crossbar hardware performs), the FCFC scheduling
//! round (one per 480 ns in hardware), route computation (the per-switch
//! cost of reconfiguration step 5), the control-message codec, CRC-32, and
//! the LocalNet cache (the "15 instructions per packet" path). Every
//! number is wall clock — printed, never gated — so no `BENCH_*.json` is
//! written.

use std::hint::black_box;
use std::time::{Duration, Instant};

use autonet_bench::{Table, Value};
use autonet_core::{
    compute_forwarding_table, global_from_view_simple, ControlMsg, Epoch, RouteCache,
    RouteComputer, RouteKind, TreePosition,
};
use autonet_host::{EthFrame, LocalNet, IP_ETHERTYPE};
use autonet_sim::SimTime;
use autonet_switch::{
    FcfcScheduler, ForwardingEntry, ForwardingTable, PortSet, Request, Scheduler,
};
use autonet_topo::gen;
use autonet_wire::{crc32, Packet, PacketType, ShortAddress, Uid};

/// Timed wall clock per row.
const BUDGET: Duration = Duration::from_millis(500);

/// Adds a row: the mean wall time of `routine` on a fresh input from
/// `setup`, setup excluded. Calls are timed in batches that double up to
/// 4096, so a 20 ns routine is not measured by the clock reads around it;
/// the small first batches are the warm-up and weigh next to nothing.
fn time_with_setup<I, O>(
    t: &mut Table,
    name: &str,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    let (mut calls, mut spent, mut batch) = (0u64, Duration::ZERO, 1u64);
    while spent < BUDGET {
        let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            black_box(routine(input));
        }
        spent += start.elapsed();
        calls += batch;
        batch = (batch * 2).min(4096);
    }
    t.row([
        name.into(),
        calls.into(),
        Value::Wall(spent.as_nanos() as f64 / calls as f64),
    ]);
}

fn time<O>(t: &mut Table, name: &str, mut routine: impl FnMut() -> O) {
    time_with_setup(t, name, || (), |()| routine());
}

fn bench_forwarding_lookup(t: &mut Table) {
    let mut table = ForwardingTable::new();
    for sw in 1..=30u16 {
        for p in 0..13u8 {
            table.set_switch_prefix(p, sw, ForwardingEntry::alternatives(PortSet::single(3)));
        }
    }
    let addr = ShortAddress::assigned(17, 4);
    time(t, "forwarding_table_lookup", || {
        table.lookup(black_box(5), black_box(addr))
    });
}

fn bench_scheduler_round(t: &mut Table) {
    time_with_setup(
        t,
        "fcfc_round_13_requests",
        || {
            let mut s = FcfcScheduler::new();
            for p in 0..13u8 {
                s.enqueue(Request {
                    in_port: p,
                    ports: PortSet::from_ports([(p + 1) % 13, (p + 2) % 13]),
                    broadcast: p % 4 == 0,
                });
            }
            s
        },
        |mut s| s.round(PortSet::from_bits(0x1FFF)),
    );
}

fn bench_route_computation(t: &mut Table) {
    let topo = gen::src_network(1991);
    let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
    let uid = global.switches[0].uid;
    time(t, "compute_forwarding_table_src30", || {
        compute_forwarding_table(black_box(&global), uid, &[5, 6, 7, 8], RouteKind::UpDown)
    });
    time(t, "deadlock_analysis_src30", || {
        RouteComputer::new(black_box(&global)).has_dependency_cycle(RouteKind::UpDown)
    });
}

/// Route-compute cost at the scale tier, tracked independently of the
/// full sim: the per-switch from-scratch table cost versus what the
/// shared cache turns it into (one fleet-wide build, then per-switch
/// synthesis and memo hits).
fn bench_route_cache_scale(t: &mut Table) {
    for (label, arities) in [
        ("fat_tree256", &[8usize, 2, 4][..]),
        ("fat_tree1024", &[8, 4, 8]),
    ] {
        let topo = gen::fat_tree(arities, 99);
        let global = global_from_view_simple(&topo.view_all()).expect("non-empty");
        let uid = global.switches[global.switches.len() / 2].uid;
        // What every switch pays without the cache.
        time(t, &format!("compute_forwarding_table_{label}"), || {
            compute_forwarding_table(black_box(&global), uid, &[], RouteKind::UpDown)
        });
        // The shared build plus one synthesis (first serve of an epoch).
        time(t, &format!("route_cache_build_{label}"), || {
            RouteCache::new().table_for(black_box(&global), uid, &[])
        });
        // What every subsequent serve of the same epoch pays.
        let warm = RouteCache::new();
        warm.table_for(&global, uid, &[]);
        time(t, &format!("route_cache_serve_{label}"), || {
            warm.table_for(black_box(&global), uid, &[])
        });
    }
}

fn bench_codec(t: &mut Table) {
    let msg = ControlMsg::TreePositionAck {
        epoch: Epoch(42),
        seq: 17,
        is_parent: true,
        sender_seq: 18,
        sender_from_port: 3,
        sender_pos: TreePosition::myself(Uid::new(0xABCDEF)),
    };
    let bytes = msg.encode();
    time(t, "control_msg_encode", || msg.encode());
    time(t, "control_msg_decode", || {
        ControlMsg::decode(black_box(&bytes)).unwrap()
    });
    let packet = Packet::new(
        ShortAddress::assigned(3, 4),
        ShortAddress::assigned(5, 6),
        PacketType::Data,
        vec![0xA5u8; 1500],
    );
    let wire = packet.encode();
    time(t, "packet_decode_1500B", || {
        Packet::decode(black_box(&wire)).unwrap()
    });
}

fn bench_crc(t: &mut Table) {
    let data = vec![0x5Au8; 1500];
    time(t, "crc32_1500B", || crc32(black_box(&data)));
}

fn bench_localnet_cache(t: &mut Table) {
    let mut ln = LocalNet::new(Uid::new(1));
    ln.set_own_address(ShortAddress::assigned(1, 1));
    // Prime the cache with 100 peers.
    for i in 0..100u64 {
        let frame = EthFrame::new(Uid::new(1), Uid::new(100 + i), IP_ETHERTYPE, &b"x"[..]);
        let pkt = Packet::new(
            ShortAddress::assigned(1, 1),
            ShortAddress::assigned(2, (i % 12) as u8),
            PacketType::Data,
            frame.encode(),
        );
        ln.receive(SimTime::from_secs(1), &pkt);
    }
    let frame = EthFrame::new(Uid::new(150), Uid::new(1), IP_ETHERTYPE, vec![0u8; 64]);
    time(t, "localnet_transmit_cached", || {
        ln.transmit(SimTime::from_secs(1), black_box(&frame))
    });
}

fn main() {
    let mut t = Table::new(
        "Microbenchmarks: mean wall per call",
        &["hot path", "calls", "wall (ns)"],
    );
    bench_forwarding_lookup(&mut t);
    bench_scheduler_round(&mut t);
    bench_route_computation(&mut t);
    bench_codec(&mut t);
    bench_crc(&mut t);
    bench_localnet_cache(&mut t);
    bench_route_cache_scale(&mut t);
    print!("{}", t.render());
}

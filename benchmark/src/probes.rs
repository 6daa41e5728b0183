//! Micro-probes: one public function of one layer, timed in a loop from
//! outside, on inputs taken from the workload that reports the probe.
//! Each bounds what an optimisation of that function can save end to end.

use std::hint::black_box;
use std::time::{Duration, Instant};

use autonet_core::{
    compute_forwarding_table, global_from_view_simple, ControlMsg, Epoch, GlobalTopology,
    RouteCache, RouteKind, SubtreeReport,
};
use autonet_net::{NetParams, Network};
use autonet_sim::{
    CalendarQueue, EventQueue, Scheduler, ShardWorld, ShardedSimulator, SimDuration, SimTime,
    Simulator, World,
};
use autonet_switch::ForwardingTable;
use autonet_topo::Topology;
use autonet_wire::{crc32, Packet, PacketType, ShortAddress};

use crate::inputs::Rng;
use crate::metrics::Metrics;
use crate::stats::median;

/// Median wall nanoseconds per call of `f`: five batches, each sized to
/// last about `budget / 5` from one calibration call.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let per_batch = ((budget.as_nanos() as f64 / 5.0 / once) as u64).clamp(1, 50_000_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches).expect("five batches")
}

const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// The classic hold model: a queue kept at `len` pending events, each
/// step pops the earliest and pushes one a random 0–2 ms later.
macro_rules! hold_ns {
    ($queue:expr, $len:expr) => {{
        let mut q = $queue;
        let mut rng = Rng::new(0xCA1E_0DA2);
        for i in 0..$len {
            q.push(SimTime::from_nanos(rng.below(2_000_000)), i as u32);
        }
        ns_per_call(PROBE_BUDGET, || {
            let (t, e) = q.pop().expect("queue holds its length");
            q.push(t + SimDuration::from_nanos(rng.below(2_000_000)), e);
        })
    }};
}

/// `CalendarQueue`, the classic kernel's queue, at 4 k and 64 k pending.
pub fn calendar_queue(out: &mut Metrics) {
    out.set(
        "sim.calendar_hold_ns_4k",
        hold_ns!(CalendarQueue::new(), 4_096),
    );
    out.set(
        "sim.calendar_hold_ns_64k",
        hold_ns!(CalendarQueue::new(), 65_536),
    );
}

/// `EventQueue`, the binary heap the sharded kernel still pops from.
pub fn heap_queue(out: &mut Metrics) {
    out.set("sim.heap_hold_ns_4k", hold_ns!(EventQueue::new(), 4_096));
    out.set("sim.heap_hold_ns_64k", hold_ns!(EventQueue::new(), 65_536));
}

/// A 256-node ring whose handlers do nothing but pass the event on: what
/// is left of an event's cost when the world costs nothing.
const RING_NODES: u32 = 256;
const RING_HOP: SimDuration = SimDuration::from_micros(5);

struct Ring {
    /// Counted so that the handler cannot be optimised away.
    handled: u64,
}

impl World for Ring {
    type Event = u32;

    fn handle(&mut self, _now: SimTime, node: u32, sched: &mut Scheduler<'_, u32>) {
        self.handled += 1;
        sched.after(RING_HOP, (node + 1) % RING_NODES);
    }
}

impl ShardWorld for Ring {
    type Event = u32;
    type Mirror = ();

    fn node_of(&self, event: &u32) -> u32 {
        *event
    }

    fn handle_sharded(&mut self, now: SimTime, node: u32, out: &mut Vec<(SimTime, u32)>) {
        self.handled += 1;
        out.push((now + RING_HOP, (node + 1) % RING_NODES));
    }

    fn export_mirror(&self, _into: &mut ()) {}

    fn apply_mirror(&mut self, _from: &()) {}
}

/// Per-event cost of the classic `Simulator` over the no-op ring with
/// one token per node in flight.
pub fn dispatch(out: &mut Metrics) {
    let mut sim = Simulator::new(Ring { handled: 0 });
    for node in 0..RING_NODES {
        sim.schedule_at(SimTime::from_nanos(u64::from(node) * 7), node);
    }
    let ns = ns_per_call(PROBE_BUDGET, || {
        black_box(sim.run_events(1_000));
    }) / 1_000.0;
    black_box(sim.world().handled);
    out.set("sim.dispatch_ns", ns);
}

/// The no-op ring through `ShardedSimulator` with `shards` shards and
/// `tokens` events in flight. Returns (wall ns, events, windows).
fn sharded_ring(shards: usize, tokens: u32, span: SimDuration) -> (f64, u64, u64) {
    let owner: Vec<u32> = (0..RING_NODES)
        .map(|n| n * shards as u32 / RING_NODES)
        .collect();
    let worlds = (0..shards).map(|_| Ring { handled: 0 }).collect();
    let mut sim = ShardedSimulator::new(worlds, owner, RING_HOP);
    sim.enable_telemetry();
    for k in 0..tokens {
        let node = k * (RING_NODES / tokens);
        sim.schedule_external(SimTime::from_nanos(u64::from(k) * 7), node);
    }
    let t = Instant::now();
    sim.run_for(span);
    let wall = t.elapsed().as_nanos() as f64;
    let windows = sim.telemetry().map_or(0, |t| t[0].windows);
    (wall, sim.events_processed(), windows)
}

/// Per-event cost through the sharded kernel at 1 and 2 shards (dense:
/// a token per node, every window busy on every shard), and the wall
/// cost of one lookahead window that holds a single trivial event (one
/// token in the whole ring), which is the kernel's fixed price per
/// window: barriers, mailbox exchange, mirror refresh.
pub fn sharded_kernel(out: &mut Metrics) {
    let dense = |shards| {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let (wall, events, _) =
                    sharded_ring(shards, RING_NODES, SimDuration::from_millis(4));
                wall / events as f64
            })
            .collect();
        median(&runs).expect("three runs")
    };
    out.set("sim.shard_dispatch_ns_p1", dense(1));
    out.set("sim.shard_dispatch_ns_p2", dense(2));
    let sparse: Vec<f64> = (0..3)
        .map(|_| {
            let (wall, _, windows) = sharded_ring(2, 1, SimDuration::from_millis(40));
            wall / 1e3 / windows as f64
        })
        .collect();
    out.set("sim.window_us", median(&sparse).expect("three runs"));
}

/// The agreed topology a converged network on `topo` would hold.
fn reference_global(topo: &Topology) -> GlobalTopology {
    global_from_view_simple(&topo.view_all()).expect("topology is non-empty")
}

/// The route pipeline on `topo`: a cold shared build plus one synthesis,
/// a warm serve, and the from-scratch table every switch would compute
/// without the cache.
pub fn route_pipeline(topo: &Topology, out: &mut Metrics) {
    let global = reference_global(topo);
    let uid = global.switches[global.switches.len() / 2].uid;
    let budget = Duration::from_millis(300);
    let build = ns_per_call(budget, || {
        let cache = RouteCache::new();
        black_box(cache.table_for(black_box(&global), uid, &[]));
    });
    let warm = RouteCache::new();
    warm.table_for(&global, uid, &[]);
    let serve = ns_per_call(PROBE_BUDGET, || {
        black_box(warm.table_for(black_box(&global), uid, &[]));
    });
    let scratch = ns_per_call(budget, || {
        black_box(compute_forwarding_table(
            black_box(&global),
            uid,
            &[],
            RouteKind::UpDown,
        ));
    });
    out.set("core.route_build_ms", build / 1e6);
    out.set("core.route_serve_us", serve / 1e3);
    out.set("core.table_scratch_ms", scratch / 1e6);
}

/// The control-message codec on the largest message of a reconfiguration
/// on `topo`: the topology report that describes every switch.
pub fn control_codec(topo: &Topology, out: &mut Metrics) {
    let global = reference_global(topo);
    let msg = ControlMsg::TopologyReport {
        epoch: Epoch(7),
        seq: 3,
        report: SubtreeReport {
            switches: global.switches.to_vec(),
        },
    };
    let bytes = msg.encode();
    out.set(
        "core.ctrlmsg_encode_ns",
        ns_per_call(PROBE_BUDGET, || {
            black_box(black_box(&msg).encode());
        }),
    );
    out.set(
        "core.ctrlmsg_decode_ns",
        ns_per_call(PROBE_BUDGET, || {
            black_box(ControlMsg::decode(black_box(&bytes)).expect("own encoding decodes"));
        }),
    );
}

/// The packet codec and CRC at probe size (64 B) and full size (1500 B).
pub fn wire_codec(out: &mut Metrics) {
    let packet = |len: usize| {
        Packet::new(
            ShortAddress::assigned(3, 4),
            ShortAddress::assigned(5, 6),
            PacketType::Data,
            vec![0xA5u8; len],
        )
    };
    let small = packet(64);
    let small_wire = small.encode();
    let big_wire = packet(1500).encode();
    out.set(
        "wire.packet_encode_ns_64B",
        ns_per_call(PROBE_BUDGET, || {
            black_box(black_box(&small).encode());
        }),
    );
    out.set(
        "wire.packet_decode_ns_64B",
        ns_per_call(PROBE_BUDGET, || {
            black_box(Packet::decode(black_box(&small_wire)).expect("own encoding decodes"));
        }),
    );
    out.set(
        "wire.packet_decode_ns_1500B",
        ns_per_call(PROBE_BUDGET, || {
            black_box(Packet::decode(black_box(&big_wire)).expect("own encoding decodes"));
        }),
    );
    let kb = vec![0x5Au8; 1024];
    out.set(
        "wire.crc_ns_per_kb",
        ns_per_call(PROBE_BUDGET, || {
            black_box(crc32(black_box(&kb)));
        }),
    );
}

/// One forwarding-table lookup, cycling over `addrs` on an installed
/// table taken from the workload's settled network.
pub fn table_lookup(table: &ForwardingTable, addrs: &[ShortAddress], out: &mut Metrics) {
    assert!(!addrs.is_empty(), "lookup probe needs addresses");
    let mut i = 0;
    out.set(
        "switch.table_lookup_ns",
        ns_per_call(PROBE_BUDGET, || {
            i = (i + 1) % addrs.len();
            black_box(table.lookup(black_box(1), addrs[i]));
        }),
    );
}

/// Wall microseconds of one full `control_plane_consistent()` walk on a
/// settled network (the cost every stability poll pays once the network
/// is in fact stable; earlier polls return at the first disagreement).
pub fn consistency_check_us(check: impl Fn() -> bool) -> f64 {
    ns_per_call(PROBE_BUDGET, || {
        assert!(black_box(check()), "probe runs on a settled network");
    }) / 1e3
}

/// Wall milliseconds of `Network::new` on `topo` (construction only).
pub fn net_new_ms(topo: &Topology, params: NetParams, seed: u64) -> f64 {
    ns_per_call(PROBE_BUDGET, || {
        black_box(Network::new(topo.clone(), params, seed));
    }) / 1e6
}

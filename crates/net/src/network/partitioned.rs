//! The sharded (multi-core) execution mode of the packet-level network.
//!
//! [`PartitionedNetwork`] runs the same [`NetWorld`] model as
//! [`Network`](super::Network) behind the same [`Net`] facade, but
//! partitions the nodes (switches, then hosts, in dense-id order)
//! across the shards of an [`autonet_sim::ShardedSimulator`]. The
//! conservative lookahead bound is physical: no packet crosses between
//! two nodes faster than the smallest wire-plus-propagation delay in the
//! installation, so each shard can run one lookahead window without
//! hearing from the others.
//!
//! # How the one-world model becomes shardable
//!
//! Every shard holds a complete `NetWorld` built through the identical
//! construction path (same topology, same seed), so replicated state
//! starts bit-identical everywhere. From there:
//!
//! - **Node state** (Autopilots, tables, CPU backlogs, host controllers)
//!   is authoritative only on the owning shard — only that shard ever
//!   processes the node's events.
//! - **Plant state** (link/host-link up flags, power flags) is replicated:
//!   fault events are broadcast to every shard with the *same* canonical
//!   stamp, so each shard applies the flip at the same point in its local
//!   event order. Only the primary shard (the owner of the fault's
//!   anchor node) keeps the follow-up emissions, trace records and
//!   counter changes; the other shards run the handler for its flag
//!   flips and then discard its observable effects.
//! - **Channel state** (per-direction busy times) is owned by the sending
//!   node's shard; nobody else reads it.
//! - **Cross-node observations** (a neighbor's dead-port verdict, a
//!   host's active controller port — the inputs to
//!   [`synthesize_status`](NetWorld::synthesize_status)) go through
//!   [`Latched`], a snapshot exchanged at every window barrier. The
//!   latch is refreshed on the same schedule at *every* partition count,
//!   including one, which is what makes results bit-identical at 1, 2
//!   or 8 shards.
//!
//! Unsupported here: service-interruption probes (one network-wide tick;
//! this facade instantiation has no probe API).

use std::sync::Arc;

use autonet_sim::{Scheduler, ShardWorld, ShardedSimulator, SimDuration, SimTime, World};
use autonet_topo::{LinkId, Topology};
use autonet_wire::{PortIndex, MAX_PORTS};

use crate::params::NetParams;

use super::events::{DeliveryRecord, Event};
use super::links::{wire_time, HOST_LINK_LATENCY_NS};
use super::{Driver, Net, NetWorld, PartitionedNetwork};

/// Barrier-latched cross-node observations: what `synthesize_status` is
/// allowed to see of nodes that may live on other shards.
#[derive(Clone)]
pub(super) struct Latched {
    /// Per-switch dead-port verdict rows (the far end's `idhy` signal).
    dead: Vec<[bool; MAX_PORTS]>,
    /// Per-host active controller port.
    host_active: Vec<u8>,
}

impl Latched {
    /// The latch as of t = 0, derived from freshly built pools (all ports
    /// condemned, every host on its primary port).
    fn initial(net: &NetWorld) -> Latched {
        Latched {
            dead: net.switches.dead.clone(),
            host_active: net
                .hosts
                .ctl
                .iter()
                .map(|c| c.active_port() as u8)
                .collect(),
        }
    }

    pub(super) fn is_dead(&self, s: usize, port: PortIndex) -> bool {
        self.dead[s][port as usize]
    }

    pub(super) fn host_active(&self, h: usize) -> usize {
        self.host_active[h] as usize
    }
}

/// One shard's slice of the latch, exchanged at every window barrier:
/// only the rows and ports that changed since the shard's previous export.
#[derive(Default)]
#[doc(hidden)]
pub struct NetMirror {
    dead: Vec<(u32, [bool; MAX_PORTS])>,
    host_active: Vec<(u32, u8)>,
}

/// One shard: a full world replica plus its place in the partition.
#[doc(hidden)]
pub struct PartWorld {
    pub(super) net: NetWorld,
    me: u32,
    owner: Vec<u32>,
    /// Own nodes that handled an event since the last window boundary —
    /// the only ones whose latched observables can have moved (a node's
    /// state changes only inside its own events). Filled by
    /// `handle_sharded`, read by `export_mirror`, emptied by the
    /// `apply_mirror` calls that follow every export.
    touched: Vec<u32>,
}

impl PartWorld {
    fn latched(&self) -> &Latched {
        self.net
            .latched
            .as_ref()
            .expect("partitioned world is latched")
    }

    /// Whether own node `n` shows something other than what the latch
    /// holds, i.e. than its last export.
    fn moved(&self, n: usize) -> bool {
        let latched = self.latched();
        match n.checked_sub(self.net.topo.num_switches()) {
            None => self.net.switches.dead[n] != latched.dead[n],
            Some(h) => self.net.hosts.ctl[h].active_port() != latched.host_active(h),
        }
    }
}

impl ShardWorld for PartWorld {
    type Event = Event;
    type Mirror = NetMirror;

    fn node_of(&self, event: &Event) -> u32 {
        event.node(&self.net.topo) as u32
    }

    fn handle_sharded(&mut self, now: SimTime, event: Event, out: &mut Vec<(SimTime, Event)>) {
        let node = self.node_of(&event);
        let own = self.owner[node as usize] == self.me;
        let primary = own || !event.is_plant_fault();
        if own && self.touched.last() != Some(&node) {
            self.touched.push(node);
        }
        let trace_len = self.net.trace.len();
        let stats_before = self.net.stats;
        let mut sched = Scheduler::collecting(now, out);
        self.net.handle(now, event, &mut sched);
        if !primary {
            // A replicated fault on a shard that doesn't own its anchor:
            // keep the flag flips, discard the observable side effects
            // (the primary shard produces the single authoritative copy).
            out.clear();
            self.net.trace.truncate(trace_len);
            self.net.stats = stats_before;
        }
    }

    fn export_mirror(&self, into: &mut NetMirror) {
        debug_assert!(
            (0..self.owner.len()).all(|n| self.owner[n] != self.me
                || self.touched.contains(&(n as u32))
                || !self.moved(n)),
            "a node changed outside its own events"
        );
        into.dead.clear();
        into.host_active.clear();
        for &node in &self.touched {
            let n = node as usize;
            if !self.moved(n) {
                continue;
            }
            match n.checked_sub(self.net.topo.num_switches()) {
                None => into.dead.push((node, self.net.switches.dead[n])),
                Some(h) => into
                    .host_active
                    .push((h as u32, self.net.hosts.ctl[h].active_port() as u8)),
            }
        }
    }

    fn apply_mirror(&mut self, from: &NetMirror) {
        self.touched.clear();
        let latched = self
            .net
            .latched
            .as_mut()
            .expect("partitioned world is latched");
        for &(s, row) in &from.dead {
            latched.dead[s as usize] = row;
        }
        for &(h, port) in &from.host_active {
            latched.host_active[h as usize] = port;
        }
    }
}

/// The physical lookahead bound: the smallest time any packet needs to
/// reach another node — minimum wire time (smallest packet is a bare
/// header plus CRC, 36 bytes) plus the smallest propagation delay of any
/// cross-node channel.
fn lookahead_window(topo: &Topology) -> SimDuration {
    let mut latency = u64::MAX;
    for l in 0..topo.num_links() {
        latency = latency.min(topo.link(LinkId(l)).timing.latency_ns());
    }
    if topo.num_hosts() > 0 {
        latency = latency.min(HOST_LINK_LATENCY_NS);
    }
    if latency == u64::MAX {
        // A single isolated switch: no cross-node channel at all, any
        // window works.
        latency = 1_000;
    }
    wire_time(36) + SimDuration::from_nanos(latency)
}

impl PartitionedNetwork {
    /// Builds a network partitioned into `nparts` shards (clamped to the
    /// node count). Semantics match [`Network::new`](super::Network::new)
    /// except for event interleaving at identical timestamps and the
    /// barrier-latched cross-node observations; results are identical for
    /// any `nparts`.
    ///
    /// # Panics
    ///
    /// Panics if `nparts` is zero.
    pub fn new(topo: Topology, params: NetParams, seed: u64, nparts: usize) -> Self {
        assert!(nparts >= 1, "at least one partition");
        let n_nodes = (topo.num_switches() + topo.num_hosts()).max(1);
        let nparts = nparts.min(n_nodes);
        // Block partition: contiguous dense-id ranges, a pure function of
        // (n_nodes, nparts).
        let owner: Vec<u32> = (0..n_nodes)
            .map(|i| (i * nparts / n_nodes) as u32)
            .collect();
        let window = lookahead_window(&topo);
        let mut boots = Vec::new();
        // One route cache for ALL shards: every serve is a pure function
        // of its inputs, so cross-shard sharing (and speculative serves
        // that later get truncated) cannot perturb behavior — a shard
        // only ever reads what it would have computed itself.
        let shared_cache = Arc::new(autonet_core::RouteCache::new());
        let worlds: Vec<PartWorld> = (0..nparts as u32)
            .map(|me| {
                let (mut net, b) =
                    NetWorld::build(topo.clone(), params, seed, Arc::clone(&shared_cache));
                net.latched = Some(Latched::initial(&net));
                if me == 0 {
                    boots = b;
                }
                PartWorld {
                    net,
                    me,
                    owner: owner.clone(),
                    touched: Vec::new(),
                }
            })
            .collect();
        let mut sim = ShardedSimulator::new(worlds, owner, window);
        // Kernel telemetry rides the tracing switch: observability on,
        // wall-clock accounting on. Wall time never feeds back into
        // simulation behavior, so the partition-invisibility guarantee
        // is untouched (the determinism tests run with tracing on).
        if params.tracing {
            sim.enable_telemetry();
        }
        for (at, event) in boots {
            sim.schedule_external(at, event);
        }
        Net { sim }
    }

    /// Per-shard kernel telemetry (`None` unless `params.tracing`): what
    /// each shard's worker did and what it waited on.
    pub fn shard_telemetry(&self) -> Option<Vec<autonet_sim::ShardTelemetry>> {
        self.sim.telemetry()
    }

    /// Fraction of accounted wall time the shards spent blocked at round
    /// barriers (`barrier / (barrier + work)`); `None` without telemetry,
    /// zero when nothing was measured yet.
    pub fn barrier_wait_fraction(&self) -> Option<f64> {
        let tel = self.sim.telemetry()?;
        let barrier: u64 = tel.iter().map(|t| t.barrier_wait_ns).sum();
        let work: u64 = tel.iter().map(|t| t.work_ns).sum();
        if barrier + work == 0 {
            return Some(0.0);
        }
        Some(barrier as f64 / (barrier + work) as f64)
    }

    /// Load-imbalance index: the hottest shard's event count relative to
    /// the per-shard mean (1.0 = perfectly balanced, `nshards` = one
    /// shard did everything). `None` without telemetry.
    pub fn load_imbalance(&self) -> Option<f64> {
        let tel = self.sim.telemetry()?;
        let total: u64 = tel.iter().map(|t| t.events).sum();
        if total == 0 {
            return Some(1.0);
        }
        let max = tel.iter().map(|t| t.events).max().unwrap_or(0);
        Some(max as f64 * tel.len() as f64 / total as f64)
    }

    /// Delivered data frames from every shard, in canonical order:
    /// stable-sorted by `(time, receiving host)`, the rule
    /// [`autonet_trace::merge_sorted`] applies to trace records. All of a
    /// host's deliveries come from the shard that owns it, in that shard's
    /// processing order, so the result does not depend on the partition
    /// count.
    pub fn deliveries(&self) -> Vec<DeliveryRecord> {
        let mut log: Vec<DeliveryRecord> = self
            .sim
            .worlds()
            .flat_map(|w| w.deliveries.clone())
            .collect();
        log.sort_by_key(|d| (d.time, d.host.0));
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_topo::{gen, SwitchId};

    /// A short fault campaign on a small torus, losing each control
    /// packet with probability `loss`; returns the canonical trace digest,
    /// the final control-plane state and the packets lost in flight.
    fn campaign(nparts: usize, loss: f64) -> (String, Vec<(bool, Option<u64>)>, u64) {
        let topo = gen::torus(3, 3, 7);
        let mut params = NetParams::tuned();
        params.control_loss_rate = loss;
        let mut net = PartitionedNetwork::new(topo, params, 11, nparts);
        net.run_for(SimDuration::from_millis(400));
        net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(2));
        net.run_for(SimDuration::from_millis(300));
        net.schedule_link_up(net.now() + SimDuration::from_millis(1), LinkId(2));
        net.run_for(SimDuration::from_millis(300));
        let digest = autonet_trace::to_jsonl(&net.merged_trace());
        let state = (0..net.topology().num_switches())
            .map(|s| {
                let ap = net.autopilot(SwitchId(s));
                (ap.is_open(), ap.global().map(|g| g.epoch.0))
            })
            .collect();
        (digest, state, net.stats().lost_in_flight)
    }

    /// Loss included: each draw is keyed by its arrival, not taken in
    /// handling order, so it is the same at any partition count.
    #[test]
    fn partition_count_does_not_change_history() {
        let mut lost = Vec::new();
        for loss in [0.0, 0.05] {
            let base = campaign(1, loss);
            assert!(!base.0.is_empty());
            for nparts in [2, 4] {
                let run = campaign(nparts, loss);
                assert_eq!(run, base, "divergence at {nparts} partitions, loss {loss}");
            }
            lost.push(base.2);
        }
        assert!(lost[1] > lost[0], "5 % loss dropped no packet: {lost:?}");
    }

    #[test]
    fn partitioned_torus_converges() {
        let topo = gen::torus(3, 3, 7);
        let mut net = PartitionedNetwork::new(topo, NetParams::tuned(), 11, 4);
        let t = net.run_until_stable_every(SimDuration::from_millis(20), SimTime::from_secs(5));
        assert!(t.is_some(), "partitioned bring-up did not converge");
        assert!(net.control_plane_consistent());
        assert!(net.events_processed() > 0);
        // Plant flags are replicated: any shard answers for any link or
        // switch, whoever owns the fault's anchor.
        let at = net.now() + SimDuration::from_millis(1);
        net.schedule_link_down(at, LinkId(2));
        net.schedule_switch_down(at, SwitchId(8));
        net.run_for(SimDuration::from_millis(2));
        assert!(!net.link_is_up(LinkId(2)) && net.link_is_up(LinkId(3)));
        assert!(!net.switch_is_up(SwitchId(8)) && net.switch_is_up(SwitchId(0)));
        // Draining hands out the canonical merge and empties every shard.
        let whole = net.merged_trace();
        assert!(!whole.is_empty());
        assert_eq!(net.drain_trace_records(), whole);
        assert!(net.merged_trace().is_empty());
    }
}

//! The sharded (multi-core) execution mode of the packet-level network.
//!
//! [`PartitionedNetwork`] runs the same [`NetWorld`] model as [`Network`],
//! but partitions the nodes (switches, then hosts, in dense-id order)
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
//! - **Node state** (harnesses, tables, CPU backlogs, host controllers)
//!   is authoritative only on the owning shard — only that shard ever
//!   processes the node's events.
//! - **Plant state** (link/host-link up flags, power flags) is replicated:
//!   fault events are broadcast to every shard with the *same* canonical
//!   stamp, so each shard applies the flip at the same point in its local
//!   event order. Only the primary shard (the owner of the fault's
//!   anchor node) keeps the log entries and follow-up emissions; the
//!   other shards run the handler for its flag flips and then discard
//!   its observable effects.
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
//! Unsupported here (asserted at construction / unreachable): control
//! packet loss (`control_loss_rate > 0` draws from one shared RNG) and
//! service-interruption probes (a single network-wide tick).

use autonet_core::Autopilot;
use autonet_harness::NetStats;
use autonet_sim::{Scheduler, ShardWorld, ShardedSimulator, SimDuration, SimTime, World};
use autonet_topo::{HostId, LinkId, SwitchId, Topology};
use autonet_trace::TraceRecord;
use autonet_wire::{PortIndex, Uid, MAX_PORTS};

use crate::params::NetParams;

use super::events::{DeliveryRecord, Event, NetEvent};
use super::links::HOST_LINK_LATENCY_NS;
use super::{stats, NetWorld};

/// Barrier-latched cross-node observations: what `synthesize_status` is
/// allowed to see of nodes that may live on other shards.
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
            dead: (0..net.switches.len())
                .map(|s| *net.switches.nodes.dead_row(s))
                .collect(),
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
pub(super) struct NetMirror {
    dead: Vec<(u32, [bool; MAX_PORTS])>,
    host_active: Vec<(u32, u8)>,
}

/// One shard: a full world replica plus its place in the partition.
pub(super) struct PartWorld {
    net: NetWorld,
    me: u32,
    owner: Vec<u32>,
    n_switches: usize,
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
        match n.checked_sub(self.n_switches) {
            None => *self.net.switches.nodes.dead_row(n) != latched.dead[n],
            Some(h) => self.net.hosts.ctl[h].active_port() != latched.host_active(h),
        }
    }
}

impl ShardWorld for PartWorld {
    type Event = Event;
    type Mirror = NetMirror;

    fn node_of(&self, event: &Event) -> u32 {
        let host = |h: usize| (self.n_switches + h) as u32;
        match *event {
            Event::SwitchBoot { s }
            | Event::SwitchTick { s }
            | Event::SwitchSample { s }
            | Event::SwitchRx { s, .. }
            | Event::SwitchCpuDone { s, .. }
            | Event::SrpRequest { s, .. }
            | Event::SwitchDown { s }
            | Event::SwitchUp { s } => s as u32,
            // Faults anchor to a deterministic node for stamping; they are
            // *broadcast* to every shard regardless.
            Event::LinkDown { l } | Event::LinkUp { l } => {
                self.net.topo.link(LinkId(l)).a.switch.0 as u32
            }
            Event::HostBoot { h }
            | Event::HostTick { h }
            | Event::HostRx { h, .. }
            | Event::HostSend { h, .. }
            | Event::HostPowerOff { h }
            | Event::HostPowerOn { h }
            | Event::HostLinkDown { h, .. }
            | Event::HostLinkUp { h, .. } => host(h),
            Event::ProbeTick => unreachable!("probes are unsupported in partitioned mode"),
        }
    }

    fn handle_sharded(&mut self, now: SimTime, event: Event, out: &mut Vec<(SimTime, Event)>) {
        let broadcast = matches!(
            event,
            Event::LinkDown { .. }
                | Event::LinkUp { .. }
                | Event::SwitchDown { .. }
                | Event::SwitchUp { .. }
                | Event::HostPowerOff { .. }
                | Event::HostPowerOn { .. }
                | Event::HostLinkDown { .. }
                | Event::HostLinkUp { .. }
        );
        let node = self.node_of(&event);
        let own = self.owner[node as usize] == self.me;
        let primary = !broadcast || own;
        if own && self.touched.last() != Some(&node) {
            self.touched.push(node);
        }
        let events_len = self.net.events.len();
        let trace_len = self.net.trace.len();
        let stats_before = self.net.stats;
        let mut stop = false;
        let mut sched = Scheduler::collecting(now, out, &mut stop);
        self.net.handle(now, event, &mut sched);
        if !primary {
            // A replicated fault on a shard that doesn't own its anchor:
            // keep the flag flips, discard the observable side effects
            // (the primary shard produces the single authoritative copy).
            out.clear();
            self.net.events.truncate(events_len);
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
            match n.checked_sub(self.n_switches) {
                None => into.dead.push((node, *self.net.switches.nodes.dead_row(n))),
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
fn lookahead_window(topo: &Topology, params: &NetParams) -> SimDuration {
    let wire_min = 36u64 * 8 * 1_000_000_000 / params.link_bps;
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
    SimDuration::from_nanos((wire_min + latency).max(1))
}

/// A running Autonet sharded across CPU cores, bit-for-bit deterministic
/// for any partition count.
pub struct PartitionedNetwork {
    sim: ShardedSimulator<PartWorld>,
    n_switches: usize,
}

impl PartitionedNetwork {
    /// Builds a network partitioned into `nparts` shards (clamped to the
    /// node count). Semantics match [`Network::new`] except for event
    /// interleaving at identical timestamps and the barrier-latched
    /// cross-node observations; results are identical for any `nparts`.
    ///
    /// # Panics
    ///
    /// Panics if `nparts` is zero, or if `params` enable control-packet
    /// loss (whose shared RNG cannot be sharded deterministically).
    pub fn new(topo: Topology, params: NetParams, seed: u64, nparts: usize) -> Self {
        assert!(nparts >= 1, "at least one partition");
        assert!(
            params.control_loss_rate == 0.0,
            "control loss is unsupported in partitioned mode (shared RNG)"
        );
        let n_switches = topo.num_switches();
        let n_nodes = (n_switches + topo.num_hosts()).max(1);
        let nparts = nparts.min(n_nodes);
        // Block partition: contiguous dense-id ranges, a pure function of
        // (n_nodes, nparts).
        let owner: Vec<u32> = (0..n_nodes)
            .map(|i| (i * nparts / n_nodes) as u32)
            .collect();
        let window = lookahead_window(&topo, &params);
        let mut boots = Vec::new();
        // One route cache for ALL shards: every serve is a pure function
        // of its inputs, so cross-shard sharing (and speculative serves
        // that later get truncated) cannot perturb behavior — a shard
        // only ever reads what it would have computed itself.
        let shared_cache = params
            .route_cache
            .then(|| std::sync::Arc::new(autonet_core::RouteCache::new()));
        let worlds: Vec<PartWorld> = (0..nparts as u32)
            .map(|me| {
                let (mut net, b) = NetWorld::build(topo.clone(), params, seed);
                net.latched = Some(Latched::initial(&net));
                if let Some(cache) = &shared_cache {
                    net.switches.route_cache = Some(std::sync::Arc::clone(cache));
                    for s in 0..net.switches.len() {
                        net.switches
                            .autopilot_mut(s)
                            .set_route_cache(std::sync::Arc::clone(cache));
                    }
                }
                if me == 0 {
                    boots = b;
                }
                PartWorld {
                    net,
                    me,
                    owner: owner.clone(),
                    n_switches,
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
        PartitionedNetwork { sim, n_switches }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of shards actually running.
    pub fn num_partitions(&self) -> usize {
        self.sim.num_shards()
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.sim.world(0).net.topo
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sim.run_for(span);
    }

    /// Switch `s`'s control program, read from the shard that owns it.
    pub fn autopilot(&self, s: SwitchId) -> &Autopilot {
        self.shard_of(s.0).net.switches.autopilot(s.0)
    }

    /// Switch `s`'s installed forwarding table, from the owning shard.
    pub fn forwarding_table(&self, s: SwitchId) -> &autonet_switch::ForwardingTable {
        &self.shard_of(s.0).net.switches.table[s.0]
    }

    fn shard_of(&self, node: usize) -> &PartWorld {
        self.sim.world(self.sim.owner_of(node))
    }

    /// Whether the control plane has converged to the physical truth
    /// (same predicate as [`Network::control_plane_consistent`]).
    pub fn control_plane_consistent(&self) -> bool {
        let w0 = &self.sim.world(0).net;
        let view = w0.physical_view();
        stats::consistent_with(&w0.topo, &view, &w0.switches.up, &|s| {
            self.autopilot(SwitchId(s))
        })
    }

    /// Runs until the control plane is stable, polling every `step`.
    /// Returns the time of the last open/close state change, or `None`
    /// if the deadline passed first.
    pub fn run_until_stable_every(
        &mut self,
        step: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        while self.sim.now() < deadline {
            self.sim.run_for(step);
            if self.control_plane_consistent() {
                return Some(self.stats().last_state_change);
            }
        }
        None
    }

    /// Aggregate counters summed across shards.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for k in 0..self.sim.num_shards() {
            let s = self.sim.world(k).net.stats;
            total.data_sent += s.data_sent;
            total.data_delivered += s.data_delivered;
            total.data_discarded += s.data_discarded;
            total.control_sent += s.control_sent;
            total.lost_in_flight += s.lost_in_flight;
            total.cpu_queue_drops += s.cpu_queue_drops;
            total.opens += s.opens;
            total.closes += s.closes;
            total.last_state_change = total.last_state_change.max(s.last_state_change);
        }
        total
    }

    /// Per-shard kernel telemetry (`None` unless `params.tracing`): what
    /// each shard's worker did and what it waited on.
    pub fn shard_telemetry(&self) -> Option<Vec<autonet_sim::ShardTelemetry>> {
        self.sim.telemetry()
    }

    /// Work counters (and wall-clock split) of the fleet-shared route
    /// cache, if [`NetParams::route_cache`](crate::NetParams) is on. The
    /// cache is one `Arc` shared by every shard, so any shard's view is
    /// the global one.
    pub fn route_cache_stats(&self) -> Option<autonet_core::RouteCacheStats> {
        self.sim
            .world(0)
            .net
            .switches
            .route_cache
            .as_ref()
            .map(|c| c.stats())
    }

    /// The kernel's execution profile as one merged [`MetricsRegistry`]
    /// (`None` unless `params.tracing`): per-shard registries folded with
    /// [`MetricsRegistry::merge`], so counters sum across shards, the
    /// `*_max` gauges keep the hottest shard, and the histograms hold one
    /// sample per shard-window, so their quantiles are per-window work and
    /// barrier wait. Route-cache counters and
    /// wall split are folded in when the cache is enabled.
    pub fn kernel_metrics(&self) -> Option<autonet_trace::MetricsRegistry> {
        use autonet_trace::MetricsRegistry;
        let tel = self.sim.telemetry()?;
        let mut merged = MetricsRegistry::new();
        for t in &tel {
            let mut shard = MetricsRegistry::new();
            shard.count("kernel.events", t.events);
            shard.count("kernel.windows", t.windows);
            shard.count("kernel.busy_windows", t.busy_windows);
            shard.count("kernel.work_ns", t.work_ns);
            shard.count("kernel.barrier_wait_ns", t.barrier_wait_ns);
            shard.count("kernel.mailbox_in", t.mailbox_in);
            shard.count("kernel.mailbox_out", t.mailbox_out);
            shard.gauge_set(
                "kernel.shard_events_max",
                t.events.min(i64::MAX as u64) as i64,
            );
            shard.gauge_set(
                "kernel.shard_barrier_wait_ns_max",
                t.barrier_wait_ns.min(i64::MAX as u64) as i64,
            );
            shard.observe_buckets("kernel.shard_work", &t.work_buckets, t.work_ns);
            shard.observe_buckets(
                "kernel.shard_barrier_wait",
                &t.barrier_wait_buckets,
                t.barrier_wait_ns,
            );
            merged.merge(&shard);
        }
        if let Some(rc) = self.route_cache_stats() {
            merged.count("route_cache.builds", rc.builds);
            merged.count("route_cache.served_memo", rc.served_memo);
            merged.count("route_cache.delta_reused", rc.delta_reused);
            merged.count("route_cache.synthesized", rc.synthesized);
            merged.count("route_cache.unroutable", rc.unroutable);
            merged.count("route_cache.build_wall_ns", rc.build_wall_ns);
            merged.count("route_cache.serve_wall_ns", rc.serve_wall_ns);
            merged.count("route_cache.delta_wall_ns", rc.delta_wall_ns);
        }
        Some(merged)
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

    /// Total reconfigurations initiated across all switches.
    pub fn total_reconfigs_triggered(&self) -> u64 {
        (0..self.n_switches)
            .map(|s| self.autopilot(SwitchId(s)).reconfigs_triggered())
            .sum()
    }

    /// The typed event spine of the whole run, canonically merged (by
    /// time, then node): each shard records only the nodes it owns, so
    /// concatenation plus a stable sort reconstructs the one history.
    /// This is the artifact the determinism tests digest.
    pub fn merged_trace_records(&self) -> Vec<TraceRecord> {
        let mut all = Vec::new();
        for k in 0..self.sim.num_shards() {
            all.extend_from_slice(self.sim.world(k).net.trace.records());
        }
        autonet_trace::merge_sorted(&all)
    }

    /// Observable network events from every shard, time-ordered (ties in
    /// shard order).
    pub fn events(&self) -> Vec<NetEvent> {
        let mut all = Vec::new();
        for k in 0..self.sim.num_shards() {
            all.extend_from_slice(&self.sim.world(k).net.events);
        }
        all.sort_by_key(|e| e.time);
        all
    }

    /// Delivered data frames from every shard, time-ordered.
    pub fn deliveries(&self) -> Vec<DeliveryRecord> {
        let mut all = Vec::new();
        for k in 0..self.sim.num_shards() {
            all.extend_from_slice(&self.sim.world(k).net.deliveries);
        }
        all.sort_by_key(|d| d.time);
        all
    }

    /// Schedules a fault event on every shard with one shared stamp (the
    /// plant flags are replicated state).
    fn broadcast(&mut self, at: SimTime, make: impl FnMut() -> Event) {
        self.sim.schedule_external_all(at, make);
    }

    /// Schedules a link failure.
    pub fn schedule_link_down(&mut self, at: SimTime, l: LinkId) {
        self.broadcast(at, || Event::LinkDown { l: l.0 });
    }

    /// Schedules a link repair.
    pub fn schedule_link_up(&mut self, at: SimTime, l: LinkId) {
        self.broadcast(at, || Event::LinkUp { l: l.0 });
    }

    /// Schedules a switch crash.
    pub fn schedule_switch_down(&mut self, at: SimTime, s: SwitchId) {
        self.broadcast(at, || Event::SwitchDown { s: s.0 });
    }

    /// Schedules a switch power-on (reboots a fresh Autopilot).
    pub fn schedule_switch_up(&mut self, at: SimTime, s: SwitchId) {
        self.broadcast(at, || Event::SwitchUp { s: s.0 });
    }

    /// Schedules a host power-off with cables left attached.
    pub fn schedule_host_power_off(&mut self, at: SimTime, h: HostId) {
        self.broadcast(at, || Event::HostPowerOff { h: h.0 });
    }

    /// Schedules the host powering back on.
    pub fn schedule_host_power_on(&mut self, at: SimTime, h: HostId) {
        self.broadcast(at, || Event::HostPowerOn { h: h.0 });
    }

    /// Schedules a host-link failure (`which`: 0 primary, 1 alternate).
    pub fn schedule_host_link_down(&mut self, at: SimTime, h: HostId, which: usize) {
        self.broadcast(at, || Event::HostLinkDown { h: h.0, which });
    }

    /// Schedules a host-link repair.
    pub fn schedule_host_link_up(&mut self, at: SimTime, h: HostId, which: usize) {
        self.broadcast(at, || Event::HostLinkUp { h: h.0, which });
    }

    /// Schedules a host data frame (delivered to the host's shard).
    pub fn schedule_host_send(&mut self, at: SimTime, h: HostId, dst: Uid, len: usize, tag: u64) {
        self.sim.schedule_external(
            at,
            Event::HostSend {
                h: h.0,
                dst,
                len,
                tag,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_topo::gen;

    fn tuned_traced() -> NetParams {
        NetParams::tuned()
    }

    /// A short fault campaign on a small torus; returns the canonical
    /// trace digest plus final control-plane state.
    fn campaign(nparts: usize) -> (String, Vec<(bool, Option<u64>)>) {
        let topo = gen::torus(3, 3, 7);
        let mut net = PartitionedNetwork::new(topo, tuned_traced(), 11, nparts);
        net.run_for(SimDuration::from_millis(400));
        net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(2));
        net.run_for(SimDuration::from_millis(300));
        net.schedule_link_up(net.now() + SimDuration::from_millis(1), LinkId(2));
        net.run_for(SimDuration::from_millis(300));
        let digest = autonet_trace::to_jsonl(&net.merged_trace_records());
        let state = (0..net.topology().num_switches())
            .map(|s| {
                let ap = net.autopilot(SwitchId(s));
                (ap.is_open(), ap.global().map(|g| g.epoch.0))
            })
            .collect();
        (digest, state)
    }

    #[test]
    fn partition_count_does_not_change_history() {
        let base = campaign(1);
        assert!(!base.0.is_empty());
        for nparts in [2, 4] {
            assert_eq!(campaign(nparts), base, "divergence at {nparts} partitions");
        }
    }

    #[test]
    fn partitioned_torus_converges() {
        let topo = gen::torus(3, 3, 7);
        let mut net = PartitionedNetwork::new(topo, tuned_traced(), 11, 4);
        let t = net.run_until_stable_every(SimDuration::from_millis(20), SimTime::from_secs(5));
        assert!(t.is_some(), "partitioned bring-up did not converge");
        assert!(net.control_plane_consistent());
        assert!(net.events_processed() > 0);
    }

    #[test]
    #[should_panic(expected = "control loss is unsupported")]
    fn loss_params_rejected() {
        let mut params = NetParams::tuned();
        params.control_loss_rate = 0.01;
        let _ = PartitionedNetwork::new(gen::torus(2, 2, 1), params, 1, 2);
    }
}

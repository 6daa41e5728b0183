//! The packet-level network simulation.
//!
//! Control plane at full fidelity (every Autopilot message is a real
//! packet with bandwidth, propagation and control-processor costs), data
//! plane at packet granularity (forwarding-table lookups per hop, link
//! serialization, no per-byte flow control — that lives in the slot-level
//! model of `autonet-switch::datapath`).
//!
//! [`Net`] is one facade over both event kernels — [`Network`] on the
//! classic single-queue `Simulator`, [`PartitionedNetwork`] on the sharded
//! one — assembled from focused submodules:
//!
//! - `events`: the event vocabulary ([`Event`]) and the delivery record;
//! - `driver`: the seam to the kernels (clock, scheduling, which world
//!   owns a node); `partitioned`: the sharded kernel's world and latch;
//! - `switch_node`: one switch = one `autonet_core::Autopilot` calling a
//!   packet-level `Environment` view, on an armed tick and a sample grid;
//! - `host_node`: host controllers and data injection;
//! - `links`: the wires — serialization, propagation, reflection, status
//!   synthesis, data forwarding;
//! - `faults`: fault injection and repair;
//! - `stats`: convergence checks, the reference comparison, traces.

mod driver;
mod events;
mod faults;
mod host_node;
mod links;
mod partitioned;
mod pool;
mod probes;
mod stats;
mod switch_node;
#[cfg(test)]
mod tests;

pub use crate::stats::{HandlerProfile, NetStats};
#[doc(hidden)]
pub use driver::Driver;
pub use events::DeliveryRecord;
#[doc(hidden)]
pub use events::Event;
pub use faults::link_flap_events;

use std::sync::Arc;

use autonet_core::RouteCache;
use autonet_sim::{Scheduler, ShardedSimulator, SimDuration, SimRng, SimTime, Simulator, World};
use autonet_topo::{LinkId, SwitchId, Topology};
use autonet_trace::TraceRecord;

use crate::params::NetParams;
use pool::{HostPool, SwitchPool};

/// The simulation world (driven through [`Net`]).
#[doc(hidden)]
#[derive(Clone)]
pub struct NetWorld {
    topo: Topology,
    params: NetParams,
    switches: SwitchPool,
    hosts: HostPool,
    link_up: Vec<bool>,
    /// Per-direction link busy times; index 0 = a→b.
    link_busy: Vec<[SimTime; 2]>,
    host_link_up: Vec<[bool; 2]>,
    /// When a host was powered off with its cables still attached, the
    /// unterminated links reflect signals (§5.3, §7) until the switch's
    /// status sampler sees enough BadCode to kill the port.
    host_powered_off_at: Vec<Option<SimTime>>,
    /// [host][attachment][direction]; direction 0 = host→switch.
    host_link_busy: Vec<[[SimTime; 2]; 2]>,
    deliveries: Vec<DeliveryRecord>,
    /// The network-wide typed event spine: every Autopilot trace event,
    /// node-attributed, for online invariant checkers and trace exports.
    trace: autonet_trace::EventLog,
    stats: NetStats,
    /// The last topology flood this world sent or received, as one pair:
    /// its payload beside the `TopologyDown` it encodes (see
    /// `switch_node`). A pure-function memo of the codec, one entry.
    flood: Option<(autonet_wire::Bytes, autonet_core::ControlMsg)>,
    /// Events handled so far, by [`Event::kind`].
    handled: [u64; Event::KINDS.len()],
    /// With tracing on, the timed sample of handler walls by
    /// [`Event::kind`] — (events timed, their summed ns) — and how many
    /// events remain until the next is timed.
    timed: [(u64, u64); Event::KINDS.len()],
    untimed: u32,
    /// Service-interruption probe flows; `None` until
    /// [`Network::start_probes`].
    probes: Option<probes::ProbeState>,
    /// Seed of the control-loss draw (see `NetWorld::lost`), which is a
    /// pure function of it and the arrival, so no random state is carried.
    loss_seed: u64,
    /// Latched cross-node observations (dead-port verdicts, host active
    /// ports). `None` in the classic single-queue loop, where
    /// [`synthesize_status`](NetWorld::synthesize_status) reads the live
    /// state; `Some` under the sharded executor, which refreshes the
    /// latch at every lookahead-window barrier so observation timing is
    /// identical at any partition count.
    latched: Option<partitioned::Latched>,
}

/// A running Autonet built from a topology, on event kernel `D`.
///
/// Everything that does not depend on the kernel is a method of
/// `Net<D>` itself, written once; [`Network`] and [`PartitionedNetwork`]
/// add their constructor and what only their kernel can offer.
///
/// [`Network`] is `Clone` — a clone is an independent fork of the whole
/// simulation, pending events included, that continues exactly as the
/// original would have. [`PartitionedNetwork`] is not.
#[derive(Clone)]
pub struct Net<D> {
    sim: D,
}

/// A running Autonet on the classic single-queue kernel.
pub type Network = Net<Simulator<NetWorld>>;

/// A running Autonet sharded across CPU cores, bit-for-bit deterministic
/// for any partition count (see [`PartitionedNetwork::new`]).
///
/// Service-interruption probes draw on one network-wide tick, so the
/// probe API exists on [`Network`] only:
///
/// ```compile_fail,E0599
/// use autonet_net::{NetParams, PartitionedNetwork};
/// use autonet_sim::SimDuration;
/// use autonet_topo::{gen, HostId};
///
/// let mut topo = gen::ring(4, 5);
/// gen::add_dual_homed_hosts(&mut topo, 1, 9);
/// let mut net = PartitionedNetwork::new(topo, NetParams::tuned(), 1, 2);
/// net.start_probes(&[(HostId(0), HostId(2))], SimDuration::from_millis(2));
/// ```
pub type PartitionedNetwork = Net<ShardedSimulator<partitioned::PartWorld>>;

impl NetWorld {
    /// Builds the world plus its boot schedule (every switch and host
    /// booting within the configured jitter of t = 0). Shared by the
    /// classic [`Network`] and every shard of a [`PartitionedNetwork`] —
    /// same seed, bit-identical worlds. `route_cache` is the fleet-shared
    /// cache every Autopilot gets (one per network, also across shards).
    fn build(
        topo: Topology,
        params: NetParams,
        seed: u64,
        route_cache: Arc<RouteCache>,
    ) -> (NetWorld, Vec<(SimTime, Event)>) {
        let mut rng = SimRng::new(seed);
        let mut switches = SwitchPool::new(route_cache);
        for s in topo.switch_ids() {
            switches.push(
                topo.switch(s).uid,
                params.autopilot,
                SimTime::ZERO,
                params.tracing,
            );
        }
        let mut hosts = HostPool::new();
        for h in topo.host_ids() {
            hosts.push(autonet_host::HostController::new(
                topo.host(h).uid,
                params.host,
                topo.host(h).alternate.is_some(),
            ));
        }
        let world = NetWorld {
            link_up: vec![true; topo.num_links()],
            link_busy: vec![[SimTime::ZERO; 2]; topo.num_links()],
            host_link_up: vec![[true; 2]; topo.num_hosts()],
            host_powered_off_at: vec![None; topo.num_hosts()],
            host_link_busy: vec![[[SimTime::ZERO; 2]; 2]; topo.num_hosts()],
            switches,
            hosts,
            deliveries: Vec::new(),
            trace: autonet_trace::EventLog::new(),
            stats: NetStats::default(),
            flood: None,
            handled: [0; Event::KINDS.len()],
            timed: [(0, 0); Event::KINDS.len()],
            untimed: HandlerProfile::PROFILE_EVERY,
            probes: None,
            loss_seed: rng.next_u64(),
            latched: None,
            topo,
            params,
        };
        let jitter = world.params.boot_jitter.as_nanos().max(1);
        let mut boots = Vec::with_capacity(world.switches.len() + world.hosts.len());
        for s in 0..world.switches.len() {
            let at = SimTime::from_nanos(rng.below(jitter));
            boots.push((at, Event::SwitchBoot { s }));
        }
        for h in 0..world.hosts.len() {
            let at = SimTime::from_nanos(rng.below(jitter));
            boots.push((at, Event::HostBoot { h }));
        }
        (world, boots)
    }
}

impl Network {
    /// Builds a network and schedules every switch and host to boot within
    /// the configured jitter of t = 0.
    pub fn new(topo: Topology, params: NetParams, seed: u64) -> Self {
        let cache = Arc::new(RouteCache::new());
        let (world, boots) = NetWorld::build(topo, params, seed, cache);
        let mut sim = Simulator::new(world);
        for (at, event) in boots {
            sim.schedule_at(at, event);
        }
        Net { sim }
    }

    /// Delivered data frames, in processing order.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.sim.world().deliveries
    }

    /// The undrained typed event spine (see [`autonet_trace::EventLog`]):
    /// every port transition, skeptic decision, table install and
    /// open/close, node-attributed and timestamped, in processing order.
    pub fn trace_log(&self) -> &autonet_trace::EventLog {
        &self.sim.world().trace
    }
}

impl<D: Driver> Net<D> {
    /// Any world, for state every world holds alike: the topology, the
    /// plant flags, the shared route cache.
    fn plant(&self) -> &NetWorld {
        self.sim.world_of(0)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Total kernel events processed so far (the scale benches' throughput
    /// numerator).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.plant().topo
    }

    /// Whether trunk link `l` is physically up right now (fault schedules
    /// — flaps in particular — change this underneath the caller).
    pub fn link_is_up(&self, l: LinkId) -> bool {
        self.plant().link_up[l.0]
    }

    /// Whether switch `s` is powered right now.
    pub fn switch_is_up(&self, s: SwitchId) -> bool {
        self.plant().switches.up[s.0]
    }

    /// Work counters of the fleet-shared route cache. `Some` on every
    /// network; the `Option` is what the frozen `benchmark/` crate matches.
    pub fn route_cache_stats(&self) -> Option<autonet_core::RouteCacheStats> {
        Some(self.plant().switches.route_cache.stats())
    }

    /// Drains the typed event spine accumulated since the last drain —
    /// the scenario engine's online-checking hook. [`Network`] returns
    /// processing order; [`PartitionedNetwork`] the canonical
    /// `(time, node)` merge, identical at any partition count.
    pub fn drain_trace_records(&mut self) -> Vec<TraceRecord> {
        self.sim.drain_trace()
    }

    /// The undrained typed event spine as one history in canonical
    /// `(time, node)` order, each node's events in the order it produced
    /// them — the paper's primary debugging tool (§6.7), and the same at
    /// any partition count. Empty when `NetParams::tracing` is off.
    pub fn merged_trace(&self) -> Vec<TraceRecord> {
        let spines = self.sim.worlds().flat_map(|w| w.trace.records());
        autonet_trace::merge_sorted(&spines.cloned().collect::<Vec<_>>())
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.sim.run_for(span);
    }

    /// Runs until the control plane is stable: every up switch open, all on
    /// one epoch with consistent topology. Returns the time of the last
    /// open/close state change (the true completion instant), or `None` if
    /// the deadline passed first.
    pub fn run_until_stable(&mut self, deadline: SimTime) -> Option<SimTime> {
        self.run_until_stable_every(SimDuration::from_millis(20), deadline)
    }

    /// [`run_until_stable`](Net::run_until_stable) with an explicit
    /// consistency-polling period. The check walks every switch's agreed
    /// topology (quadratic in network size), so large-network callers
    /// poll at a coarser grain than the 20 ms default.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero: the clock would never reach `deadline`.
    pub fn run_until_stable_every(
        &mut self,
        step: SimDuration,
        deadline: SimTime,
    ) -> Option<SimTime> {
        assert!(
            step > SimDuration::ZERO,
            "a zero polling step never advances the clock to the deadline"
        );
        while self.sim.now() < deadline {
            self.sim.run_for(step);
            if self.control_plane_consistent() {
                return Some(self.stats().last_state_change);
            }
        }
        None
    }
}

impl World for NetWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        let kind = event.kind();
        self.handled[kind] += 1;
        if self.params.tracing {
            self.untimed -= 1;
            if self.untimed == 0 {
                self.untimed = HandlerProfile::PROFILE_EVERY;
                let start = std::time::Instant::now();
                self.dispatch(now, event, sched);
                let (n, ns) = &mut self.timed[kind];
                *n += 1;
                *ns += start.elapsed().as_nanos() as u64;
                return;
            }
        }
        self.dispatch(now, event, sched);
    }
}

impl NetWorld {
    fn dispatch(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        match event {
            Event::SwitchBoot { s } => self.on_switch_boot(now, s, sched),
            Event::SwitchTick { s, inc } => self.on_switch_tick(now, s, inc, sched),
            Event::SwitchSample { s, inc } => self.on_switch_sample(now, s, inc, sched),
            Event::SwitchRx {
                s,
                port,
                packet,
                via,
            } => self.on_switch_rx(now, s, port, packet, via, sched),
            Event::SwitchCpuDone {
                s,
                port,
                packet,
                inc,
            } => self.on_switch_cpu_done(now, s, port, packet, inc, sched),
            Event::HostBoot { h } => self.on_host_boot(now, h, sched),
            Event::HostTick { h } => self.on_host_tick(now, h, sched),
            Event::HostRx {
                h,
                cport,
                packet,
                via,
            } => self.on_host_rx(now, h, cport, packet, via, sched),
            Event::HostSend { h, dst, len, tag } => self.on_host_send(now, h, dst, len, tag, sched),
            Event::SrpRequest { s, route, payload } => {
                self.on_srp_request(now, s, route, payload, sched)
            }
            Event::LinkDown { l } => self.link_up[l] = false,
            Event::LinkUp { l } => self.link_up[l] = true,
            Event::SwitchDown { s } => self.switches.up[s] = false,
            Event::SwitchUp { s } => self.on_switch_up(now, s, sched),
            Event::HostPowerOff { h } => self.on_host_power_off(now, h),
            Event::HostPowerOn { h } => self.on_host_power_on(h, sched),
            Event::HostLinkDown { h, which } => self.host_link_up[h][which] = false,
            Event::HostLinkUp { h, which } => self.host_link_up[h][which] = true,
            Event::ProbeTick => self.on_probe_tick(now, sched),
        }
    }
}

//! Struct-of-arrays node pools for the packet-level world.
//!
//! The event loop addresses switches and hosts by dense index, and the
//! hot paths each touch only one or two fields per node: data
//! forwarding reads the table, status synthesis reads the up flag and
//! the dead-port mirror, the receive path reads and writes the CPU
//! backlog. Keeping every field in its own `Vec` (instead of a `Vec`
//! of per-node structs) means those paths scan small dense arrays and
//! never load the harness boxes at all; the harnesses themselves live
//! in an [`autonet_harness::HarnessPool`] with the same dense ids.

use std::sync::Arc;

use autonet_core::{Autopilot, AutopilotParams, RouteCache};
use autonet_harness::{HarnessPool, NodeHarness};
use autonet_host::HostController;
use autonet_sim::SimTime;
use autonet_switch::ForwardingTable;
use autonet_wire::Uid;

/// All switches, one field per array, indexed by `SwitchId.0`.
pub(super) struct SwitchPool {
    /// The control programs (take/put around entry points, dead-port
    /// mirrors) — see [`HarnessPool`].
    pub(super) nodes: HarnessPool,
    /// The currently loaded forwarding table (data-plane hot path).
    pub(super) table: Vec<ForwardingTable>,
    /// When the control processor finishes its current backlog.
    pub(super) cpu_free: Vec<SimTime>,
    /// Powered and running.
    pub(super) up: Vec<bool>,
    /// Fleet-shared route cache handed to every Autopilot (including
    /// reboots).
    pub(super) route_cache: Arc<RouteCache>,
}

impl SwitchPool {
    pub(super) fn new(route_cache: Arc<RouteCache>) -> Self {
        SwitchPool {
            nodes: HarnessPool::new(),
            table: Vec::new(),
            cpu_free: Vec::new(),
            up: Vec::new(),
            route_cache,
        }
    }

    fn fresh_harness(&self, uid: Uid, params: AutopilotParams, tracing: bool) -> NodeHarness {
        let mut ap = Autopilot::new(uid, params);
        ap.set_tracing(tracing);
        ap.set_route_cache(Arc::clone(&self.route_cache));
        NodeHarness::new(ap)
    }

    /// Appends a switch; returns its dense id.
    pub(super) fn push(
        &mut self,
        uid: Uid,
        params: AutopilotParams,
        cpu_free: SimTime,
        tracing: bool,
    ) -> usize {
        let h = self.fresh_harness(uid, params, tracing);
        let s = self.nodes.push(h);
        self.table.push(ForwardingTable::new());
        self.cpu_free.push(cpu_free);
        self.up.push(true);
        s
    }

    /// Reboots slot `s` with a fresh Autopilot: new harness, condemned
    /// ports, empty table, idle CPU, powered up.
    pub(super) fn reset_slot(
        &mut self,
        s: usize,
        uid: Uid,
        params: AutopilotParams,
        now: SimTime,
        tracing: bool,
    ) {
        let h = self.fresh_harness(uid, params, tracing);
        self.nodes.reset(s, h);
        self.table[s] = ForwardingTable::new();
        self.cpu_free[s] = now;
        self.up[s] = true;
    }

    /// Number of switches.
    pub(super) fn len(&self) -> usize {
        self.up.len()
    }

    /// Switch `s`'s control program, for inspection.
    pub(super) fn autopilot(&self, s: usize) -> &Autopilot {
        self.nodes.autopilot(s)
    }

    /// Switch `s`'s control program, mutably (SRP reply draining).
    pub(super) fn autopilot_mut(&mut self, s: usize) -> &mut Autopilot {
        self.nodes.autopilot_mut(s)
    }
}

/// A clone is a fork of the fleet, so it gets a route cache of its own:
/// one deep copy, shared by the new pool and every cloned Autopilot the
/// way the original is shared among the originals. Sharing the original
/// instead would leave behaviour alone (serves are pure) but let forks
/// see each other's memo hits and counters, which a cold run never does.
impl Clone for SwitchPool {
    fn clone(&self) -> Self {
        let mut nodes = self.nodes.clone();
        let route_cache = Arc::new(RouteCache::clone(&self.route_cache));
        for s in 0..nodes.len() {
            nodes
                .autopilot_mut(s)
                .set_route_cache(Arc::clone(&route_cache));
        }
        SwitchPool {
            nodes,
            table: self.table.clone(),
            cpu_free: self.cpu_free.clone(),
            up: self.up.clone(),
            route_cache,
        }
    }
}

/// All hosts, one field per array, indexed by `HostId.0`.
#[derive(Clone)]
pub(super) struct HostPool {
    /// The host controllers.
    pub(super) ctl: Vec<HostController>,
    /// Powered and running.
    pub(super) up: Vec<bool>,
}

impl HostPool {
    pub(super) fn new() -> Self {
        HostPool {
            ctl: Vec::new(),
            up: Vec::new(),
        }
    }

    /// Appends a host; returns its dense id.
    pub(super) fn push(&mut self, ctl: HostController) -> usize {
        self.ctl.push(ctl);
        self.up.push(true);
        self.ctl.len() - 1
    }

    /// Number of hosts.
    pub(super) fn len(&self) -> usize {
        self.up.len()
    }
}

//! Struct-of-arrays node pools for the packet-level world.
//!
//! The event loop addresses switches and hosts by dense index, and the
//! hot paths each touch only one or two fields per node: data
//! forwarding reads the table, status synthesis reads the up flag and
//! the dead-port mirror, the receive path reads and writes the CPU
//! backlog. Keeping every field in its own `Vec` (instead of a `Vec`
//! of per-node structs) means those paths scan small dense arrays and
//! never load the harnesses at all.
//!
//! An entry point takes the switch's harness out of its slot (so the
//! environment view may borrow the rest of the world), runs it, and
//! puts it back. The dead-port mirror is written as each verdict is
//! reached, so other switches reading it between entry points see
//! exactly the live state. The timer mirror is written at every put, so
//! a tick that has nothing to do is refused without a take.

use std::sync::Arc;

use autonet_core::{Autopilot, AutopilotParams, NodeHarness, PortState, RouteCache};
use autonet_host::HostController;
use autonet_sim::SimTime;
use autonet_switch::ForwardingTable;
use autonet_wire::{PortIndex, Uid, MAX_PORTS};

/// All switches, one field per array, indexed by `SwitchId.0`.
pub(super) struct SwitchPool {
    /// The control programs. `None` only while that switch's entry
    /// point is running (between [`take`](Self::take) and
    /// [`put`](Self::put)).
    slots: Vec<Option<NodeHarness>>,
    /// Per-switch dead-port mirror: the packet-level stand-in for the
    /// link unit's `idhy` hook, readable without touching the harness.
    /// A port enters or leaves `Dead` only inside a status sample, and
    /// the sampling round writes each verdict here through the
    /// environment's `set_port_dead` hook while the harness is out (what
    /// a looped-back cable reads mid-round); a boot or reboot condemns
    /// the whole row. [`put`](Self::put) holds debug builds to that.
    pub(super) dead: Vec<[bool; MAX_PORTS]>,
    /// Per-switch timer mirror: [`Autopilot::timer_due`] as of the last
    /// [`put`](Self::put), a lower bound below which a tick would make no
    /// call. Zero (every tick runs) until the first put.
    pub(super) tick_due: Vec<SimTime>,
    /// The currently loaded forwarding table (data-plane hot path).
    pub(super) table: Vec<ForwardingTable>,
    /// When the control processor finishes its current backlog.
    pub(super) cpu_free: Vec<SimTime>,
    /// Powered and running.
    pub(super) up: Vec<bool>,
    /// How many times each switch has been rebooted: the stamp its timer
    /// and CPU events carry, so a crashed incarnation's leftovers can be
    /// told from the running one's.
    pub(super) incarnation: Vec<u32>,
    /// Fleet-shared route cache handed to every Autopilot (including
    /// reboots).
    pub(super) route_cache: Arc<RouteCache>,
}

impl SwitchPool {
    pub(super) fn new(route_cache: Arc<RouteCache>) -> Self {
        SwitchPool {
            slots: Vec::new(),
            dead: Vec::new(),
            tick_due: Vec::new(),
            table: Vec::new(),
            cpu_free: Vec::new(),
            up: Vec::new(),
            incarnation: Vec::new(),
            route_cache,
        }
    }

    fn fresh_harness(&self, uid: Uid, params: AutopilotParams, tracing: bool) -> NodeHarness {
        let mut ap = Autopilot::new(uid, params);
        ap.set_tracing(tracing);
        ap.set_route_cache(Arc::clone(&self.route_cache));
        NodeHarness::new(ap)
    }

    /// Appends a switch. Ports boot Dead, so the mirror starts
    /// all-condemned.
    pub(super) fn push(
        &mut self,
        uid: Uid,
        params: AutopilotParams,
        cpu_free: SimTime,
        tracing: bool,
    ) {
        let h = self.fresh_harness(uid, params, tracing);
        self.slots.push(Some(h));
        self.dead.push([true; MAX_PORTS]);
        self.tick_due.push(SimTime::ZERO);
        self.table.push(ForwardingTable::new());
        self.cpu_free.push(cpu_free);
        self.up.push(true);
        self.incarnation.push(0);
    }

    /// Reboots slot `s` with a fresh Autopilot: new harness, condemned
    /// ports, empty table, idle CPU, powered up, next incarnation.
    pub(super) fn reset_slot(
        &mut self,
        s: usize,
        uid: Uid,
        params: AutopilotParams,
        now: SimTime,
        tracing: bool,
    ) {
        self.slots[s] = Some(self.fresh_harness(uid, params, tracing));
        self.dead[s] = [true; MAX_PORTS];
        self.tick_due[s] = SimTime::ZERO;
        self.table[s] = ForwardingTable::new();
        self.cpu_free[s] = now;
        self.up[s] = true;
        self.incarnation[s] = self.incarnation[s].wrapping_add(1);
    }

    /// Number of switches.
    pub(super) fn len(&self) -> usize {
        self.up.len()
    }

    /// Removes switch `s`'s harness for an entry-point run.
    ///
    /// # Panics
    ///
    /// Panics if the harness is already taken (a re-entered switch).
    pub(super) fn take(&mut self, s: usize) -> NodeHarness {
        self.slots[s].take().expect("harness re-entered")
    }

    /// Returns switch `s`'s harness after an entry-point run.
    pub(super) fn put(&mut self, s: usize, harness: NodeHarness) {
        debug_assert!(
            (0..MAX_PORTS).all(|p| self.dead[s][p] == is_dead(&harness, p)),
            "switch {s}: the dead-port mirror missed a verdict"
        );
        self.tick_due[s] = harness.autopilot().timer_due();
        self.slots[s] = Some(harness);
    }

    /// Switch `s`'s harness, for inspection.
    pub(super) fn harness(&self, s: usize) -> &NodeHarness {
        self.slots[s].as_ref().expect("harness in place")
    }

    /// Switch `s`'s control program, for inspection.
    pub(super) fn autopilot(&self, s: usize) -> &Autopilot {
        self.harness(s).autopilot()
    }

    /// Switch `s`'s control program, mutably (SRP reply draining).
    pub(super) fn autopilot_mut(&mut self, s: usize) -> &mut Autopilot {
        self.slots[s]
            .as_mut()
            .expect("harness in place")
            .autopilot_mut()
    }
}

fn is_dead(harness: &NodeHarness, port: usize) -> bool {
    harness.autopilot().port_state(port as PortIndex) == PortState::Dead
}

/// A clone is a fork of the fleet, so it gets a route cache of its own:
/// one deep copy, shared by the new pool and every cloned Autopilot the
/// way the original is shared among the originals. Sharing the original
/// instead would leave behaviour alone (serves are pure) but let forks
/// see each other's memo hits and counters, which a cold run never does.
impl Clone for SwitchPool {
    fn clone(&self) -> Self {
        let mut slots = self.slots.clone();
        let route_cache = Arc::new(RouteCache::clone(&self.route_cache));
        for h in slots.iter_mut().flatten() {
            h.autopilot_mut().set_route_cache(Arc::clone(&route_cache));
        }
        SwitchPool {
            slots,
            dead: self.dead.clone(),
            tick_due: self.tick_due.clone(),
            table: self.table.clone(),
            cpu_free: self.cpu_free.clone(),
            up: self.up.clone(),
            incarnation: self.incarnation.clone(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(uids: &[u64]) -> SwitchPool {
        let mut pool = SwitchPool::new(Arc::new(RouteCache::new()));
        for &uid in uids {
            pool.push(
                Uid::new(uid),
                AutopilotParams::tuned(),
                SimTime::ZERO,
                false,
            );
        }
        pool
    }

    #[test]
    fn push_take_put_round_trips() {
        let mut pool = pool(&[1, 2]);
        assert_eq!(pool.len(), 2);
        let h = pool.take(1);
        assert_eq!(h.autopilot().uid(), Uid::new(2));
        pool.put(1, h);
        assert_eq!(pool.autopilot(0).uid(), Uid::new(1));
        assert_eq!(pool.autopilot(1).uid(), Uid::new(2));
    }

    #[test]
    fn mirror_starts_condemned_and_tracks_port_states() {
        let mut pool = pool(&[1]);
        assert_eq!(pool.dead[0], [true; MAX_PORTS]);
        // Which is a fresh Autopilot's verdict on every port: the row
        // put() holds the mirror to.
        let h = pool.take(0);
        assert!((0..MAX_PORTS).all(|p| is_dead(&h, p)));
        pool.put(0, h);
    }

    #[test]
    fn reset_installs_a_fresh_node() {
        let mut pool = pool(&[1]);
        pool.dead[0][2] = false;
        pool.tick_due[0] = SimTime::MAX;
        pool.reset_slot(
            0,
            Uid::new(9),
            AutopilotParams::tuned(),
            SimTime::ZERO,
            false,
        );
        assert_eq!(pool.autopilot(0).uid(), Uid::new(9));
        assert!(pool.dead[0][2]);
        assert_eq!(pool.tick_due[0], SimTime::ZERO);
        assert_eq!(pool.incarnation[0], 1);
    }

    #[test]
    #[should_panic(expected = "harness re-entered")]
    fn double_take_panics() {
        let mut pool = pool(&[1]);
        let _h = pool.take(0);
        pool.take(0);
    }
}

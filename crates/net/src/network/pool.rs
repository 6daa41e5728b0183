//! Struct-of-arrays node pools for the packet-level world.
//!
//! The event loop addresses switches and hosts by dense index, and the
//! hot paths each touch only one or two fields per node: data
//! forwarding reads the table, status synthesis reads the up flag and
//! the dead-port mirror, the receive path reads and writes the CPU
//! backlog. Keeping every field in its own `Vec` (instead of a `Vec`
//! of per-node structs) means those paths scan small dense arrays and
//! never load the control programs at all.
//!
//! An entry point takes the switch's Autopilot out of its slot (so the
//! environment view may borrow the rest of the world), runs it, and
//! puts it back. The dead-port mirror is written as each verdict is
//! reached, so other switches reading it between entry points see
//! exactly the live state. The tick a put calls for is armed from the
//! Autopilot's own timer bound (see `switch_node`).

use std::sync::Arc;

use autonet_core::{Autopilot, AutopilotParams, PortState, RouteCache};
use autonet_host::HostController;
use autonet_sim::SimTime;
use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_wire::{PortIndex, Uid, MAX_PORTS};

/// All switches, one field per array, indexed by `SwitchId.0`.
pub(super) struct SwitchPool {
    /// The control programs. `None` only while that switch's entry
    /// point is running (between [`take`](Self::take) and
    /// [`put`](Self::put)).
    slots: Vec<Option<Autopilot>>,
    /// Per-switch dead-port mirror: the packet-level stand-in for the
    /// link unit's `idhy` hook, readable without touching the Autopilot.
    /// A port enters or leaves `Dead` only inside a status sample, and
    /// the sampling round writes each verdict here through the
    /// environment's `set_port_dead` hook while the Autopilot is out (what
    /// a looped-back cable reads mid-round); a boot or reboot condemns
    /// the whole row. [`put`](Self::put) holds debug builds to that.
    pub(super) dead: Vec<[bool; MAX_PORTS]>,
    /// The instant of the switch's one live pending `SwitchTick`; `MAX`
    /// when none is armed.
    pub(super) tick_at: Vec<SimTime>,
    /// The last tick handled (the boot instant before the first): every
    /// tick lands a whole number of timer resolutions after it.
    pub(super) last_tick: Vec<SimTime>,
    /// The instant of the switch's pending `SwitchSample`.
    pub(super) sample_at: Vec<SimTime>,
    /// The port statuses the last sampling round that ran read.
    pub(super) read: Vec<[LinkUnitStatus; MAX_PORTS]>,
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
            tick_at: Vec::new(),
            last_tick: Vec::new(),
            sample_at: Vec::new(),
            read: Vec::new(),
            table: Vec::new(),
            cpu_free: Vec::new(),
            up: Vec::new(),
            incarnation: Vec::new(),
            route_cache,
        }
    }

    fn fresh_autopilot(&self, uid: Uid, params: AutopilotParams, tracing: bool) -> Autopilot {
        let mut ap = Autopilot::new(uid, params);
        ap.set_tracing(tracing);
        ap.set_route_cache(Arc::clone(&self.route_cache));
        ap
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
        let ap = self.fresh_autopilot(uid, params, tracing);
        self.slots.push(Some(ap));
        self.dead.push([true; MAX_PORTS]);
        self.tick_at.push(SimTime::MAX);
        self.last_tick.push(SimTime::ZERO);
        self.sample_at.push(SimTime::MAX);
        self.read.push([LinkUnitStatus::new(); MAX_PORTS]);
        self.table.push(ForwardingTable::new());
        self.cpu_free.push(cpu_free);
        self.up.push(true);
        self.incarnation.push(0);
    }

    /// Reboots slot `s` with a fresh Autopilot: condemned
    /// ports, empty table, idle CPU, no timer armed, powered up, next
    /// incarnation.
    pub(super) fn reset_slot(
        &mut self,
        s: usize,
        uid: Uid,
        params: AutopilotParams,
        now: SimTime,
        tracing: bool,
    ) {
        self.slots[s] = Some(self.fresh_autopilot(uid, params, tracing));
        self.dead[s] = [true; MAX_PORTS];
        self.tick_at[s] = SimTime::MAX;
        self.sample_at[s] = SimTime::MAX;
        self.table[s] = ForwardingTable::new();
        self.cpu_free[s] = now;
        self.up[s] = true;
        self.incarnation[s] = self.incarnation[s].wrapping_add(1);
    }

    /// Number of switches.
    pub(super) fn len(&self) -> usize {
        self.up.len()
    }

    /// Removes switch `s`'s Autopilot for an entry-point run.
    ///
    /// # Panics
    ///
    /// Panics if the Autopilot is already taken (a re-entered switch).
    pub(super) fn take(&mut self, s: usize) -> Autopilot {
        self.slots[s].take().expect("autopilot re-entered")
    }

    /// Returns switch `s`'s Autopilot after an entry-point run.
    pub(super) fn put(&mut self, s: usize, ap: Autopilot) {
        debug_assert!(
            (0..MAX_PORTS).all(|p| self.dead[s][p] == is_dead(&ap, p)),
            "switch {s}: the dead-port mirror missed a verdict"
        );
        self.slots[s] = Some(ap);
    }

    /// Switch `s`'s control program, for inspection.
    pub(super) fn autopilot(&self, s: usize) -> &Autopilot {
        self.slots[s].as_ref().expect("autopilot in place")
    }

    /// Switch `s`'s control program, mutably (SRP reply draining).
    pub(super) fn autopilot_mut(&mut self, s: usize) -> &mut Autopilot {
        self.slots[s].as_mut().expect("autopilot in place")
    }
}

fn is_dead(ap: &Autopilot, port: usize) -> bool {
    ap.port_state(port as PortIndex) == PortState::Dead
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
        for ap in slots.iter_mut().flatten() {
            ap.set_route_cache(Arc::clone(&route_cache));
        }
        SwitchPool {
            slots,
            dead: self.dead.clone(),
            tick_at: self.tick_at.clone(),
            last_tick: self.last_tick.clone(),
            sample_at: self.sample_at.clone(),
            read: self.read.clone(),
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
        let ap = pool.take(1);
        assert_eq!(ap.uid(), Uid::new(2));
        pool.put(1, ap);
        assert_eq!(pool.autopilot(0).uid(), Uid::new(1));
        assert_eq!(pool.autopilot(1).uid(), Uid::new(2));
    }

    #[test]
    fn mirror_starts_condemned_and_tracks_port_states() {
        let mut pool = pool(&[1]);
        assert_eq!(pool.dead[0], [true; MAX_PORTS]);
        // Which is a fresh Autopilot's verdict on every port: the row
        // put() holds the mirror to.
        let ap = pool.take(0);
        assert!((0..MAX_PORTS).all(|p| is_dead(&ap, p)));
        pool.put(0, ap);
    }

    #[test]
    fn reset_installs_a_fresh_node() {
        let mut pool = pool(&[1]);
        pool.dead[0][2] = false;
        pool.tick_at[0] = SimTime::ZERO;
        pool.reset_slot(
            0,
            Uid::new(9),
            AutopilotParams::tuned(),
            SimTime::ZERO,
            false,
        );
        assert_eq!(pool.autopilot(0).uid(), Uid::new(9));
        assert!(pool.dead[0][2]);
        assert_eq!(pool.autopilot(0).timer_due(), SimTime::ZERO);
        assert_eq!(pool.tick_at[0], SimTime::MAX);
        assert_eq!(pool.incarnation[0], 1);
    }

    #[test]
    #[should_panic(expected = "autopilot re-entered")]
    fn double_take_panics() {
        let mut pool = pool(&[1]);
        let _ap = pool.take(0);
        pool.take(0);
    }
}

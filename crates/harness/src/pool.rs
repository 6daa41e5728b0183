//! Dense struct-of-arrays storage for node harnesses.
//!
//! Backends that simulate many switches keep one [`NodeHarness`] per
//! node. Storing them `Vec`-per-field (the harness slots in one dense
//! array, the dead-port mirrors in another) keeps the hot read paths —
//! a neighbor's status synthesis peeking at this node's dead-port
//! verdicts, convergence checks scanning every Autopilot — off the
//! harness structs entirely: they walk small flat arrays indexed by the
//! dense node id instead of chasing per-node allocations.
//!
//! The take/put discipline mirrors what the packet-level backend always
//! did inline: an entry point removes the harness from its slot (so the
//! environment view may borrow the rest of the world), runs it, and
//! puts it back; [`put`](HarnessPool::put) refreshes the dead-port
//! mirror from the Autopilot's verdicts at that moment, so other nodes
//! reading the mirror between entry points see exactly the live state.

use autonet_core::{Autopilot, PortState};
use autonet_wire::{PortIndex, MAX_PORTS};

use crate::node::NodeHarness;

/// Struct-of-arrays pool of [`NodeHarness`] slots, indexed by dense
/// node id (the backend's switch index).
#[derive(Clone, Default)]
pub struct HarnessPool {
    /// The harness slots. `None` only while that node's entry point is
    /// running (between [`take`](Self::take) and [`put`](Self::put)).
    slots: Vec<Option<NodeHarness>>,
    /// Per-node dead-port mirror: the packet-level stand-in for the
    /// link unit's `idhy` hook, readable without touching the harness.
    dead: Vec<[bool; MAX_PORTS]>,
}

impl HarnessPool {
    /// An empty pool.
    pub fn new() -> Self {
        HarnessPool::default()
    }

    /// Appends a node; returns its dense id. Ports boot Dead, so the
    /// mirror starts all-condemned.
    pub fn push(&mut self, harness: NodeHarness) -> usize {
        self.slots.push(Some(harness));
        self.dead.push([true; MAX_PORTS]);
        self.slots.len() - 1
    }

    /// Number of nodes in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Removes node `i`'s harness for an entry-point run.
    ///
    /// # Panics
    ///
    /// Panics if the harness is already taken (a re-entered node).
    pub fn take(&mut self, i: usize) -> NodeHarness {
        self.slots[i].take().expect("harness re-entered")
    }

    /// Returns node `i`'s harness after an entry-point run and
    /// refreshes its dead-port mirror from the Autopilot's verdicts
    /// (port states only change inside entry points).
    pub fn put(&mut self, i: usize, harness: NodeHarness) {
        for (port, dead) in self.dead[i].iter_mut().enumerate() {
            *dead = harness.autopilot().port_state(port as PortIndex) == PortState::Dead;
        }
        self.slots[i] = Some(harness);
    }

    /// Replaces node `i` wholesale (a reboot): fresh harness, mirror
    /// back to all-condemned.
    pub fn reset(&mut self, i: usize, harness: NodeHarness) {
        self.slots[i] = Some(harness);
        self.dead[i] = [true; MAX_PORTS];
    }

    /// Node `i`'s harness, for inspection.
    pub fn harness(&self, i: usize) -> &NodeHarness {
        self.slots[i].as_ref().expect("harness in place")
    }

    /// Node `i`'s control program, for inspection.
    pub fn autopilot(&self, i: usize) -> &Autopilot {
        self.harness(i).autopilot()
    }

    /// Node `i`'s control program, mutably (SRP reply draining).
    pub fn autopilot_mut(&mut self, i: usize) -> &mut Autopilot {
        self.slots[i]
            .as_mut()
            .expect("harness in place")
            .autopilot_mut()
    }

    /// The mirrored dead-port verdict for node `i` port `port`.
    pub fn is_dead(&self, i: usize, port: PortIndex) -> bool {
        self.dead[i][port as usize]
    }

    /// Node `i`'s whole dead-port row (for replicas that latch another
    /// shard's verdicts wholesale).
    pub fn dead_row(&self, i: usize) -> &[bool; MAX_PORTS] {
        &self.dead[i]
    }

    /// Writes one mirror entry directly (the environment's
    /// `set_port_dead` hook, fired while the harness is taken out).
    pub fn set_dead(&mut self, i: usize, port: PortIndex, dead: bool) {
        self.dead[i][port as usize] = dead;
    }

    /// Every node's control program, in dense-id order.
    pub fn autopilots(&self) -> impl Iterator<Item = &Autopilot> {
        self.slots
            .iter()
            .map(|s| s.as_ref().expect("harness in place").autopilot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::AutopilotParams;
    use autonet_wire::Uid;

    fn harness(uid: u64) -> NodeHarness {
        NodeHarness::new(Autopilot::new(Uid::new(uid), AutopilotParams::tuned()))
    }

    #[test]
    fn push_take_put_round_trips() {
        let mut pool = HarnessPool::new();
        let a = pool.push(harness(1));
        let b = pool.push(harness(2));
        assert_eq!((a, b), (0, 1));
        assert_eq!(pool.len(), 2);
        let h = pool.take(1);
        assert_eq!(h.autopilot().uid(), Uid::new(2));
        pool.put(1, h);
        assert_eq!(pool.autopilot(1).uid(), Uid::new(2));
        let uids: Vec<Uid> = pool.autopilots().map(|ap| ap.uid()).collect();
        assert_eq!(uids, vec![Uid::new(1), Uid::new(2)]);
    }

    #[test]
    fn mirror_starts_condemned_and_tracks_port_states() {
        let mut pool = HarnessPool::new();
        pool.push(harness(1));
        assert!(pool.is_dead(0, 3));
        pool.set_dead(0, 3, false);
        assert!(!pool.is_dead(0, 3));
        // put() re-derives the mirror from the Autopilot: a fresh one
        // has every port Dead again.
        let h = pool.take(0);
        pool.put(0, h);
        assert!(pool.is_dead(0, 3));
    }

    #[test]
    fn reset_installs_a_fresh_node() {
        let mut pool = HarnessPool::new();
        pool.push(harness(1));
        pool.set_dead(0, 2, false);
        pool.reset(0, harness(9));
        assert_eq!(pool.autopilot(0).uid(), Uid::new(9));
        assert!(pool.is_dead(0, 2));
    }

    #[test]
    #[should_panic(expected = "harness re-entered")]
    fn double_take_panics() {
        let mut pool = HarnessPool::new();
        pool.push(harness(1));
        let _h = pool.take(0);
        pool.take(0);
    }
}

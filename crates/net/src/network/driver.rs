//! The seam between the [`Net`](super::Net) facade and the two event
//! kernels: what differs between them, and nothing else.

use autonet_sim::{ShardedSimulator, SimDuration, SimTime, Simulator};
use autonet_trace::TraceRecord;

use super::events::Event;
use super::partitioned::PartWorld;
use super::NetWorld;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Simulator<super::NetWorld> {}
    impl Sealed for super::ShardedSimulator<super::PartWorld> {}
}

/// An event kernel the facade can run on. Sealed: the two implementations
/// are the classic single-queue [`Simulator`] and the conservative-lookahead
/// [`ShardedSimulator`].
///
/// Nodes are addressed by dense id: switches first, then hosts.
#[doc(hidden)]
pub trait Driver: sealed::Sealed {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Runs for a span of virtual time.
    fn run_for(&mut self, span: SimDuration);
    /// Kernel events processed so far, over all shards.
    fn events_processed(&self) -> u64;
    /// Schedules an event from outside the loop: to the owner of its node,
    /// or — a plant fault — to every world.
    fn schedule(&mut self, at: SimTime, event: Event);
    /// The world authoritative for `node`. Replicated state (topology,
    /// plant flags, the shared route cache) reads the same from any world.
    fn world_of(&self, node: usize) -> &NetWorld;
    /// [`world_of`](Driver::world_of), mutably (between runs only).
    fn world_of_mut(&mut self, node: usize) -> &mut NetWorld;
    /// Every world, for sums over per-world counters.
    fn worlds(&self) -> impl Iterator<Item = &NetWorld>;
    /// Drains the typed event spine in this driver's export order: the
    /// processing order of the one classic world, or the partition-count
    /// independent `(time, node)` merge of the shards' spines.
    fn drain_trace(&mut self) -> Vec<TraceRecord>;
}

impl Driver for Simulator<NetWorld> {
    fn now(&self) -> SimTime {
        Simulator::now(self)
    }

    fn run_for(&mut self, span: SimDuration) {
        Simulator::run_for(self, span);
    }

    fn events_processed(&self) -> u64 {
        Simulator::events_processed(self)
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.schedule_at(at, event);
    }

    fn world_of(&self, _node: usize) -> &NetWorld {
        self.world()
    }

    fn world_of_mut(&mut self, _node: usize) -> &mut NetWorld {
        self.world_mut()
    }

    fn worlds(&self) -> impl Iterator<Item = &NetWorld> {
        std::iter::once(self.world())
    }

    fn drain_trace(&mut self) -> Vec<TraceRecord> {
        self.world_mut().trace.drain()
    }
}

impl Driver for ShardedSimulator<PartWorld> {
    fn now(&self) -> SimTime {
        ShardedSimulator::now(self)
    }

    fn run_for(&mut self, span: SimDuration) {
        ShardedSimulator::run_for(self, span);
    }

    fn events_processed(&self) -> u64 {
        ShardedSimulator::events_processed(self)
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        if event.is_plant_fault() {
            // One shared stamp, so every shard applies the flip at the
            // same point of its local event order.
            self.schedule_external_all(at, || event.clone());
        } else {
            self.schedule_external(at, event);
        }
    }

    fn world_of(&self, node: usize) -> &NetWorld {
        &self.world(self.owner_of(node)).net
    }

    fn world_of_mut(&mut self, node: usize) -> &mut NetWorld {
        let shard = self.owner_of(node);
        &mut self.world_mut(shard).net
    }

    fn worlds(&self) -> impl Iterator<Item = &NetWorld> {
        (0..self.num_shards()).map(|k| &self.world(k).net)
    }

    fn drain_trace(&mut self) -> Vec<TraceRecord> {
        let drained = (0..self.num_shards()).flat_map(|k| self.world_mut(k).net.trace.drain());
        let all: Vec<_> = drained.collect();
        autonet_trace::merge_sorted(&all)
    }
}

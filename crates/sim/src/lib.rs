//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the substrate on which every Autonet experiment runs:
//! a virtual clock ([`SimTime`]), a deterministic event queue
//! ([`KeyedHeap`]: compact `(time, key, slot)` entries in a binary heap over
//! a payload slab, under both driver loops), the classic driver loop
//! ([`Simulator`]) and the sharded one ([`ShardedSimulator`]), and a seeded
//! platform-independent random number generator ([`SimRng`]).
//! [`EventQueue`], a plain binary heap of whole entries, is not the
//! kernel's queue: it is the pop-order oracle the kernel's queue is tested
//! against (and a name the frozen `benchmark/` crate imports). The kernel
//! keeps no event log: the one trace log is the typed spine of
//! `autonet-trace`.
//!
//! Determinism is the design center. Two events scheduled for the same
//! instant are delivered in the order they were scheduled (a monotonic
//! sequence number breaks ties), and all randomness flows from [`SimRng`],
//! which is a self-contained xoshiro256++ implementation so results do not
//! depend on the platform or on any external crate's algorithm choices.
//!
//! # Examples
//!
//! ```
//! use autonet_sim::{Scheduler, SimDuration, SimTime, Simulator, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl World for Counter {
//!     type Event = &'static str;
//!
//!     fn handle(&mut self, _now: SimTime, ev: &'static str, sched: &mut Scheduler<'_, Self::Event>) {
//!         self.fired += 1;
//!         if ev == "again" && self.fired < 3 {
//!             sched.after(SimDuration::from_millis(1), "again");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Counter { fired: 0 });
//! sim.schedule_after(SimDuration::ZERO, "again");
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! ```

mod calendar;
mod engine;
mod queue;
mod rng;
mod shard;
mod time;

pub use calendar::{CalendarQueue, KeyedHeap};
pub use engine::{Scheduler, Simulator, World};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use shard::{bucket_quantile, nearest_rank, ShardTelemetry, ShardWorld, ShardedSimulator};
pub use time::{SimDuration, SimTime};

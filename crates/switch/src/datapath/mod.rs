//! Slot-accurate datapath simulation.
//!
//! This module simulates Autonet's data plane at the granularity of one
//! 80 ns byte slot: TAXI symbol streams on every channel, receive FIFOs,
//! the start/stop flow-control loop with its 256-slot multiplexing cadence,
//! cut-through forwarding, the router's 480 ns decision rate, crossbar
//! fan-out for broadcast, and the broadcast ignore-stop rule. It exists to
//! reproduce the paper's hardware-level results:
//!
//! - FIFO sizing: max occupancy vs the law `N ≥ (S − 1 + 128.2·L)/f` (§6.2);
//! - the broadcast deadlock of Figure 9 and its fix (§6.6.6);
//! - best-case switch transit latency of 26–32 slots (§5.1);
//! - FCFC vs FCFS scheduling behaviour (§6.4);
//! - deadlock when routes violate up\*/down\* vs none when they obey it.
//!
//! The model is a synchronous simulation: every tick is one slot, all links
//! share the slot clock and the flow-control phase (real links have
//! unsynchronized phases; alignment only removes ±256-slot jitter and is
//! noted in DESIGN.md). Within a tick, reception happens before routing,
//! which happens before transmission, so a symbol takes at least one tick
//! per stage.

mod sim;

pub use sim::DatapathSim;

use autonet_wire::{PortIndex, ShortAddress};

/// Configuration of the datapath model; defaults are the production values
/// from the paper.
#[derive(Clone, Copy, Debug)]
pub struct DatapathConfig {
    /// Receive FIFO capacity in 9-bit entries (paper: 4096).
    pub fifo_capacity: usize,
    /// Free fraction `f` at which `stop` is issued (paper: 0.5 — stop when
    /// more than half full).
    pub fifo_free_fraction: f64,
    /// Whether transmitters of broadcast packets ignore `stop` until end of
    /// packet — the broadcast-deadlock fix of §6.6.6. Disable to reproduce
    /// the deadlock.
    pub broadcast_ignores_stop: bool,
    /// Use the strict FCFS scheduler instead of FCFC (ablation).
    pub use_fcfs_scheduler: bool,
    /// When set, a crossbar connection that makes no progress for this
    /// many slots is aborted by the control software (an `end` terminates
    /// the truncated frame and the rest of the packet is discarded). This
    /// models Autopilot's "switch software detects and clears the backups"
    /// (§6.2); leave `None` to observe raw-hardware deadlocks.
    pub stall_abort_slots: Option<u64>,
}

impl Default for DatapathConfig {
    fn default() -> Self {
        DatapathConfig {
            fifo_capacity: 4096,
            fifo_free_fraction: 0.5,
            broadcast_ignores_stop: true,
            use_fcfs_scheduler: false,
            stall_abort_slots: None,
        }
    }
}

/// A switch in the datapath simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DpSwitchId(pub usize);

/// A traffic endpoint (host controller) in the datapath simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DpHostId(pub usize);

/// Identifier of an injected packet, for matching deliveries to sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketTag(pub u32);

/// A delivered packet record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The tag assigned at injection.
    pub tag: PacketTag,
    /// The receiving host.
    pub host: DpHostId,
    /// The tick (slot number) at which the packet-end arrived.
    pub tick: u64,
    /// Number of data bytes received.
    pub len: usize,
    /// The receive port of the *last* switch the packet crossed — for a
    /// control-processor endpoint this is "the port on which the packet
    /// arrived" that the hardware reports to the processor (§6.3).
    pub arrival_port: PortIndex,
    /// The packet bytes, when the receiving endpoint records payloads
    /// (control-processor endpoints always do).
    pub payload: Option<Vec<u8>>,
}

/// A record of one packet transiting one switch, for latency measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transit {
    /// The packet.
    pub tag: PacketTag,
    /// The switch it crossed.
    pub switch: DpSwitchId,
    /// Tick at which the packet's first symbol arrived at the receive port.
    pub in_tick: u64,
    /// Tick at which the first symbol was transmitted on an output port.
    pub out_tick: u64,
}

/// A record of one router-scheduling interaction, for the scheduler
/// experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulingRecord {
    /// The switch whose router served the request.
    pub switch: DpSwitchId,
    /// The receive port that requested service.
    pub in_port: PortIndex,
    /// Whether it was a broadcast (simultaneous-ports) request.
    pub broadcast: bool,
    /// Tick the request entered the router queue.
    pub submit_tick: u64,
    /// Tick the request was granted.
    pub grant_tick: u64,
}

/// Aggregate counters maintained by the simulation.
#[derive(Clone, Debug, Default)]
pub struct DatapathStats {
    /// Packets fully delivered to hosts (one count per destination for
    /// broadcast).
    pub delivered: u64,
    /// Packets discarded by forwarding tables.
    pub discarded: u64,
    /// FIFO overflow events (a hardware fault in the real system).
    pub fifo_overflows: u64,
    /// Ticks during which at least one data entry moved.
    pub productive_ticks: u64,
}

/// What a packet injection looks like to the simulation.
#[derive(Clone, Debug)]
pub(crate) struct PendingSend {
    pub tag: PacketTag,
    pub dst: ShortAddress,
    pub len: usize,
    pub broadcast: bool,
    /// Explicit wire bytes (the first two must be the destination short
    /// address); `None` generates filler.
    pub raw: Option<Vec<u8>>,
}

/// Outcome of running the simulation with a progress watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every injected packet was delivered or discarded.
    Drained,
    /// No data moved for the watchdog period while packets were still in
    /// flight — the network is deadlocked (or fully stalled upstream).
    Deadlocked,
    /// The tick budget ran out with packets still moving.
    Budget,
}

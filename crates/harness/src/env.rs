//! The substrate contract an Autopilot runs over.

use autonet_core::{ControlMsg, Epoch, Event};
use autonet_sim::SimTime;
use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_wire::PortIndex;

/// What a backend must provide to host one Autopilot.
///
/// An implementation is the glue between the pure control program and one
/// switch's worth of substrate — simulated links and hardware here, real
/// link units on a real control processor in principle. Implementations
/// are typically short-lived borrow views constructed per event (see
/// `autonet-net`), so every method takes `&mut self`.
///
/// The harness guarantees it only calls these methods from inside a
/// [`NodeHarness`](crate::NodeHarness) entry point, with `now` equal to
/// the time passed to that entry point.
pub trait Environment {
    /// Transmits a control message out of `port` (already typed and
    /// one-hop addressed by [`control_packet`](crate::control_packet) if
    /// the substrate wants wire bytes).
    fn send(&mut self, now: SimTime, port: PortIndex, msg: &ControlMsg);

    /// Loads a complete forwarding table into the switch hardware.
    fn load_table(&mut self, now: SimTime, table: ForwardingTable);

    /// Reads one port's latched hardware status bits, or `None` for ports
    /// the sampler must skip (e.g. the control-processor loopback).
    fn read_status(&mut self, now: SimTime, port: PortIndex) -> Option<LinkUnitStatus>;

    /// Tells the substrate whether a port is condemned, so its link unit
    /// sends `idhy` in place of flow control (and the far end can learn
    /// the link is out of service). Called after every status sample with
    /// the port's current verdict; backends with no such hardware hook
    /// keep the default no-op.
    fn set_port_dead(&mut self, _port: PortIndex, _dead: bool) {}

    /// Host traffic re-enabled: a reconfiguration completed at `epoch`.
    fn network_opened(&mut self, _now: SimTime, _epoch: Epoch) {}

    /// Host traffic stopped: a reconfiguration began.
    fn network_closed(&mut self, _now: SimTime) {}

    /// One chance per status-sampling round to sample data-plane
    /// telemetry (queue depths, stall time, link utilization) on the
    /// harness cadence. Called at the end of every sampling round with
    /// `is_root` reflecting whether this node's Autopilot currently
    /// believes itself the root of the agreed topology — the node whose
    /// links the up\*/down\* routes concentrate on (the E5 root-hotspot
    /// effect). Backends without datapath telemetry keep the default
    /// no-op.
    fn sample_datapath(&mut self, _now: SimTime, _is_root: bool) {}

    /// One typed event this node's Autopilot produced, handed over by
    /// value with the other actions of the entry point that produced it
    /// (never when tracing is off). Backends that maintain a network-wide
    /// event spine (see `autonet-trace`) move it there with the node
    /// attributed; the default drops it.
    fn trace(&mut self, _time: SimTime, _event: Event) {}
}

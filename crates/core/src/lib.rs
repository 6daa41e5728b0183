//! Autopilot: Autonet's automatic reconfiguration control plane.
//!
//! This crate is the reproduction of the SOSP '91 paper's contribution —
//! the distributed system that lets an arbitrary mesh of switches configure
//! itself, detect faults and repairs, and recompute deadlock-free routes,
//! with prompt termination detection so the network reopens quickly:
//!
//! - [`PortState`] and the monitoring tower: hardware status bits feed the
//!   status sampler, which classifies ports; the [`ConnectivityMonitor`]
//!   verifies switch neighbors by packet exchange; two [`Skeptic`]s add the
//!   hysteresis that keeps flapping links from thrashing the network.
//! - [`Epoch`]-tagged reconfiguration: any change to the set of usable
//!   switch-to-switch links starts a higher epoch; all switches converge on
//!   the highest.
//! - The distributed spanning tree with termination detection
//!   ([`TreePosition`], the reconfiguration engine): Perlman's algorithm
//!   extended with the stability protocol of Rodeheffer and Lamport, so the
//!   root learns promptly and provably when the tree is complete.
//! - Topology accumulation up the tree, short-address assignment at the
//!   root ([`assign_switch_numbers`]), distribution down the tree, and
//!   local computation of up\*/down\* minimal multipath routes
//!   ([`compute_forwarding_table`], [`RouteComputer`]).
//! - [`Autopilot`]: the per-switch control program tying it all together as
//!   a run-to-completion state machine (`on_packet` / `on_status_sample` /
//!   `on_tick`) that reaches its switch through one trait, [`Environment`]
//!   — directly testable without a simulator and bindable to any
//!   transport. Each backend keeps its own tick and sample cadence and
//!   calls `on_tick` and [`Autopilot::sample_ports`] when they fall due.
//! - Baselines for the experiments: timeout-based termination
//!   ([`TerminationMode::RootQuiescence`]) and a model of unrestricted
//!   shortest-path routing
//!   ([`RouteComputer::unrestricted_dependency_cycle`]).

mod addressing;
mod autopilot;
mod connectivity;
pub mod dataplane;
mod env;
mod epoch;
pub mod events;
mod messages;
mod params;
mod port_state;
mod reconfig;
mod route_cache;
mod routes;
mod sampler;
mod skeptic;
mod topology;
mod tree;

pub use addressing::assign_switch_numbers;
pub use autopilot::Autopilot;
pub use connectivity::{ConnectivityEvent, ConnectivityMonitor, NeighborId};
pub use dataplane::{ProbeOutcome, ProbeRecord};
pub use env::Environment;
pub use epoch::Epoch;
pub use events::{Event, ReconfigCause, SkepticKind, SkepticVerdict, TransitionCause};
pub use messages::{ControlMsg, MsgCodecError, SrpPayload};
pub use params::{AutopilotParams, TerminationMode};
pub use port_state::PortState;
pub use reconfig::{MsgDisposition, NeighborInfo};
pub use route_cache::{RouteCache, RouteCacheStats};
pub use routes::{
    compute_forwarding_table, global_from_component, global_from_view, global_from_view_simple,
    RouteComputer, RouteKind, RoutingStats,
};
pub use skeptic::Skeptic;
pub use topology::{GlobalTopology, LinkInfo, SubtreeReport, SwitchInfo};
pub use tree::TreePosition;

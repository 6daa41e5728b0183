//! Topology construction and analysis for the Autonet reproduction.
//!
//! An Autonet is "switches interconnected by point-to-point links in an
//! arbitrary topology" (companion paper §3.2). This crate provides:
//!
//! - [`Topology`]: the static physical description — switches with 48-bit
//!   UIDs and 13 ports each, switch-to-switch links, and dual-homed hosts;
//! - generators for the families used in the experiments ([`gen`]): lines,
//!   rings, stars, trees, tori (including the SRC 30-switch service
//!   network), hypercubes, and random connected graphs;
//! - graph analysis over a live view of the network ([`NetView`]): BFS
//!   distances, diameter, connected components;
//! - the deadlock checker ([`deadlock`]): finds cycles in a
//!   channel-dependency graph, the formal criterion for wormhole/cut-through
//!   deadlock possibility.

pub mod deadlock;
pub mod gen;

mod analysis;
mod graph;

pub use analysis::{bfs_distances, connected_components, diameter, is_connected};
pub use graph::{
    HostAttachment, HostId, HostSpec, LinkEnd, LinkId, LinkSpec, NetView, PortUse, SwitchId,
    SwitchSpec, Topology, TopologyError,
};

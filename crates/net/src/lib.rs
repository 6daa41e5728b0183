//! The integrated Autonet network simulator.
//!
//! This crate assembles everything below it into a running network:
//! switches (an [`autonet_core::Autopilot`] each, plus the forwarding-table
//! "hardware"), dual-homed hosts ([`autonet_host::HostController`]), and
//! point-to-point links with bandwidth and propagation delay, all driven by
//! the deterministic event loop of [`autonet_sim`]. On top it provides what
//! the experiments need:
//!
//! - construction from any [`autonet_topo::Topology`] ([`Network`]);
//! - a control-processor cost model ([`CpuModel`]) whose presets reproduce
//!   the naive → optimized → tuned performance progression of §6.6.5;
//! - hardware status synthesis: each switch's Autopilot sees exactly the
//!   status-bit fingerprints the paper describes (clean switch links, host
//!   directives, the alternate-host BadSyntax signature, `idhy` from
//!   condemned ports, code violations on broken cables, and reflection on
//!   uncabled ports);
//! - fault injection: link and switch failures/repairs and flapping links,
//!   scheduled in virtual time ([`Network::schedule_link_down`] et al.);
//! - host data traffic with delivery records, plus workload generators
//!   ([`workload`]);
//! - service-interruption probe flows ([`Network::start_probes`],
//!   [`SlotNet::start_probes`]) and per-port datapath telemetry
//!   ([`DatapathTelemetry`]), both off by default and allocation-free
//!   when off;
//! - convergence/consistency checks and reconfiguration-time measurement
//!   ([`Network::run_until_stable`], [`Network::check_against_reference`]);
//! - the FDDI-style token-ring baseline for the aggregate-bandwidth
//!   comparison ([`TokenRing`]).

mod network;
mod params;
mod ring;
mod slotnet;
mod telemetry;
pub mod workload;

pub use autonet_core::{ProbeOutcome, ProbeRecord};
#[doc(hidden)]
pub use network::Driver;
pub use network::{
    DeliveryRecord, Net, NetEvent, NetEventKind, NetStats, Network, PartitionedNetwork,
};
pub use params::{CpuModel, NetParams};
pub use ring::{RingStats, TokenRing};
pub use slotnet::SlotNet;
pub use telemetry::DatapathTelemetry;

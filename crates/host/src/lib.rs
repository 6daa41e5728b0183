//! Host-side Autonet software: controller, LocalNet, and bridging.
//!
//! This crate reproduces the Firefly host stack of companion paper §5.6 and
//! §6.8:
//!
//! - [`HostController`]: the dual-ported controller and its driver — active
//!   /alternate port management, liveness checks against the local switch,
//!   failover after three seconds of silence, alternation every ten seconds
//!   while disconnected (§6.8.3), and bounded transmit buffering (hosts may
//!   not send `stop`; they discard);
//! - [`LocalNet`]: the generic UID-addressed LAN layer with the
//!   short-address learning algorithm of §6.8.1 — learn from every arriving
//!   packet's source fields, ARP on staleness, fall back to broadcast,
//!   answer misdirected broadcasts, advertise on address change;
//! - [`EthernetSegment`]: a simple shared-bus 10 Mbit/s Ethernet model, the
//!   substrate for bridging experiments;
//! - [`Bridge`]: the Autonet-to-Ethernet bridge of §6.8.2 with the
//!   Firefly-calibrated CPU/bus cost model (CPU-bound on small packets,
//!   I/O-bus-bound on large ones).

mod bridge;
mod controller;
mod ethernet;
mod frame;
mod localnet;

pub use bridge::{Bridge, BridgeStats, BridgeVerdict, Side};
pub use controller::{HostAction, HostController, HostParams, HostStats};
pub use ethernet::EthernetSegment;
pub use frame::{EthFrame, FrameError, ARP_ETHERTYPE, BROADCAST_UID, IP_ETHERTYPE};
pub use localnet::{LocalNet, LocalNetStats};

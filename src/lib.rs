//! # Autonet: automatic reconfiguration, reproduced
//!
//! A from-scratch Rust reproduction of **"Automatic Reconfiguration in
//! Autonet"** (Rodeheffer & Schroeder, SOSP '91) and the Autonet system it
//! runs in (Schroeder et al., SRC-59 / IEEE JSAC '91): a self-configuring
//! switched LAN of 100 Mbit/s point-to-point links, with distributed
//! spanning-tree formation with *prompt termination detection*,
//! deadlock-free **up\*/down\*** routing, port-state monitoring with
//! skeptic hysteresis, epoch-serialized reconfiguration, dual-homed host
//! failover, and learned short addresses.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `autonet-sim` | deterministic discrete-event kernel |
//! | [`wire`] | `autonet-wire` | symbols, framing, CRC, addresses, FIFOs |
//! | [`topo`] | `autonet-topo` | topology generators + graph/deadlock analysis |
//! | [`switch`] | `autonet-switch` | switch hardware model + slot-level datapath |
//! | [`autopilot`] | `autonet-core` | **the paper's contribution**: the control plane |
//! | [`host`] | `autonet-host` | dual-port controller, LocalNet, bridge |
//! | [`net`] | `autonet-net` | integrated network simulator + workloads |
//! | [`trace`] | `autonet-trace` | typed event spine, metrics, timelines, JSONL |
//!
//! [`scenarios`] holds the named fault scenarios the golden traces pin.
//!
//! # Examples
//!
//! Build a network, let it configure itself, break it, watch it heal:
//!
//! ```
//! use autonet::net::{NetParams, Network};
//! use autonet::sim::{SimDuration, SimTime};
//! use autonet::topo::{gen, LinkId, SwitchId};
//!
//! // A 4x4 torus of switches, seeded UIDs.
//! let topo = gen::torus(4, 4, 7);
//! let mut net = Network::new(topo, NetParams::tuned(), 1);
//!
//! // The switches discover each other and configure the network.
//! let t = net.run_until_stable(SimTime::from_secs(30)).expect("converges");
//! assert!(net.autopilot(SwitchId(0)).is_open());
//!
//! // Cut a cable: the network reconfigures around it.
//! net.schedule_link_down(net.now() + SimDuration::from_millis(1), LinkId(0));
//! net.run_for(SimDuration::from_millis(10));
//! let healed = net
//!     .run_until_stable(net.now() + SimDuration::from_secs(30))
//!     .expect("reconfigures");
//! assert!(healed > t);
//! net.check_against_reference().unwrap();
//! ```

pub use autonet_core as autopilot;
pub use autonet_host as host;
pub use autonet_net as net;
pub use autonet_sim as sim;
pub use autonet_switch as switch;
pub use autonet_topo as topo;
pub use autonet_trace as trace;
pub use autonet_wire as wire;

pub mod scenarios;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use autonet_core::{
        Autopilot, AutopilotParams, ControlMsg, Epoch, PortState, RouteKind, TerminationMode,
    };
    pub use autonet_host::{EthFrame, HostController, HostParams, LocalNet};
    pub use autonet_net::{workload, NetParams, Network, PartitionedNetwork, TokenRing};
    pub use autonet_sim::{SimDuration, SimRng, SimTime};
    pub use autonet_switch::{ForwardingTable, PortSet};
    pub use autonet_topo::{gen, HostId, LinkId, SwitchId, Topology};
    pub use autonet_wire::{Packet, ShortAddress, Uid};
}

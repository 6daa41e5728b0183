//! The Autonet switch hardware model.
//!
//! This crate reproduces the switch described in companion paper §5.1 and
//! §6.3–6.4:
//!
//! - [`PortSet`]: the 13-bit port vectors used throughout the router;
//! - [`ForwardingTable`]: indexed by (receiving port, destination short
//!   address), each entry a port vector plus broadcast flag;
//! - [`LinkUnitStatus`]: the hardware status bits the control processor
//!   polls (`BadCode`, `BadSyntax`, `ProgressSeen`, `StartSeen`, ...);
//! - [`FcfcScheduler`]: the first-come, first-considered output-port
//!   scheduling engine (one decision per 480 ns, queue jumping for
//!   alternative-port requests, sticky port accumulation for broadcasts),
//!   plus the strict-FIFO [`FcfsScheduler`] baseline used in the ablation;
//! - [`datapath`]: a slot-accurate (80 ns) simulation of switches, links and
//!   traffic endpoints — cut-through forwarding, receive FIFOs, the
//!   start/stop flow-control loop, and the broadcast ignore-stop rule —
//!   used by the flow-control, deadlock, latency and scheduler experiments.

pub mod datapath;

mod forwarding;
mod portset;
mod scheduler;
mod status;

pub use forwarding::{ForwardingEntry, ForwardingTable};
pub use portset::PortSet;
pub use scheduler::{FcfcScheduler, FcfsScheduler, Grant, Request, Scheduler};
pub use status::LinkUnitStatus;

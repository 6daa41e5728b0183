//! The seam: what an Autopilot asks of the switch it runs on.

use autonet_switch::{ForwardingTable, LinkUnitStatus};
use autonet_wire::PortIndex;

use crate::events::Event;
use crate::messages::ControlMsg;

/// What a backend must provide to host one [`Autopilot`](crate::Autopilot).
///
/// An implementation is the glue between the control program and one
/// switch's worth of substrate — simulated links and hardware here, real
/// link units on a real control processor in principle. The Autopilot's
/// entry points call it directly, in the order things happen; no call
/// feeds back into the Autopilot within an entry point. Implementations
/// are short-lived borrow views built per event (see `autonet-net`), so
/// every method takes `&mut self`, and the view knows what time it is:
/// the time of the entry point it was built for.
pub trait Environment {
    /// Transmits a control message out of `port`.
    fn send(&mut self, port: PortIndex, msg: &ControlMsg);

    /// Loads a complete forwarding table into the switch hardware.
    fn load_table(&mut self, table: ForwardingTable);

    /// Reads one external port's (1 and up) latched hardware status bits.
    fn read_status(&mut self, port: PortIndex) -> LinkUnitStatus;

    /// Tells the substrate whether a port is condemned, so its link unit
    /// sends `idhy` in place of flow control (and the far end can learn
    /// the link is out of service). Called after every status sample with
    /// the port's current verdict; backends with no such hardware hook
    /// keep the default no-op.
    fn set_port_dead(&mut self, _port: PortIndex, _dead: bool) {}

    /// Host traffic re-enabled: a reconfiguration completed.
    fn network_opened(&mut self) {}

    /// Host traffic stopped: a reconfiguration began.
    fn network_closed(&mut self) {}

    /// One typed event the Autopilot produced, handed over by value as it
    /// happens (never when tracing is off). Backends that maintain a
    /// network-wide event spine (see `autonet-trace`) move it there with
    /// the node and time attributed; the default drops it.
    fn trace(&mut self, _event: Event) {}
}

/// The recording double: every call, in the order it was made.
#[cfg(test)]
pub(crate) mod recording {
    use super::*;

    /// One [`Environment`] call.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Call {
        Send(PortIndex, ControlMsg),
        LoadTable(ForwardingTable),
        SetPortDead(PortIndex, bool),
        NetworkOpened,
        NetworkClosed,
        Trace(Event),
    }

    /// Records every call; port `p` reads as `status[p]`, silent where
    /// that is missing.
    #[derive(Default)]
    pub(crate) struct Recorder {
        pub(crate) calls: Vec<Call>,
        pub(crate) status: Vec<LinkUnitStatus>,
    }

    impl Recorder {
        /// The messages sent out of `port`, in order.
        pub(crate) fn sent_on(&self, port: PortIndex) -> Vec<&ControlMsg> {
            self.calls
                .iter()
                .filter_map(|c| match c {
                    Call::Send(p, msg) if *p == port => Some(msg),
                    _ => None,
                })
                .collect()
        }

        /// The traced events, in order.
        pub(crate) fn traced(&self) -> Vec<&Event> {
            self.calls
                .iter()
                .filter_map(|c| match c {
                    Call::Trace(e) => Some(e),
                    _ => None,
                })
                .collect()
        }

        /// How many calls satisfy `pred`.
        pub(crate) fn count(&self, pred: impl Fn(&Call) -> bool) -> usize {
            self.calls.iter().filter(|c| pred(c)).count()
        }
    }

    impl Environment for Recorder {
        fn send(&mut self, port: PortIndex, msg: &ControlMsg) {
            self.calls.push(Call::Send(port, msg.clone()));
        }

        fn load_table(&mut self, table: ForwardingTable) {
            self.calls.push(Call::LoadTable(table));
        }

        fn read_status(&mut self, port: PortIndex) -> LinkUnitStatus {
            let status = self.status.get(port as usize).copied();
            status.unwrap_or_else(LinkUnitStatus::new)
        }

        fn set_port_dead(&mut self, port: PortIndex, dead: bool) {
            self.calls.push(Call::SetPortDead(port, dead));
        }

        fn network_opened(&mut self) {
            self.calls.push(Call::NetworkOpened);
        }

        fn network_closed(&mut self) {
            self.calls.push(Call::NetworkClosed);
        }

        fn trace(&mut self, event: Event) {
            self.calls.push(Call::Trace(event));
        }
    }
}

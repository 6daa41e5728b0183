//! The symbol alphabet on an Autonet link.
//!
//! A TAXI transmitter/receiver pair carries a continuous sequence of slots,
//! each holding one of 256 data byte values or one of 16 command values
//! (companion paper §6.1). Commands provide packet framing (`begin`/`end`)
//! and flow control (`start`/`stop`/`host`/`idhy`/`panic`); `sync` fills
//! empty slots. Every [`FLOW_CONTROL_INTERVAL`]-th slot is a flow-control
//! slot; the rest are data slots.

/// Every 256th slot on a channel carries a flow-control directive (the
/// paper's parameter `S`).
pub const FLOW_CONTROL_INTERVAL: u64 = 256;

/// A command value, distinct from all 256 data byte values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// Filler to maintain transmitter/receiver synchronization.
    Sync,
    /// Marks the first byte of a packet.
    Begin,
    /// Marks the end of a packet.
    End,
    /// Flow control: the receiver's FIFO has room; transmission may proceed.
    Start,
    /// Flow control: the receiver's FIFO is more than half full; stop.
    Stop,
    /// Flow control sent by host controllers instead of `start`, so a switch
    /// can tell a host link from a switch link.
    Host,
    /// "I don't hear you": sent on a switch-to-switch link when one end
    /// declares the link defective, so the other end does too.
    Idhy,
    /// Forces the remote link unit to reset (described but not implemented
    /// in the real system; modeled here for completeness).
    Panic,
}

impl Command {
    /// Returns `true` for the directives that occupy flow-control slots.
    pub fn is_flow_control(self) -> bool {
        matches!(
            self,
            Command::Start | Command::Stop | Command::Host | Command::Idhy | Command::Panic
        )
    }
}

/// One slot on a link: a data byte or a command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// A packet payload byte.
    Data(u8),
    /// A command value.
    Command(Command),
}

impl Symbol {
    /// The idle symbol.
    pub const SYNC: Symbol = Symbol::Command(Command::Sync);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_classification() {
        assert!(Command::Start.is_flow_control());
        assert!(Command::Stop.is_flow_control());
        assert!(Command::Host.is_flow_control());
        assert!(Command::Idhy.is_flow_control());
        assert!(!Command::Sync.is_flow_control());
        assert!(!Command::Begin.is_flow_control());
    }
}

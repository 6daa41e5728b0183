//! Short addresses and their reserved-value layout.
//!
//! Autonet packets are routed on a *short address* in the first two bytes of
//! the packet (companion paper §6.3). The prototype interpreted 11 bits; the
//! paper notes that widening to 16 bits is a straightforward design change,
//! and this reproduction models the 16-bit variant so the paper's published
//! hexadecimal layout can be used verbatim:
//!
//! | Short address | Packet destination |
//! |---------------|--------------------|
//! | `0000`        | from a host: the control processor of the local switch |
//! | `0001`–`000F` | from a switch: the one-hop neighbor on that port |
//! | `0010`–`FFEF` | a particular host or switch control processor |
//! | `FFF0`–`FFFB` | reserved; packets discarded |
//! | `FFFC`        | from a host: loopback from the local switch |
//! | `FFFD`        | every switch and every host |
//! | `FFFE`        | every switch |
//! | `FFFF`        | every host |
//!
//! An assignable address packs a 12-bit switch number (1..=4094) with a
//! 4-bit port number, so switch 1 port 0 is `0010` and switch 4094 port 15
//! is `FFEF` — exactly the paper's assignable range.

use std::fmt;

/// A port number on a switch (0 = the control-processor port).
pub type PortIndex = u8;

/// A switch number assigned by the root during reconfiguration.
pub type SwitchNumber = u16;

/// The number of ports on a switch, including port 0 (the control
/// processor). Twelve external ports plus the internal port.
pub const MAX_PORTS: usize = 13;

/// The largest assignable switch number (`0xFFE`, so that the top port of
/// the top switch lands on `0xFFEF`).
pub const MAX_SWITCH_NUMBER: SwitchNumber = 0xFFE;

/// A 16-bit Autonet short address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShortAddress(u16);

impl ShortAddress {
    /// From a host: addresses the control processor of the local switch.
    pub const TO_LOCAL_SWITCH: ShortAddress = ShortAddress(0x0000);

    /// First address of the assignable range.
    pub const FIRST_ASSIGNABLE: ShortAddress = ShortAddress(0x0010);

    /// Last address of the assignable range.
    pub const LAST_ASSIGNABLE: ShortAddress = ShortAddress(0xFFEF);

    /// From a host: the local switch reflects the packet back down the link.
    pub const LOOPBACK: ShortAddress = ShortAddress(0xFFFC);

    /// Broadcast to every switch and every host.
    pub const BROADCAST_ALL: ShortAddress = ShortAddress(0xFFFD);

    /// Broadcast to every switch control processor.
    pub const BROADCAST_SWITCHES: ShortAddress = ShortAddress(0xFFFE);

    /// Broadcast to every host.
    pub const BROADCAST_HOSTS: ShortAddress = ShortAddress(0xFFFF);

    /// Creates a short address from its raw 16-bit value.
    pub const fn from_raw(raw: u16) -> Self {
        ShortAddress(raw)
    }

    /// Returns the raw 16-bit value.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Creates the one-hop address for external switch port `port`
    /// (`0001`–`000F`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= port <= 15`; port 0 is the control processor and
    /// has no one-hop address.
    pub fn one_hop(port: PortIndex) -> Self {
        assert!(
            (1..=15).contains(&port),
            "one-hop port out of range: {port}"
        );
        ShortAddress(port as u16)
    }

    /// Creates the assigned address of `port` on switch number `switch`.
    ///
    /// # Panics
    ///
    /// Panics if `switch` is 0 or exceeds [`MAX_SWITCH_NUMBER`], or if
    /// `port >= 16`.
    pub fn assigned(switch: SwitchNumber, port: PortIndex) -> Self {
        assert!(
            (1..=MAX_SWITCH_NUMBER).contains(&switch),
            "switch number out of range: {switch}"
        );
        assert!(port < 16, "port out of range: {port}");
        ShortAddress((switch << 4) | port as u16)
    }

    /// Returns `(switch number, port)` if this is an assignable address.
    pub fn split_assigned(self) -> Option<(SwitchNumber, PortIndex)> {
        if self.is_assigned() {
            Some((self.0 >> 4, (self.0 & 0xF) as PortIndex))
        } else {
            None
        }
    }

    /// Returns `true` if this address is in the assignable range.
    pub fn is_assigned(self) -> bool {
        self >= Self::FIRST_ASSIGNABLE && self <= Self::LAST_ASSIGNABLE
    }

    /// Returns `true` for the three broadcast addresses.
    pub fn is_broadcast(self) -> bool {
        matches!(
            self,
            Self::BROADCAST_ALL | Self::BROADCAST_SWITCHES | Self::BROADCAST_HOSTS
        )
    }

    /// Encodes the address as 2 big-endian bytes (wire format).
    pub fn to_bytes(self) -> [u8; 2] {
        self.0.to_be_bytes()
    }

    /// Decodes an address from 2 big-endian bytes.
    pub fn from_bytes(bytes: [u8; 2]) -> Self {
        ShortAddress(u16::from_be_bytes(bytes))
    }
}

impl fmt::Debug for ShortAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sa({:04x})", self.0)
    }
}

impl fmt::Display for ShortAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::TO_LOCAL_SWITCH => f.write_str("local-switch"),
            Self::LOOPBACK => f.write_str("loopback"),
            Self::BROADCAST_ALL => f.write_str("bcast-all"),
            Self::BROADCAST_SWITCHES => f.write_str("bcast-switches"),
            Self::BROADCAST_HOSTS => f.write_str("bcast-hosts"),
            _ => match self.split_assigned() {
                Some((sw, port)) => write!(f, "sw{sw}.p{port}"),
                None => write!(f, "{:04x}", self.0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigned_range_matches_paper_layout() {
        assert_eq!(ShortAddress::assigned(1, 0).as_u16(), 0x0010);
        assert_eq!(
            ShortAddress::assigned(MAX_SWITCH_NUMBER, 15).as_u16(),
            0xFFEF
        );
    }

    #[test]
    fn split_roundtrips() {
        for switch in [1u16, 2, 100, MAX_SWITCH_NUMBER] {
            for port in [0u8, 1, 12, 15] {
                let addr = ShortAddress::assigned(switch, port);
                assert_eq!(addr.split_assigned(), Some((switch, port)));
                assert!(addr.is_assigned());
            }
        }
    }

    #[test]
    fn special_values_are_not_assigned() {
        for addr in [
            ShortAddress::TO_LOCAL_SWITCH,
            ShortAddress::LOOPBACK,
            ShortAddress::BROADCAST_ALL,
            ShortAddress::BROADCAST_SWITCHES,
            ShortAddress::BROADCAST_HOSTS,
            ShortAddress::one_hop(5),
            ShortAddress::from_raw(0xFFF3),
        ] {
            assert!(!addr.is_assigned(), "{addr:?} must not be assignable");
            assert_eq!(addr.split_assigned(), None);
        }
    }

    #[test]
    fn broadcast_classification() {
        assert!(ShortAddress::BROADCAST_ALL.is_broadcast());
        assert!(ShortAddress::BROADCAST_SWITCHES.is_broadcast());
        assert!(ShortAddress::BROADCAST_HOSTS.is_broadcast());
        assert!(!ShortAddress::LOOPBACK.is_broadcast());
        assert!(!ShortAddress::assigned(3, 2).is_broadcast());
    }

    #[test]
    fn one_hop_addresses() {
        assert_eq!(ShortAddress::one_hop(1).as_u16(), 0x0001);
        assert_eq!(ShortAddress::one_hop(15).as_u16(), 0x000F);
    }

    #[test]
    fn byte_roundtrip() {
        let addr = ShortAddress::assigned(0x123, 7);
        assert_eq!(ShortAddress::from_bytes(addr.to_bytes()), addr);
    }

    #[test]
    #[should_panic(expected = "switch number out of range")]
    fn switch_zero_is_unassignable() {
        let _ = ShortAddress::assigned(0, 0);
    }

    #[test]
    #[should_panic(expected = "one-hop port out of range")]
    fn one_hop_port_zero_rejected() {
        let _ = ShortAddress::one_hop(0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ShortAddress::assigned(7, 3).to_string(), "sw7.p3");
        assert_eq!(ShortAddress::BROADCAST_HOSTS.to_string(), "bcast-hosts");
        assert_eq!(ShortAddress::one_hop(2).to_string(), "0002");
    }
}

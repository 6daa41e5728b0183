//! 48-bit unique identifiers.
//!
//! Every switch and every host controller in Autonet carries a 48-bit UID in
//! ROM (the same space as IEEE 802 MAC addresses). UIDs order the spanning
//! tree (the smallest UID wins the root election) and break ties throughout
//! the reconfiguration algorithm, so their ordering must be total and stable.

use std::fmt;

/// A 48-bit unique identifier for a switch or host controller.
///
/// The upper 16 bits of the inner `u64` are always zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uid(u64);

impl Uid {
    /// Mask of the significant bits.
    pub const MASK: u64 = (1 << 48) - 1;

    /// Creates a UID from the low 48 bits of `raw`.
    ///
    /// # Panics
    ///
    /// Panics if `raw` has any of the upper 16 bits set, which would indicate
    /// a UID fabricated outside the 48-bit space.
    pub const fn new(raw: u64) -> Self {
        assert!(raw <= Self::MASK, "UID exceeds 48 bits");
        Uid(raw)
    }

    /// Returns the raw 48-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Encodes the UID as 6 big-endian bytes (wire format).
    pub fn to_bytes(self) -> [u8; 6] {
        let b = self.0.to_be_bytes();
        [b[2], b[3], b[4], b[5], b[6], b[7]]
    }

    /// Decodes a UID from 6 big-endian bytes.
    pub fn from_bytes(bytes: [u8; 6]) -> Self {
        let mut raw = 0u64;
        for b in bytes {
            raw = (raw << 8) | b as u64;
        }
        Uid(raw)
    }
}

impl fmt::Debug for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uid({:012x})", self.0)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // MAC-style grouping for readability in merged trace logs.
        let b = self.to_bytes();
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_bytes() {
        for raw in [0u64, 1, 0xdead_beef, Uid::MASK] {
            let uid = Uid::new(raw);
            assert_eq!(Uid::from_bytes(uid.to_bytes()), uid);
        }
    }

    #[test]
    fn ordering_matches_raw_value() {
        assert!(Uid::new(1) < Uid::new(2));
        assert!(Uid::new(0xffff_ffff_ffff) > Uid::new(0));
    }

    #[test]
    fn display_is_mac_style() {
        assert_eq!(Uid::new(0x0123_4567_89ab).to_string(), "01:23:45:67:89:ab");
    }

    #[test]
    #[should_panic(expected = "UID exceeds 48 bits")]
    fn rejects_oversized_values() {
        let _ = Uid::new(1 << 48);
    }
}

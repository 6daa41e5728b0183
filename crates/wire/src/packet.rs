//! The Autonet packet format and byte codec.
//!
//! From companion paper §6.8, an Autonet packet is:
//!
//! | bytes  | field |
//! |--------|-------|
//! | 2      | destination short address |
//! | 2      | source short address |
//! | 2      | Autonet type |
//! | 26     | encryption information |
//! | 0–64K  | data |
//! | 4      | CRC |
//!
//! The destination short address is the *only* field a switch examines while
//! forwarding. The paper's table shows an 8-byte CRC field; this
//! reproduction carries a 4-byte CRC-32 (the same algorithm the control
//! processor computed in software) — the 4-byte difference is irrelevant to
//! every experiment and is noted in DESIGN.md.

// Every cable's bytes reach this decoder: no path through it may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::fmt;

use bytes::Bytes;

use crate::crc::crc32;
use crate::shortaddr::ShortAddress;

/// Length of the fixed Autonet header (addresses + type + encryption info).
pub const AUTONET_HEADER_LEN: usize = 32;

/// Length of the trailing CRC.
pub const CRC_LEN: usize = 4;

/// Maximum payload carried by a normal (non-broadcast) Autonet packet.
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024;

/// Length of the encryption-information region of the header.
const ENC_INFO_LEN: usize = 26;

/// The protocol carried by a packet, from the Autonet type field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// An encapsulated Ethernet datagram (type 1 in the paper).
    Data,
    /// A reconfiguration-protocol message (tree positions, acks, topology
    /// reports).
    Reconfig,
    /// A connectivity-monitor probe or reply.
    Probe,
    /// The source-routed debugging/monitoring protocol (§6.7).
    Srp,
    /// Host-to-switch service traffic (short-address requests/replies).
    HostSwitch,
    /// Switch diagnostics.
    Diagnostic,
}

impl PacketType {
    /// Encodes the type as its wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            PacketType::Data => 1,
            PacketType::Reconfig => 2,
            PacketType::Probe => 3,
            PacketType::Srp => 4,
            PacketType::HostSwitch => 5,
            PacketType::Diagnostic => 6,
        }
    }

    /// Decodes a wire value.
    pub fn from_u16(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => PacketType::Data,
            2 => PacketType::Reconfig,
            3 => PacketType::Probe,
            4 => PacketType::Srp,
            5 => PacketType::HostSwitch,
            6 => PacketType::Diagnostic,
            _ => return None,
        })
    }
}

/// A parsed Autonet packet.
#[derive(Clone, PartialEq, Eq)]
pub struct Packet {
    /// Destination short address — the only field switches look at.
    pub dst: ShortAddress,
    /// Source short address, used by receivers to learn addresses.
    pub src: ShortAddress,
    /// Which protocol the payload belongs to.
    pub ptype: PacketType,
    /// The encryption-information header region (zeroed when unused).
    pub enc_info: [u8; ENC_INFO_LEN],
    /// The data field.
    pub payload: Bytes,
}

impl Packet {
    /// Creates a packet with a zeroed encryption region.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_PAYLOAD_LEN`].
    pub fn new(
        dst: ShortAddress,
        src: ShortAddress,
        ptype: PacketType,
        payload: impl Into<Bytes>,
    ) -> Self {
        let payload = payload.into();
        assert!(
            payload.len() <= MAX_PAYLOAD_LEN,
            "payload too large: {}",
            payload.len()
        );
        Packet {
            dst,
            src,
            ptype,
            enc_info: [0; ENC_INFO_LEN],
            payload,
        }
    }

    /// Total length of the packet on the wire, in data bytes.
    pub fn wire_len(&self) -> usize {
        AUTONET_HEADER_LEN + self.payload.len() + CRC_LEN
    }

    /// Serializes the packet, appending the CRC over header and payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.dst.to_bytes());
        out.extend_from_slice(&self.src.to_bytes());
        out.extend_from_slice(&self.ptype.as_u16().to_be_bytes());
        out.extend_from_slice(&self.enc_info);
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Parses and CRC-checks a packet from its wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Packet, PacketCodecError> {
        let truncated = PacketCodecError::Truncated { len: bytes.len() };
        let (body, stored) = bytes.split_last_chunk::<CRC_LEN>().ok_or(truncated)?;
        let (header, payload) = body
            .split_first_chunk::<AUTONET_HEADER_LEN>()
            .ok_or(truncated)?;
        let expected = crc32(body);
        let stored = u32::from_be_bytes(*stored);
        if expected != stored {
            return Err(PacketCodecError::BadCrc { expected, stored });
        }
        let [d0, d1, s0, s1, t0, t1, enc @ ..] = *header;
        let raw_type = u16::from_be_bytes([t0, t1]);
        let ptype = PacketType::from_u16(raw_type)
            .ok_or(PacketCodecError::UnknownType { raw: raw_type })?;
        Ok(Packet {
            dst: ShortAddress::from_bytes([d0, d1]),
            src: ShortAddress::from_bytes([s0, s1]),
            ptype,
            enc_info: enc,
            payload: Bytes::copy_from_slice(payload),
        })
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Packet({:?} {}->{} {}B)",
            self.ptype,
            self.src,
            self.dst,
            self.payload.len()
        )
    }
}

/// Errors produced while decoding a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketCodecError {
    /// Fewer bytes than the minimum packet size.
    Truncated {
        /// How many bytes arrived.
        len: usize,
    },
    /// The CRC did not match the packet contents.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried in the packet trailer.
        stored: u32,
    },
    /// The Autonet type field held an unknown value.
    UnknownType {
        /// The offending type value.
        raw: u16,
    },
}

impl fmt::Display for PacketCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketCodecError::Truncated { len } => write!(f, "packet truncated at {len} bytes"),
            PacketCodecError::BadCrc { expected, stored } => {
                write!(
                    f,
                    "CRC mismatch: computed {expected:08x}, stored {stored:08x}"
                )
            }
            PacketCodecError::UnknownType { raw } => write!(f, "unknown Autonet type {raw:#06x}"),
        }
    }
}

impl std::error::Error for PacketCodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(
            ShortAddress::assigned(3, 2),
            ShortAddress::assigned(7, 1),
            PacketType::Data,
            &b"the payload"[..],
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample();
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_len());
        let q = Packet::decode(&bytes).expect("decode");
        assert_eq!(p, q);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = Packet::new(
            ShortAddress::BROADCAST_HOSTS,
            ShortAddress::assigned(1, 0),
            PacketType::Reconfig,
            Bytes::new(),
        );
        let q = Packet::decode(&p.encode()).expect("decode");
        assert_eq!(p, q);
        assert_eq!(p.wire_len(), AUTONET_HEADER_LEN + CRC_LEN);
    }

    #[test]
    fn corrupted_byte_fails_crc() {
        let mut bytes = sample().encode();
        bytes[10] ^= 0x40;
        assert!(matches!(
            Packet::decode(&bytes),
            Err(PacketCodecError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncated_packet_rejected() {
        let bytes = sample().encode();
        assert!(matches!(
            Packet::decode(&bytes[..AUTONET_HEADER_LEN + CRC_LEN - 1]),
            Err(PacketCodecError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = sample().encode();
        // Overwrite the type field, then fix up the CRC so only the type is
        // invalid.
        bytes[4] = 0xAB;
        bytes[5] = 0xCD;
        let body_len = bytes.len() - CRC_LEN;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            Packet::decode(&bytes),
            Err(PacketCodecError::UnknownType { raw: 0xABCD })
        );
    }

    #[test]
    fn enc_info_survives_roundtrip() {
        let mut p = sample();
        p.enc_info = [0x5A; 26];
        let q = Packet::decode(&p.encode()).expect("decode");
        assert_eq!(q.enc_info, [0x5A; 26]);
    }

    #[test]
    fn type_values_roundtrip() {
        for t in [
            PacketType::Data,
            PacketType::Reconfig,
            PacketType::Probe,
            PacketType::Srp,
            PacketType::HostSwitch,
            PacketType::Diagnostic,
        ] {
            assert_eq!(PacketType::from_u16(t.as_u16()), Some(t));
        }
        assert_eq!(PacketType::from_u16(0), None);
        assert_eq!(PacketType::from_u16(999), None);
    }
}

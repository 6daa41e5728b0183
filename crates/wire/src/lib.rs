//! Link-level substrate for the Autonet reproduction.
//!
//! This crate models everything the AMD TAXI chip set and the link-unit
//! hardware provided in the real Autonet (companion paper §5.1, §6.1–6.3):
//!
//! - the symbol alphabet on a link: 256 data byte values plus distinguished
//!   command values for packet framing and flow control ([`Symbol`],
//!   [`Command`]);
//! - flow-control slot multiplexing: every `S`-th slot on a channel carries a
//!   flow-control directive ([`FLOW_CONTROL_INTERVAL`], [`LinkTiming`]);
//! - 48-bit node UIDs ([`Uid`]) and 16-bit short addresses
//!   ([`ShortAddress`]) with the paper's reserved-value layout and the
//!   switch-number/port-number packing;
//! - the Autonet packet format and its byte codec with a software CRC-32
//!   ([`Packet`], [`crc32`]);
//! - the host↔switch short-address service messages
//!   ([`encode_short_addr_request`] and its three siblings);
//! - the receive FIFO with half-full flow-control threshold and
//!   overflow/underflow accounting ([`ReceiveFifo`]).
//!
//! Everything here is pure data and state machines with no dependency on the
//! simulator, so it is directly unit- and property-testable.

mod crc;
mod fifo;
mod link;
mod packet;
mod service;
mod shortaddr;
mod symbol;
mod uid;

/// The type of [`Packet::payload`]: immutable, refcounted bytes.
pub use bytes::Bytes;
pub use crc::crc32;
pub use fifo::{FifoEntry, ReceiveFifo};
pub use link::{LinkTiming, SLOT_NS};
pub use packet::{
    Packet, PacketCodecError, PacketType, AUTONET_HEADER_LEN, CRC_LEN, MAX_PAYLOAD_LEN,
};
pub use service::{
    decode_short_addr_reply, decode_short_addr_request, encode_short_addr_reply,
    encode_short_addr_request,
};
pub use shortaddr::{PortIndex, ShortAddress, SwitchNumber, MAX_PORTS, MAX_SWITCH_NUMBER};
pub use symbol::{Command, Symbol, FLOW_CONTROL_INTERVAL};
pub use uid::Uid;

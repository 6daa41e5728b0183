//! The host↔switch short-address service messages (§6.4): a host asks the
//! switch it is cabled to for its short address, the switch's control
//! processor answers. They travel as the payload of a
//! [`PacketType::HostSwitch`](crate::PacketType::HostSwitch) packet and are
//! two variants (tags 9 and 10) of the control plane's message space; both
//! the control-plane codec and the host controller go through this one.

// Every host's bytes reach this decoder: no path through it may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::{ShortAddress, Uid};

const REQUEST_TAG: u8 = 9;
const REPLY_TAG: u8 = 10;

/// Encodes a short-address request from `host_uid`.
pub fn encode_short_addr_request(host_uid: Uid) -> Vec<u8> {
    [&[REQUEST_TAG][..], &host_uid.to_bytes()].concat()
}

/// Decodes a short-address request into the asking host's UID.
pub fn decode_short_addr_request(payload: &[u8]) -> Option<Uid> {
    let (&REQUEST_TAG, uid) = payload.split_first()? else {
        return None;
    };
    Some(Uid::from_bytes(uid.try_into().ok()?))
}

/// Encodes the switch's answer: `host_uid` has address `addr`.
pub fn encode_short_addr_reply(host_uid: Uid, addr: ShortAddress) -> Vec<u8> {
    [&[REPLY_TAG][..], &host_uid.to_bytes(), &addr.to_bytes()].concat()
}

/// Decodes a short-address reply into `(host_uid, addr)`.
pub fn decode_short_addr_reply(payload: &[u8]) -> Option<(Uid, ShortAddress)> {
    let (&REPLY_TAG, body) = payload.split_first()? else {
        return None;
    };
    let (uid, addr) = body.split_first_chunk::<6>()?;
    Some((
        Uid::from_bytes(*uid),
        ShortAddress::from_bytes(addr.try_into().ok()?),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round trips and truncation are `ControlMsg`'s tests; here, that one
    /// message is not the other and neither takes a trailing byte.
    #[test]
    fn service_messages_reject_the_other_tag_and_other_lengths() {
        let (uid, addr) = (Uid::new(0x0102_0304_0506), ShortAddress::assigned(3, 4));
        let mut request = encode_short_addr_request(uid);
        let mut reply = encode_short_addr_reply(uid, addr);
        assert_eq!(decode_short_addr_reply(&reply), Some((uid, addr)));
        assert_eq!(decode_short_addr_request(&reply), None);
        assert_eq!(decode_short_addr_reply(&request), None);
        request.push(0);
        reply.push(0);
        assert_eq!(decode_short_addr_request(&request), None);
        assert_eq!(decode_short_addr_reply(&reply), None);
    }
}

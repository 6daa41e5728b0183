//! The Autonet-to-Ethernet bridge.
//!
//! A Firefly acting as a bridge devotes two processors to forwarding
//! (companion paper §6.8.2). It learns which network each UID lives on by
//! watching traffic, forwards only packets whose destination is (or might
//! be) on the other side, refuses encrypted or over-long packets, and is
//! CPU-bound on small packets and I/O-bus-bound on large ones:
//! about 5000 discards/s, over 1000 small-packet forwards/s, 200–300
//! max-size forwards/s, with ~1 ms latency. The cost model here is
//! calibrated to those figures.

use std::collections::BTreeMap;

use autonet_sim::{SimDuration, SimTime};
use autonet_wire::Uid;

use crate::frame::EthFrame;

/// Which network a UID was last seen on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The Autonet side.
    Autonet,
    /// The Ethernet side.
    Ethernet,
}

impl Side {
    /// The opposite network.
    pub fn other(self) -> Side {
        match self {
            Side::Autonet => Side::Ethernet,
            Side::Ethernet => Side::Autonet,
        }
    }
}

/// CPU time to receive and discard one packet (~5000/s ⇒ 200 µs).
const CPU_DISCARD: SimDuration = SimDuration::from_micros(200);
/// CPU time to forward one packet (~1000/s small ⇒ ~950 µs).
const CPU_FORWARD: SimDuration = SimDuration::from_micros(950);
/// Effective I/O-bus time per byte: the packet crosses the 14 Mbit/s
/// Q-bus twice (in and out) with DMA setup and contention overhead;
/// calibrated so max-size forwards land in the paper's 200–300/s band.
const BUS_PER_BYTE: SimDuration = SimDuration::from_nanos(2400);
/// Fixed latency through the bridge (~1 ms for a small packet).
const LATENCY: SimDuration = SimDuration::from_millis(1);
/// Largest frame forwardable to the Ethernet.
const MAX_FORWARD_LEN: usize = 1514;

/// Bridge counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct BridgeStats {
    /// Frames forwarded Autonet → Ethernet.
    pub forwarded_to_ethernet: u64,
    /// Frames forwarded Ethernet → Autonet.
    pub forwarded_to_autonet: u64,
    /// Frames discarded (destination on the same side).
    pub discarded: u64,
    /// Frames refused (too long for the other network).
    pub refused: u64,
}

/// What the bridge decided about one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BridgeVerdict {
    /// Forward to the other network; the frame becomes deliverable there
    /// at `ready_at`.
    Forward {
        /// The network to inject into.
        to: Side,
        /// When the forwarded copy is ready (input time + queuing + cost).
        ready_at: SimTime,
    },
    /// Dropped: destination is on the arrival side.
    Discard,
    /// Refused: too long (or otherwise unforwardable) for the other side.
    Refuse,
}

/// A learning Autonet↔Ethernet bridge with a calibrated cost model.
#[derive(Clone, Debug, Default)]
pub struct Bridge {
    location: BTreeMap<Uid, Side>,
    /// The forwarding engine is busy until this instant (one logical
    /// forwarding pipeline, as in the two-processor Firefly).
    busy_until: SimTime,
    stats: BridgeStats,
}

impl Bridge {
    /// Creates a bridge.
    pub fn new() -> Self {
        Bridge::default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BridgeStats {
        self.stats
    }

    /// Where a UID was last seen, if known.
    pub fn side_of(&self, uid: Uid) -> Option<Side> {
        self.location.get(&uid).copied()
    }

    /// Processes one frame arriving from `from` at `now`.
    pub fn process(&mut self, now: SimTime, from: Side, frame: &EthFrame) -> BridgeVerdict {
        // Learn the sender's side from every frame (a UID lives on exactly
        // one network).
        self.location.insert(frame.src, from);
        // Forward when the destination is known to be on the other side or
        // unknown (broadcasts always go both ways).
        let forward = if frame.is_broadcast() {
            true
        } else {
            match self.location.get(&frame.dst) {
                Some(&side) => side != from,
                None => true,
            }
        };
        if !forward {
            // Discards still cost receive CPU.
            self.busy_until = self.start_at(now) + CPU_DISCARD;
            self.stats.discarded += 1;
            return BridgeVerdict::Discard;
        }
        if frame.wire_len() > MAX_FORWARD_LEN {
            self.busy_until = self.start_at(now) + CPU_DISCARD;
            self.stats.refused += 1;
            return BridgeVerdict::Refuse;
        }
        // Forwarding cost: the larger of CPU and bus occupancy.
        let bus = SimDuration::from_nanos(BUS_PER_BYTE.as_nanos() * frame.wire_len() as u64);
        let cost = CPU_FORWARD.max(bus);
        let start = self.start_at(now);
        self.busy_until = start + cost;
        let to = from.other();
        match to {
            Side::Ethernet => self.stats.forwarded_to_ethernet += 1,
            Side::Autonet => self.stats.forwarded_to_autonet += 1,
        }
        BridgeVerdict::Forward {
            to,
            ready_at: self.busy_until.saturating_add(LATENCY - cost.min(LATENCY)),
        }
    }

    fn start_at(&self, now: SimTime) -> SimTime {
        if self.busy_until > now {
            self.busy_until
        } else {
            now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{BROADCAST_UID, IP_ETHERTYPE};

    fn frame(dst: u64, src: u64, len: usize) -> EthFrame {
        EthFrame::new(Uid::new(dst), Uid::new(src), IP_ETHERTYPE, vec![0u8; len])
    }

    #[test]
    fn learns_sides_and_filters() {
        let mut b = Bridge::new();
        let t = SimTime::from_millis(1);
        // Host 1 speaks on the Ethernet; host 2 on the Autonet.
        b.process(t, Side::Ethernet, &frame(99, 1, 64));
        b.process(t, Side::Autonet, &frame(99, 2, 64));
        assert_eq!(b.side_of(Uid::new(1)), Some(Side::Ethernet));
        assert_eq!(b.side_of(Uid::new(2)), Some(Side::Autonet));
        // Ethernet-internal traffic is discarded, cross traffic forwarded.
        let v = b.process(t, Side::Ethernet, &frame(1, 3, 64));
        assert_eq!(v, BridgeVerdict::Discard);
        let v = b.process(t, Side::Ethernet, &frame(2, 3, 64));
        assert!(matches!(
            v,
            BridgeVerdict::Forward {
                to: Side::Autonet,
                ..
            }
        ));
    }

    #[test]
    fn unknown_destination_forwarded() {
        let mut b = Bridge::new();
        let v = b.process(SimTime::ZERO, Side::Autonet, &frame(42, 7, 64));
        assert!(matches!(
            v,
            BridgeVerdict::Forward {
                to: Side::Ethernet,
                ..
            }
        ));
    }

    #[test]
    fn broadcast_always_crosses() {
        let mut b = Bridge::new();
        let f = EthFrame::new(BROADCAST_UID, Uid::new(7), IP_ETHERTYPE, vec![0u8; 10]);
        let v = b.process(SimTime::ZERO, Side::Autonet, &f);
        assert!(matches!(v, BridgeVerdict::Forward { .. }));
    }

    #[test]
    fn oversize_refused() {
        let mut b = Bridge::new();
        let v = b.process(SimTime::ZERO, Side::Autonet, &frame(42, 7, 4000));
        assert_eq!(v, BridgeVerdict::Refuse);
        assert_eq!(b.stats().refused, 1);
    }

    #[test]
    fn small_packet_forward_rate_near_1000_per_sec() {
        let mut b = Bridge::new();
        let mut now = SimTime::ZERO;
        let n = 500;
        for i in 0..n {
            // Alternate unknown destinations to force forwarding.
            let v = b.process(now, Side::Autonet, &frame(1000 + i, 7, 52));
            if let BridgeVerdict::Forward { ready_at, .. } = v {
                now = ready_at;
            }
        }
        let rate = n as f64 / now.as_secs_f64();
        assert!(
            (900.0..1300.0).contains(&rate),
            "small-forward rate {rate}/s"
        );
    }

    #[test]
    fn max_size_forward_rate_200_to_300_per_sec() {
        let mut b = Bridge::new();
        let mut now = SimTime::ZERO;
        let n = 200;
        for i in 0..n {
            let v = b.process(now, Side::Autonet, &frame(1000 + i, 7, 1486));
            if let BridgeVerdict::Forward { ready_at, .. } = v {
                now = ready_at;
            }
        }
        let rate = n as f64 / now.as_secs_f64();
        assert!(
            (200.0..320.0).contains(&rate),
            "max-size forward rate {rate}/s"
        );
    }

    #[test]
    fn discard_rate_near_5000_per_sec() {
        let mut b = Bridge::new();
        let t = SimTime::ZERO;
        // Teach it both endpoints on the same side.
        b.process(t, Side::Ethernet, &frame(99, 1, 64));
        b.process(t, Side::Ethernet, &frame(99, 2, 64));
        let mut now = b.busy_until;
        let n = 1000;
        for _ in 0..n {
            b.process(now, Side::Ethernet, &frame(1, 2, 52));
            now = b.busy_until;
        }
        let rate = n as f64 / (now.as_secs_f64() - t.as_secs_f64());
        assert!((4000.0..6000.0).contains(&rate), "discard rate {rate}/s");
    }
}

//! A shared-bus Ethernet segment model.
//!
//! The bridging experiments need the other side of the bridge: a classic
//! 10 Mbit/s Ethernet where every frame is seen by every station and the
//! aggregate bandwidth equals the link bandwidth. The model serializes
//! transmissions on a single bus (no collision modeling — the experiments
//! only need the bandwidth ceiling and delivery semantics).

use autonet_sim::{SimDuration, SimTime};
use autonet_wire::Uid;

use crate::frame::EthFrame;

/// Minimum Ethernet frame size on the wire (64 bytes + preamble/IFG ≈ 84).
const MIN_WIRE_BYTES: usize = 84;

/// Per-frame wire overhead beyond the payload (header, CRC, preamble, IFG).
const FRAME_OVERHEAD: usize = 38;

/// One shared Ethernet segment.
#[derive(Clone, Debug)]
pub struct EthernetSegment {
    bits_per_sec: u64,
    busy_until: SimTime,
    stations: Vec<Uid>,
    frames_carried: u64,
    bytes_carried: u64,
}

impl EthernetSegment {
    /// A standard 10 Mbit/s segment.
    pub fn new_10mbps() -> Self {
        EthernetSegment::with_rate(10_000_000)
    }

    /// A segment with an arbitrary bit rate.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn with_rate(bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "rate must be positive");
        EthernetSegment {
            bits_per_sec,
            busy_until: SimTime::ZERO,
            stations: Vec::new(),
            frames_carried: 0,
            bytes_carried: 0,
        }
    }

    /// Attaches a station; every frame is delivered to all stations except
    /// the sender (UID filtering happens at the receiver, as on a real bus).
    pub fn attach(&mut self, uid: Uid) {
        if !self.stations.contains(&uid) {
            self.stations.push(uid);
        }
    }

    /// The attached stations.
    pub fn stations(&self) -> &[Uid] {
        &self.stations
    }

    /// Frames carried so far.
    pub fn frames_carried(&self) -> u64 {
        self.frames_carried
    }

    /// Payload bytes carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Wire time of one frame.
    pub fn frame_time(&self, frame: &EthFrame) -> SimDuration {
        let wire_bytes = (frame.wire_len() + FRAME_OVERHEAD).max(MIN_WIRE_BYTES);
        SimDuration::from_nanos(wire_bytes as u64 * 8 * 1_000_000_000 / self.bits_per_sec)
    }

    /// Transmits a frame at `now` (queuing behind the bus if busy).
    /// Returns the instant the frame has fully arrived at every station.
    pub fn transmit(&mut self, now: SimTime, frame: &EthFrame) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let done = start + self.frame_time(frame);
        self.busy_until = done;
        self.frames_carried += 1;
        self.bytes_carried += frame.wire_len() as u64;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::IP_ETHERTYPE;

    fn frame(len: usize) -> EthFrame {
        EthFrame::new(Uid::new(1), Uid::new(2), IP_ETHERTYPE, vec![0u8; len])
    }

    #[test]
    fn max_frame_takes_about_1230_us() {
        let seg = EthernetSegment::new_10mbps();
        let t = seg.frame_time(&frame(1486)); // 1500-byte Ethernet payload.
        let us = t.as_micros_f64();
        assert!((1200.0..1300.0).contains(&us), "{us} us");
    }

    #[test]
    fn min_frame_padding_applies() {
        let seg = EthernetSegment::new_10mbps();
        let t = seg.frame_time(&frame(1));
        assert_eq!(t, SimDuration::from_nanos(84 * 8 * 100));
    }

    #[test]
    fn transmissions_serialize() {
        let mut seg = EthernetSegment::new_10mbps();
        let t0 = SimTime::from_millis(1);
        let done1 = seg.transmit(t0, &frame(1000));
        let done2 = seg.transmit(t0, &frame(1000));
        assert!(done2 > done1);
        assert_eq!(done2.saturating_since(done1), seg.frame_time(&frame(1000)));
    }

    #[test]
    fn aggregate_bandwidth_capped_at_line_rate() {
        let mut seg = EthernetSegment::new_10mbps();
        let mut now = SimTime::ZERO;
        let f = frame(1486);
        for _ in 0..100 {
            now = seg.transmit(now, &f);
        }
        let goodput_bps = seg.bytes_carried() as f64 * 8.0 / now.as_secs_f64();
        assert!(goodput_bps < 10_000_000.0);
        assert!(goodput_bps > 9_000_000.0, "{goodput_bps}");
    }

    #[test]
    fn attach_is_idempotent() {
        let mut seg = EthernetSegment::new_10mbps();
        seg.attach(Uid::new(1));
        seg.attach(Uid::new(1));
        seg.attach(Uid::new(2));
        assert_eq!(seg.stations().len(), 2);
    }
}

//! The dual-ported host controller and its driver.
//!
//! Each host connects to two different switches but uses one port at a
//! time (companion paper §3.9, §6.8.3). The driver confirms the host's
//! short address with the local switch every few seconds; when the switch
//! stops answering it probes more vigorously, and after three seconds of
//! silence it fails over to the alternate port and asks the new switch
//! for its short address. It keeps the old address until the new switch
//! answers, so frames sent in that window leave the alternate port with
//! the dead switch's address as their source. If neither link answers,
//! the driver alternates between them every ten seconds. Failover
//! happens below LocalNet, so higher-level protocols usually survive it.

use std::collections::VecDeque;

use autonet_sim::{SimDuration, SimTime};
use autonet_wire::{
    decode_short_addr_reply, encode_short_addr_request, Packet, PacketType, ShortAddress, Uid,
};

use crate::frame::EthFrame;
use crate::localnet::{LocalNet, LocalNetStats};

/// Normal liveness-check period ("every few seconds", §6.8.3).
const LIVENESS_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Silence after a check before probing vigorously.
const REPLY_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Vigorous probe period.
const VIGOROUS_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// How long to try a silent link before switching again (§6.8.3: the
/// driver alternates every ten seconds).
const ALTERNATE_RETRY: SimDuration = SimDuration::from_secs(10);
/// Frames buffered while no short address is known.
const TX_BUFFER_FRAMES: usize = 64;

/// Driver timing parameters (defaults from §6.8.3).
#[derive(Clone, Copy, Debug)]
pub struct HostParams {
    /// Silence that triggers failover to the alternate port.
    pub failover_threshold: SimDuration,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            failover_threshold: SimDuration::from_secs(3),
        }
    }
}

/// Driver counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStats {
    /// Port switches performed.
    pub failovers: u64,
    /// Frames discarded because the transmit buffer was full.
    pub tx_discards: u64,
    /// Liveness checks transmitted.
    pub checks_sent: u64,
}

/// What the controller asks its environment to do.
#[derive(Clone, Debug)]
pub enum HostAction {
    /// Transmit a packet on controller port 0 (primary) or 1 (alternate).
    Transmit {
        /// Which controller port.
        port: usize,
        /// The packet.
        packet: Packet,
    },
    /// Deliver a received frame to the client.
    Deliver(EthFrame),
}

/// The host controller + driver + LocalNet stack.
#[derive(Clone)]
pub struct HostController {
    uid: Uid,
    params: HostParams,
    localnet: LocalNet,
    dual_ported: bool,
    active: usize,
    last_contact: Option<SimTime>,
    last_check: Option<SimTime>,
    switched_at: SimTime,
    address_changed_at: Option<SimTime>,
    pending_tx: VecDeque<EthFrame>,
    stats: HostStats,
}

impl HostController {
    /// Creates a controller; `dual_ported` hosts can fail over.
    pub fn new(uid: Uid, params: HostParams, dual_ported: bool) -> Self {
        HostController {
            uid,
            params,
            localnet: LocalNet::new(uid),
            dual_ported,
            active: 0,
            last_contact: None,
            last_check: None,
            switched_at: SimTime::ZERO,
            address_changed_at: None,
            pending_tx: VecDeque::new(),
            stats: HostStats::default(),
        }
    }

    /// The host's UID.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The active controller port (0 or 1).
    pub fn active_port(&self) -> usize {
        self.active
    }

    /// The current short address, if known.
    pub fn short_address(&self) -> Option<ShortAddress> {
        self.localnet.my_short()
    }

    /// When the driver last switched the active port (boot counts as
    /// a switch to port 0 at t = 0).
    pub fn switched_at(&self) -> SimTime {
        self.switched_at
    }

    /// When the host last learned a short address different from the one
    /// it held; `None` before the first.
    pub fn address_changed_at(&self) -> Option<SimTime> {
        self.address_changed_at
    }

    /// Driver counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// LocalNet counters.
    pub fn localnet_stats(&self) -> LocalNetStats {
        self.localnet.stats()
    }

    /// Shared access to the LocalNet cache (for assertions in tests).
    pub fn localnet(&self) -> &LocalNet {
        &self.localnet
    }

    /// Boot: contact the local switch for our short address.
    pub fn boot(&mut self, now: SimTime) -> Vec<HostAction> {
        self.send_check(now)
    }

    /// Client transmission request.
    pub fn send(&mut self, now: SimTime, frame: EthFrame) -> Vec<HostAction> {
        if self.localnet.my_short().is_none() {
            if self.pending_tx.len() >= TX_BUFFER_FRAMES {
                self.stats.tx_discards += 1;
            } else {
                self.pending_tx.push_back(frame);
            }
            return Vec::new();
        }
        self.localnet
            .transmit(now, &frame)
            .into_iter()
            .map(|packet| HostAction::Transmit {
                port: self.active,
                packet,
            })
            .collect()
    }

    /// A packet arrived on controller port `port`.
    pub fn on_packet(&mut self, now: SimTime, port: usize, packet: &Packet) -> Vec<HostAction> {
        if port != self.active {
            // The alternate connection is unused; packets there are noise.
            return Vec::new();
        }
        let mut actions = Vec::new();
        match packet.ptype {
            PacketType::HostSwitch => {
                if let Some((host_uid, addr)) = decode_short_addr_reply(&packet.payload) {
                    if host_uid == self.uid {
                        self.last_contact = Some(now);
                        if self.localnet.my_short() != Some(addr) {
                            self.address_changed_at = Some(now);
                        }
                        for p in self.localnet.set_own_address(addr) {
                            actions.push(HostAction::Transmit {
                                port: self.active,
                                packet: p,
                            });
                        }
                        // Flush frames queued while addressless.
                        while let Some(frame) = self.pending_tx.pop_front() {
                            for p in self.localnet.transmit(now, &frame) {
                                actions.push(HostAction::Transmit {
                                    port: self.active,
                                    packet: p,
                                });
                            }
                        }
                    }
                }
            }
            PacketType::Data => {
                let (delivered, responses) = self.localnet.receive(now, packet);
                for p in responses {
                    actions.push(HostAction::Transmit {
                        port: self.active,
                        packet: p,
                    });
                }
                if let Some(frame) = delivered {
                    actions.push(HostAction::Deliver(frame));
                }
            }
            _ => {}
        }
        actions
    }

    /// Periodic driver tick.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<HostAction> {
        self.localnet.on_tick(now);
        let silence = self.last_contact.map_or_else(
            || now.saturating_since(self.switched_at),
            |t| now.saturating_since(t),
        );
        // Failover logic.
        if self.dual_ported {
            let since_switch = now.saturating_since(self.switched_at);
            let threshold = if self.last_contact.is_some() {
                self.params.failover_threshold
            } else {
                // Never heard anything on this link since switching: give
                // it the ten-second trial before alternating again.
                ALTERNATE_RETRY
            };
            if silence >= threshold && since_switch >= threshold.min(ALTERNATE_RETRY) {
                self.active = 1 - self.active;
                self.switched_at = now;
                self.last_contact = None;
                self.last_check = None;
                self.stats.failovers += 1;
                return self.send_check(now);
            }
        }
        // Liveness checking cadence: vigorous when the switch has gone
        // quiet, relaxed otherwise.
        let interval = if silence > REPLY_TIMEOUT {
            VIGOROUS_INTERVAL
        } else {
            LIVENESS_INTERVAL
        };
        let due = self
            .last_check
            .is_none_or(|t| now.saturating_since(t) >= interval);
        if due {
            self.send_check(now)
        } else {
            Vec::new()
        }
    }

    fn send_check(&mut self, now: SimTime) -> Vec<HostAction> {
        self.last_check = Some(now);
        self.stats.checks_sent += 1;
        let packet = Packet::new(
            ShortAddress::TO_LOCAL_SWITCH,
            self.localnet
                .my_short()
                .unwrap_or(ShortAddress::BROADCAST_HOSTS),
            PacketType::HostSwitch,
            encode_short_addr_request(self.uid),
        );
        vec![HostAction::Transmit {
            port: self.active,
            packet,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::IP_ETHERTYPE;

    fn reply_packet(host_uid: Uid, addr: ShortAddress) -> Packet {
        Packet::new(
            addr,
            ShortAddress::TO_LOCAL_SWITCH,
            PacketType::HostSwitch,
            autonet_wire::encode_short_addr_reply(host_uid, addr),
        )
    }

    fn controller() -> HostController {
        HostController::new(Uid::new(100), HostParams::default(), true)
    }

    #[test]
    fn boot_asks_for_short_address() {
        let mut c = controller();
        let actions = c.boot(SimTime::ZERO);
        assert_eq!(actions.len(), 1);
        let HostAction::Transmit { port, packet } = &actions[0] else {
            panic!("expected transmit");
        };
        assert_eq!(*port, 0);
        assert_eq!(packet.dst, ShortAddress::TO_LOCAL_SWITCH);
        assert_eq!(packet.ptype, PacketType::HostSwitch);
    }

    #[test]
    fn learns_address_and_flushes_queue() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        // Queue a frame before the address arrives.
        let frame = EthFrame::new(Uid::new(200), Uid::new(100), IP_ETHERTYPE, &b"x"[..]);
        assert!(c.send(SimTime::from_millis(1), frame).is_empty());
        // The switch answers.
        let addr = ShortAddress::assigned(3, 5);
        let actions = c.on_packet(
            SimTime::from_millis(2),
            0,
            &reply_packet(Uid::new(100), addr),
        );
        assert_eq!(c.address_changed_at(), Some(SimTime::from_millis(2)));
        // The queued frame went out (as a broadcast fallback).
        assert!(actions.iter().any(
            |a| matches!(a, HostAction::Transmit { packet, .. } if packet.ptype == PacketType::Data)
        ));
        assert_eq!(c.short_address(), Some(addr));
    }

    #[test]
    fn address_changed_at_moves_only_when_the_address_changes() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        assert_eq!(c.address_changed_at(), None);
        let first = ShortAddress::assigned(1, 1);
        let uid = Uid::new(100);
        c.on_packet(SimTime::from_millis(10), 0, &reply_packet(uid, first));
        assert_eq!(c.address_changed_at(), Some(SimTime::from_millis(10)));
        // A liveness reply re-sends the same address: nothing changed.
        c.on_packet(SimTime::from_millis(20), 0, &reply_packet(uid, first));
        assert_eq!(c.address_changed_at(), Some(SimTime::from_millis(10)));
        let second = ShortAddress::assigned(2, 3);
        c.on_packet(SimTime::from_millis(30), 0, &reply_packet(uid, second));
        assert_eq!(c.address_changed_at(), Some(SimTime::from_millis(30)));
        assert_eq!(c.short_address(), Some(second));
    }

    #[test]
    fn failover_after_three_seconds_of_silence() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        // Establish contact at t=0.1s.
        c.on_packet(
            SimTime::from_millis(100),
            0,
            &reply_packet(Uid::new(100), ShortAddress::assigned(1, 1)),
        );
        // Tick forward without further contact; ticks every 100 ms.
        let mut now = SimTime::from_millis(100);
        let mut switched = None;
        for _ in 0..200 {
            now += SimDuration::from_millis(100);
            c.on_tick(now);
            if c.stats().failovers > 0 {
                switched = Some(now);
                break;
            }
        }
        let switched = switched.expect("must fail over");
        assert_eq!(c.switched_at(), switched);
        let silence = switched.saturating_since(SimTime::from_millis(100));
        assert!(
            silence >= SimDuration::from_secs(3) && silence < SimDuration::from_secs(4),
            "failover after {silence}"
        );
        assert_eq!(c.active_port(), 1);
        assert_eq!(
            c.short_address(),
            Some(ShortAddress::assigned(1, 1)),
            "address kept until relearned"
        );
    }

    #[test]
    fn alternates_every_ten_seconds_when_both_dead() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        c.on_packet(
            SimTime::from_millis(100),
            0,
            &reply_packet(Uid::new(100), ShortAddress::assigned(1, 1)),
        );
        let mut now = SimTime::from_millis(100);
        let mut switch_times = Vec::new();
        for _ in 0..600 {
            now += SimDuration::from_millis(100);
            c.on_tick(now);
            if c.switched_at() == now {
                switch_times.push(now);
            }
        }
        assert!(switch_times.len() >= 3, "{switch_times:?}");
        // After the first failover the host alternates roughly every 10 s.
        let gap = switch_times[2].saturating_since(switch_times[1]);
        assert!(
            gap >= SimDuration::from_secs(9) && gap <= SimDuration::from_secs(11),
            "gap {gap}"
        );
    }

    #[test]
    fn vigorous_probing_when_silent() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        c.on_packet(
            SimTime::from_millis(100),
            0,
            &reply_packet(Uid::new(100), ShortAddress::assigned(1, 1)),
        );
        // In the first 2 s of silence past the reply timeout, checks speed up.
        let mut now = SimTime::from_millis(100);
        let mut checks = 0;
        for _ in 0..25 {
            now += SimDuration::from_millis(100);
            let actions = c.on_tick(now);
            checks += actions
                .iter()
                .filter(|a| matches!(a, HostAction::Transmit { packet, .. } if packet.ptype == PacketType::HostSwitch))
                .count();
        }
        assert!(
            checks >= 10,
            "expected vigorous probing, saw {checks} checks"
        );
    }

    #[test]
    fn packets_on_inactive_port_ignored() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        let actions = c.on_packet(
            SimTime::from_millis(1),
            1,
            &reply_packet(Uid::new(100), ShortAddress::assigned(9, 9)),
        );
        assert!(actions.is_empty());
        assert_eq!(c.short_address(), None);
    }

    #[test]
    fn tx_buffer_bounds_and_discards() {
        let mut c = controller();
        c.boot(SimTime::ZERO);
        let frame = EthFrame::new(Uid::new(200), Uid::new(100), IP_ETHERTYPE, &b"x"[..]);
        for _ in 0..TX_BUFFER_FRAMES + 3 {
            c.send(SimTime::from_millis(1), frame.clone());
        }
        assert_eq!(c.stats().tx_discards, 3);
    }

    #[test]
    fn single_ported_host_never_fails_over() {
        let mut c = HostController::new(Uid::new(100), HostParams::default(), false);
        c.boot(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            now += SimDuration::from_millis(100);
            c.on_tick(now);
        }
        assert_eq!(c.stats().failovers, 0);
        assert_eq!(c.switched_at(), SimTime::ZERO);
    }
}

//! Control-plane messages and their wire codec.
//!
//! Everything Autopilot says to a neighbor travels in an Autonet packet
//! whose payload is one of these messages. Connectivity probes and replies
//! implement the connectivity monitor (§6.5.4); the four
//! tree-position/report/down message kinds implement the five-step
//! reconfiguration (§6.6); the short-address service answers hosts
//! (§6.3); SRP carries the source-routed debugging protocol (§6.7).
//!
//! The codec is hand-rolled big-endian TLV — the control processor had to
//! do all of this in software, and the experiments charge transmission
//! time by encoded size, so the encoding is real, not estimated.

// Every neighbor's bytes reach this decoder: no path through it may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use autonet_wire::{
    decode_short_addr_reply, decode_short_addr_request, encode_short_addr_reply,
    encode_short_addr_request, PortIndex, ShortAddress, SwitchNumber, Uid, MAX_PORTS,
    MAX_SWITCH_NUMBER,
};

use crate::epoch::Epoch;
use crate::topology::{GlobalTopology, LinkInfo, SubtreeReport, SwitchInfo};
use crate::tree::TreePosition;

/// A control-plane message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlMsg {
    /// Connectivity test packet, sent periodically on `s.switch.*` ports.
    Probe {
        /// Matches a reply to its probe.
        seq: u64,
        /// The prober's UID.
        origin: Uid,
        /// The prober's local port the probe left by.
        origin_port: PortIndex,
    },
    /// Reply to a [`ControlMsg::Probe`]; echoes the probe's identity.
    ProbeReply {
        /// The probe's sequence number.
        seq: u64,
        /// Echoed prober UID.
        origin: Uid,
        /// Echoed prober port.
        origin_port: PortIndex,
        /// The responder's UID (equal to `origin` on a looped link).
        responder: Uid,
        /// The responder's port the probe arrived on.
        responder_port: PortIndex,
    },
    /// A switch's current tree position, sent to all good neighbors and
    /// retransmitted until acknowledged.
    TreePosition {
        /// The reconfiguration epoch.
        epoch: Epoch,
        /// The sender's position sequence number (bumped on every change).
        seq: u64,
        /// The sender's local port the message left by, so the receiver
        /// can tell which of its links a parent claim refers to.
        from_port: PortIndex,
        /// The advertised position.
        pos: TreePosition,
    },
    /// Acknowledges a [`ControlMsg::TreePosition`].
    ///
    /// The acknowledgment also carries the acker's *own* current position
    /// (fields `sender_*`). This is what makes termination detection
    /// sound: a switch cannot count itself stable until every neighbor has
    /// acknowledged, and each acknowledgment delivers the neighbor's view
    /// — so a better root known to any neighbor reaches the sender before
    /// the sender can conclude stability.
    TreePositionAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
        /// The position sequence number being acknowledged.
        seq: u64,
        /// The "this is now my parent link" bit (§6.6.1).
        is_parent: bool,
        /// The acker's own state version.
        sender_seq: u64,
        /// The acker's local port this ack left by.
        sender_from_port: PortIndex,
        /// The acker's current position.
        sender_pos: TreePosition,
    },
    /// The "I am stable" message carrying the stable subtree's topology,
    /// sent to the parent and retransmitted until acknowledged.
    TopologyReport {
        /// The reconfiguration epoch.
        epoch: Epoch,
        /// The reporter's position sequence number, so the parent can
        /// discard reports from abandoned positions.
        seq: u64,
        /// The subtree description.
        report: SubtreeReport,
    },
    /// Acknowledges a [`ControlMsg::TopologyReport`].
    TopologyReportAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
        /// The report's sequence number.
        seq: u64,
    },
    /// The complete topology flooding down the tree from the root.
    TopologyDown {
        /// The reconfiguration epoch.
        epoch: Epoch,
        /// The global topology, tree and number assignment.
        global: GlobalTopology,
    },
    /// Acknowledges a [`ControlMsg::TopologyDown`].
    TopologyDownAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
    },
    /// A host asking the local switch for its short address (sent to
    /// address `0000`).
    ShortAddrRequest {
        /// The asking host's UID.
        host_uid: Uid,
    },
    /// The switch's answer to a [`ControlMsg::ShortAddrRequest`].
    ShortAddrReply {
        /// Echoed host UID.
        host_uid: Uid,
        /// The short address of the port the request arrived on.
        addr: ShortAddress,
    },
    /// A source-routed debugging packet (§6.7): forwarded control-processor
    /// to control-processor along `route`. Each forwarding switch appends
    /// its arrival port to `back_route`, so the target can source-route the
    /// reply back without any forwarding tables — which is what lets SRP
    /// work even during reconfiguration.
    Srp {
        /// Outbound port numbers, switch by switch.
        route: Vec<PortIndex>,
        /// Index of the next hop to take.
        hop: u8,
        /// Arrival ports recorded along the way (the return path).
        back_route: Vec<PortIndex>,
        /// What the packet asks or answers.
        payload: SrpPayload,
    },
}

/// Payloads of the source-routed protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SrpPayload {
    /// Liveness check.
    Ping,
    /// Answer to [`SrpPayload::Ping`].
    Pong {
        /// The answering switch's UID.
        uid: Uid,
        /// Its current epoch.
        epoch: Epoch,
    },
    /// Asks for a state summary.
    GetState,
    /// Answer to [`SrpPayload::GetState`].
    State {
        /// The answering switch's UID.
        uid: Uid,
        /// Its current epoch.
        epoch: Epoch,
        /// How many ports are in state `s.switch.good`.
        good_ports: u8,
        /// Whether host traffic is currently enabled.
        open: bool,
    },
}

/// Errors raised while decoding a control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgCodecError {
    /// The payload ended before the message did.
    Truncated,
    /// An unknown message or payload tag.
    BadTag(u8),
    /// A field held an invalid value.
    BadValue,
}

impl std::fmt::Display for MsgCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgCodecError::Truncated => write!(f, "control message truncated"),
            MsgCodecError::BadTag(t) => write!(f, "unknown control message tag {t}"),
            MsgCodecError::BadValue => write!(f, "invalid field value"),
        }
    }
}

impl std::error::Error for MsgCodecError {}

// ---- Encoding helpers ----------------------------------------------------

/// Reports describing more switches than this use the compact encoding
/// (tags 12/13): a UID table up front, then per-switch entries that name
/// parents and neighbors by u16 table index instead of repeating 6-byte
/// UIDs. The classic encoding repeats the neighbor UID on every link, so a
/// topology flood grows ~107 bytes per switch and overflows the packet
/// format's 64 KB data field near 600 switches. The threshold keeps every
/// paper-scale network (the real Autonet had ~30 switches; our goldens use
/// ≤ 100) on the classic bytes — timings and golden traces are untouched —
/// while the E22 scale rows (256/576/1024) fit comfortably. The choice
/// depends only on message content, so it is deterministic.
const COMPACT_REPORT_THRESHOLD: usize = 128;

/// Sentinel index meaning "a literal UID follows" in a compact reference.
const UID_REF_LITERAL: u16 = u16::MAX;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Sized so every probe, reply, ack and position message encodes in
    /// one allocation; topology reports grow from there.
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn uid(&mut self, u: Uid) {
        self.buf.extend_from_slice(&u.to_bytes());
    }

    fn pos(&mut self, p: &TreePosition) {
        self.uid(p.root);
        self.u32(p.level);
        self.uid(p.parent);
        self.u8(p.parent_port);
    }

    fn switch_info(&mut self, s: &SwitchInfo) {
        self.uid(s.uid);
        self.u16(s.proposed_number);
        self.uid(s.parent);
        self.u8(s.parent_port);
        self.u16(s.links.len() as u16);
        for l in &s.links {
            self.u8(l.local_port);
            self.uid(l.neighbor);
            self.u8(l.neighbor_port);
        }
        self.u16(s.host_ports.len() as u16);
        for &p in &s.host_ports {
            self.u8(p);
        }
    }

    fn report(&mut self, switches: &[SwitchInfo]) {
        self.u16(switches.len() as u16);
        for s in switches {
            self.switch_info(s);
        }
    }

    /// A UID named by table index when it appears in the report's switch
    /// array, or by [`UID_REF_LITERAL`] + inline UID when it does not
    /// (links crossing the subtree boundary name switches outside it).
    fn uid_ref(&mut self, u: Uid, idx: &std::collections::BTreeMap<Uid, u16>) {
        match idx.get(&u) {
            Some(&i) => self.u16(i),
            None => {
                self.u16(UID_REF_LITERAL);
                self.uid(u);
            }
        }
    }

    /// Two port numbers in one byte. Ports index `0..MAX_PORTS` (13), so
    /// each fits a nibble.
    fn port_pair(&mut self, a: PortIndex, b: PortIndex) {
        assert!(a < 16 && b < 16, "port out of nibble range: {a}/{b}");
        self.u8((a << 4) | b);
    }

    fn compact_report(&mut self, switches: &[SwitchInfo]) {
        let idx: std::collections::BTreeMap<Uid, u16> = switches
            .iter()
            .enumerate()
            .map(|(i, s)| (s.uid, i as u16))
            .collect();
        self.u16(switches.len() as u16);
        for s in switches {
            self.uid(s.uid);
        }
        for s in switches {
            self.u16(s.proposed_number);
            self.uid_ref(s.parent, &idx);
            assert!(s.links.len() < 16 && s.host_ports.len() < 16);
            self.port_pair(s.links.len() as PortIndex, s.host_ports.len() as PortIndex);
            self.u8(s.parent_port);
            for l in &s.links {
                self.port_pair(l.local_port, l.neighbor_port);
                self.uid_ref(l.neighbor, &idx);
            }
            for &p in &s.host_ports {
                self.u8(p);
            }
        }
    }
}

/// A port number, or how many links or host ports one switch lists: all
/// below [`MAX_PORTS`] in every honest report, in either form. Checked at
/// decode because a forwarding switch re-encodes what it accepted, and
/// the compact form has a nibble for each.
fn port_bound(v: u16) -> Result<PortIndex, MsgCodecError> {
    if usize::from(v) < MAX_PORTS {
        Ok(v as PortIndex)
    } else {
        Err(MsgCodecError::BadValue)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MsgCodecError> {
        let s = self
            .buf
            .get(self.at..)
            .and_then(|rest| rest.get(..n))
            .ok_or(MsgCodecError::Truncated)?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, MsgCodecError> {
        self.array().map(|[b]| b)
    }

    /// The next `N` bytes. `take(N)` returns exactly `N` or fails, so the
    /// conversion cannot miss; were it to, that too is a short message.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], MsgCodecError> {
        self.take(N)?
            .try_into()
            .map_err(|_| MsgCodecError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, MsgCodecError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, MsgCodecError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, MsgCodecError> {
        self.array().map(u64::from_be_bytes)
    }

    fn uid(&mut self) -> Result<Uid, MsgCodecError> {
        self.array().map(Uid::from_bytes)
    }

    /// A port number inside a topology report.
    fn port(&mut self) -> Result<PortIndex, MsgCodecError> {
        port_bound(self.u8()?.into())
    }

    /// A switch number the root assigned: one that names assigned short
    /// addresses, `1..=MAX_SWITCH_NUMBER`. A table cannot program any
    /// other, so a flood holding one is no topology.
    fn switch_number(&mut self) -> Result<SwitchNumber, MsgCodecError> {
        let num = self.u16()?;
        if (1..=MAX_SWITCH_NUMBER).contains(&num) {
            Ok(num)
        } else {
            Err(MsgCodecError::BadValue)
        }
    }

    fn pos(&mut self) -> Result<TreePosition, MsgCodecError> {
        Ok(TreePosition {
            root: self.uid()?,
            level: self.u32()?,
            parent: self.uid()?,
            parent_port: self.u8()?,
        })
    }

    fn switch_info(&mut self) -> Result<SwitchInfo, MsgCodecError> {
        let uid = self.uid()?;
        let proposed_number: SwitchNumber = self.u16()?;
        let parent = self.uid()?;
        let parent_port = self.port()?;
        let n_links = port_bound(self.u16()?)?;
        let mut links = Vec::with_capacity(n_links.into());
        for _ in 0..n_links {
            links.push(LinkInfo {
                local_port: self.port()?,
                neighbor: self.uid()?,
                neighbor_port: self.port()?,
            });
        }
        let n_hosts = port_bound(self.u16()?)?;
        let mut host_ports = Vec::with_capacity(n_hosts.into());
        for _ in 0..n_hosts {
            host_ports.push(self.port()?);
        }
        Ok(SwitchInfo {
            uid,
            proposed_number,
            parent,
            parent_port,
            links,
            host_ports,
        })
    }

    fn report(&mut self) -> Result<SubtreeReport, MsgCodecError> {
        let n = self.u16()? as usize;
        let mut switches = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            switches.push(self.switch_info()?);
        }
        Ok(SubtreeReport { switches })
    }

    /// Resolves a compact UID reference against the report's UID table.
    fn uid_ref(&mut self, uids: &[Uid]) -> Result<Uid, MsgCodecError> {
        let i = self.u16()?;
        if i == UID_REF_LITERAL {
            self.uid()
        } else {
            uids.get(i as usize).copied().ok_or(MsgCodecError::BadValue)
        }
    }

    /// Two nibble-packed port numbers (or per-switch port counts).
    fn port_pair(&mut self) -> Result<(PortIndex, PortIndex), MsgCodecError> {
        let b = self.u8()?;
        Ok((port_bound((b >> 4).into())?, port_bound((b & 0x0F).into())?))
    }

    fn compact_report(&mut self) -> Result<SubtreeReport, MsgCodecError> {
        let n = self.u16()? as usize;
        let mut uids = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            uids.push(self.uid()?);
        }
        let mut switches = Vec::with_capacity(n.min(4096));
        for &uid in &uids {
            let proposed_number: SwitchNumber = self.u16()?;
            let parent = self.uid_ref(&uids)?;
            let (n_links, n_hosts) = self.port_pair()?;
            let parent_port = self.port()?;
            let mut links = Vec::with_capacity(n_links as usize);
            for _ in 0..n_links {
                let (local_port, neighbor_port) = self.port_pair()?;
                links.push(LinkInfo {
                    local_port,
                    neighbor: self.uid_ref(&uids)?,
                    neighbor_port,
                });
            }
            let mut host_ports = Vec::with_capacity(n_hosts as usize);
            for _ in 0..n_hosts {
                host_ports.push(self.port()?);
            }
            switches.push(SwitchInfo {
                uid,
                proposed_number,
                parent,
                parent_port,
                links,
                host_ports,
            });
        }
        Ok(SubtreeReport { switches })
    }

    fn done(&self) -> Result<(), MsgCodecError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(MsgCodecError::BadValue)
        }
    }
}

impl ControlMsg {
    /// Serializes the message to its payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ControlMsg::Probe {
                seq,
                origin,
                origin_port,
            } => {
                w.u8(1);
                w.u64(*seq);
                w.uid(*origin);
                w.u8(*origin_port);
            }
            ControlMsg::ProbeReply {
                seq,
                origin,
                origin_port,
                responder,
                responder_port,
            } => {
                w.u8(2);
                w.u64(*seq);
                w.uid(*origin);
                w.u8(*origin_port);
                w.uid(*responder);
                w.u8(*responder_port);
            }
            ControlMsg::TreePosition {
                epoch,
                seq,
                from_port,
                pos,
            } => {
                w.u8(3);
                w.u64(epoch.0);
                w.u64(*seq);
                w.u8(*from_port);
                w.pos(pos);
            }
            ControlMsg::TreePositionAck {
                epoch,
                seq,
                is_parent,
                sender_seq,
                sender_from_port,
                sender_pos,
            } => {
                w.u8(4);
                w.u64(epoch.0);
                w.u64(*seq);
                w.u8(u8::from(*is_parent));
                w.u64(*sender_seq);
                w.u8(*sender_from_port);
                w.pos(sender_pos);
            }
            ControlMsg::TopologyReport { epoch, seq, report } => {
                if report.switches.len() > COMPACT_REPORT_THRESHOLD {
                    w.u8(12);
                    w.u64(epoch.0);
                    w.u64(*seq);
                    w.compact_report(&report.switches);
                } else {
                    w.u8(5);
                    w.u64(epoch.0);
                    w.u64(*seq);
                    w.report(&report.switches);
                }
            }
            ControlMsg::TopologyReportAck { epoch, seq } => {
                w.u8(6);
                w.u64(epoch.0);
                w.u64(*seq);
            }
            ControlMsg::TopologyDown { epoch, global } => {
                if global.switches.len() > COMPACT_REPORT_THRESHOLD {
                    w.u8(13);
                    w.u64(epoch.0);
                    w.uid(global.root);
                    w.compact_report(&global.switches);
                    // Number assignments name switches by table index too —
                    // the keys are (almost) exactly the report's UIDs.
                    let idx: std::collections::BTreeMap<Uid, u16> = global
                        .switches
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (s.uid, i as u16))
                        .collect();
                    w.u16(global.numbers.len() as u16);
                    for (&uid, &num) in global.numbers.iter() {
                        w.uid_ref(uid, &idx);
                        w.u16(num);
                    }
                } else {
                    w.u8(7);
                    w.u64(epoch.0);
                    w.uid(global.root);
                    w.report(&global.switches);
                    w.u16(global.numbers.len() as u16);
                    for (&uid, &num) in global.numbers.iter() {
                        w.uid(uid);
                        w.u16(num);
                    }
                }
            }
            ControlMsg::TopologyDownAck { epoch } => {
                w.u8(8);
                w.u64(epoch.0);
            }
            ControlMsg::ShortAddrRequest { host_uid } => {
                return encode_short_addr_request(*host_uid)
            }
            ControlMsg::ShortAddrReply { host_uid, addr } => {
                return encode_short_addr_reply(*host_uid, *addr)
            }
            ControlMsg::Srp {
                route,
                hop,
                back_route,
                payload,
            } => {
                w.u8(11);
                w.u8(route.len() as u8);
                for &p in route {
                    w.u8(p);
                }
                w.u8(*hop);
                w.u8(back_route.len() as u8);
                for &p in back_route {
                    w.u8(p);
                }
                match payload {
                    SrpPayload::Ping => w.u8(0),
                    SrpPayload::Pong { uid, epoch } => {
                        w.u8(1);
                        w.uid(*uid);
                        w.u64(epoch.0);
                    }
                    SrpPayload::GetState => w.u8(2),
                    SrpPayload::State {
                        uid,
                        epoch,
                        good_ports,
                        open,
                    } => {
                        w.u8(3);
                        w.uid(*uid);
                        w.u64(epoch.0);
                        w.u8(*good_ports);
                        w.u8(u8::from(*open));
                    }
                }
            }
        }
        w.buf
    }

    /// Parses a message from its payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<ControlMsg, MsgCodecError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let msg = match tag {
            1 => ControlMsg::Probe {
                seq: r.u64()?,
                origin: r.uid()?,
                origin_port: r.u8()?,
            },
            2 => ControlMsg::ProbeReply {
                seq: r.u64()?,
                origin: r.uid()?,
                origin_port: r.u8()?,
                responder: r.uid()?,
                responder_port: r.u8()?,
            },
            3 => ControlMsg::TreePosition {
                epoch: Epoch(r.u64()?),
                seq: r.u64()?,
                from_port: r.u8()?,
                pos: r.pos()?,
            },
            4 => ControlMsg::TreePositionAck {
                epoch: Epoch(r.u64()?),
                seq: r.u64()?,
                is_parent: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(MsgCodecError::BadValue),
                },
                sender_seq: r.u64()?,
                sender_from_port: r.u8()?,
                sender_pos: r.pos()?,
            },
            5 => ControlMsg::TopologyReport {
                epoch: Epoch(r.u64()?),
                seq: r.u64()?,
                report: r.report()?,
            },
            6 => ControlMsg::TopologyReportAck {
                epoch: Epoch(r.u64()?),
                seq: r.u64()?,
            },
            7 => {
                let epoch = Epoch(r.u64()?);
                let root = r.uid()?;
                let switches = r.report()?.switches;
                let n = r.u16()? as usize;
                let mut numbers = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let uid = r.uid()?;
                    let num = r.switch_number()?;
                    numbers.insert(uid, num);
                }
                ControlMsg::TopologyDown {
                    epoch,
                    global: GlobalTopology {
                        epoch,
                        root,
                        switches: std::sync::Arc::new(switches),
                        numbers: std::sync::Arc::new(numbers),
                    },
                }
            }
            8 => ControlMsg::TopologyDownAck {
                epoch: Epoch(r.u64()?),
            },
            // The two fixed-length service messages: any other length is
            // not one.
            9 => {
                return decode_short_addr_request(bytes)
                    .map(|host_uid| ControlMsg::ShortAddrRequest { host_uid })
                    .ok_or(MsgCodecError::BadValue)
            }
            10 => {
                return decode_short_addr_reply(bytes)
                    .map(|(host_uid, addr)| ControlMsg::ShortAddrReply { host_uid, addr })
                    .ok_or(MsgCodecError::BadValue)
            }
            12 => ControlMsg::TopologyReport {
                epoch: Epoch(r.u64()?),
                seq: r.u64()?,
                report: r.compact_report()?,
            },
            13 => {
                let epoch = Epoch(r.u64()?);
                let root = r.uid()?;
                let report = r.compact_report()?;
                let uids: Vec<Uid> = report.switches.iter().map(|s| s.uid).collect();
                let n = r.u16()? as usize;
                let mut numbers = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let uid = r.uid_ref(&uids)?;
                    let num = r.switch_number()?;
                    numbers.insert(uid, num);
                }
                ControlMsg::TopologyDown {
                    epoch,
                    global: GlobalTopology {
                        epoch,
                        root,
                        switches: std::sync::Arc::new(report.switches),
                        numbers: std::sync::Arc::new(numbers),
                    },
                }
            }
            11 => {
                let n = r.u8()? as usize;
                let mut route = Vec::with_capacity(n);
                for _ in 0..n {
                    route.push(r.u8()?);
                }
                let hop = r.u8()?;
                let n_back = r.u8()? as usize;
                let mut back_route = Vec::with_capacity(n_back);
                for _ in 0..n_back {
                    back_route.push(r.u8()?);
                }
                let payload = match r.u8()? {
                    0 => SrpPayload::Ping,
                    1 => SrpPayload::Pong {
                        uid: r.uid()?,
                        epoch: Epoch(r.u64()?),
                    },
                    2 => SrpPayload::GetState,
                    3 => SrpPayload::State {
                        uid: r.uid()?,
                        epoch: Epoch(r.u64()?),
                        good_ports: r.u8()?,
                        open: match r.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(MsgCodecError::BadValue),
                        },
                    },
                    t => return Err(MsgCodecError::BadTag(t)),
                };
                ControlMsg::Srp {
                    route,
                    hop,
                    back_route,
                    payload,
                }
            }
            t => return Err(MsgCodecError::BadTag(t)),
        };
        r.done()?;
        Ok(msg)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_info() -> SwitchInfo {
        SwitchInfo {
            uid: Uid::new(0xA1),
            proposed_number: 7,
            parent: Uid::new(0xB2),
            parent_port: 3,
            links: vec![
                LinkInfo {
                    local_port: 3,
                    neighbor: Uid::new(0xB2),
                    neighbor_port: 9,
                },
                LinkInfo {
                    local_port: 5,
                    neighbor: Uid::new(0xC3),
                    neighbor_port: 1,
                },
            ],
            host_ports: vec![6, 7, 8],
        }
    }

    /// One message of every variant.
    pub(crate) fn all_samples() -> Vec<ControlMsg> {
        let pos = TreePosition {
            root: Uid::new(1),
            level: 4,
            parent: Uid::new(2),
            parent_port: 11,
        };
        let mut numbers = std::collections::BTreeMap::new();
        numbers.insert(Uid::new(0xA1), 7u16);
        numbers.insert(Uid::new(0xB2), 2u16);
        vec![
            ControlMsg::Probe {
                seq: 42,
                origin: Uid::new(0xF00),
                origin_port: 4,
            },
            ControlMsg::ProbeReply {
                seq: 42,
                origin: Uid::new(0xF00),
                origin_port: 4,
                responder: Uid::new(0xBAA),
                responder_port: 12,
            },
            ControlMsg::TreePosition {
                epoch: Epoch(9),
                seq: 3,
                from_port: 2,
                pos,
            },
            ControlMsg::TreePositionAck {
                epoch: Epoch(9),
                seq: 3,
                is_parent: true,
                sender_seq: 8,
                sender_from_port: 5,
                sender_pos: pos,
            },
            ControlMsg::TopologyReport {
                epoch: Epoch(9),
                seq: 5,
                report: SubtreeReport {
                    switches: vec![sample_info()],
                },
            },
            ControlMsg::TopologyReportAck {
                epoch: Epoch(9),
                seq: 5,
            },
            ControlMsg::TopologyDown {
                epoch: Epoch(9),
                global: GlobalTopology {
                    epoch: Epoch(9),
                    root: Uid::new(1),
                    switches: std::sync::Arc::new(vec![sample_info()]),
                    numbers: std::sync::Arc::new(numbers),
                },
            },
            ControlMsg::TopologyDownAck { epoch: Epoch(9) },
            ControlMsg::ShortAddrRequest {
                host_uid: Uid::new(77),
            },
            ControlMsg::ShortAddrReply {
                host_uid: Uid::new(77),
                addr: ShortAddress::assigned(3, 4),
            },
            ControlMsg::Srp {
                route: vec![1, 4, 2],
                hop: 1,
                back_route: vec![9],
                payload: SrpPayload::State {
                    uid: Uid::new(5),
                    epoch: Epoch(2),
                    good_ports: 4,
                    open: true,
                },
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in all_samples() {
            let bytes = msg.encode();
            let back = ControlMsg::decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn truncation_detected() {
        for msg in all_samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    ControlMsg::decode(&bytes[..cut]).is_err(),
                    "{msg:?} decoded from a {cut}-byte prefix"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = ControlMsg::TopologyDownAck { epoch: Epoch(1) }.encode();
        bytes.push(0);
        assert_eq!(ControlMsg::decode(&bytes), Err(MsgCodecError::BadValue));
    }

    /// A flood numbering a switch 0 or above `MAX_SWITCH_NUMBER` names no
    /// assigned address; both encodings of it are refused.
    #[test]
    fn topology_down_with_an_unassignable_number_is_refused() {
        let line = |n| {
            let topo = autonet_topo::gen::line(n, 0);
            crate::routes::global_from_view_simple(&topo.view_all()).expect("non-empty")
        };
        for (global, tag) in [(line(3), 7), (line(COMPACT_REPORT_THRESHOLD + 1), 13)] {
            let uid = global.switches[1].uid;
            for num in [0, 0xFFF, 0xFFFF] {
                let mut numbers = (*global.numbers).clone();
                numbers.insert(uid, num);
                let msg = ControlMsg::TopologyDown {
                    epoch: global.epoch,
                    global: GlobalTopology {
                        numbers: std::sync::Arc::new(numbers),
                        ..global.clone()
                    },
                };
                let bytes = msg.encode();
                assert_eq!(bytes[0], tag);
                assert_eq!(ControlMsg::decode(&bytes), Err(MsgCodecError::BadValue));
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(ControlMsg::decode(&[200]), Err(MsgCodecError::BadTag(200)));
        assert_eq!(ControlMsg::decode(&[]), Err(MsgCodecError::Truncated));
    }

    /// A dense synthetic report: `n` switches, 12 links each, neighbors
    /// chosen in-table except one boundary link per switch.
    fn big_report(n: u64) -> SubtreeReport {
        let switches = (0..n)
            .map(|i| SwitchInfo {
                uid: Uid::new(1000 + i),
                proposed_number: i as SwitchNumber,
                parent: Uid::new(1000 + (i / 2)),
                parent_port: (i % 12) as PortIndex + 1,
                links: (0..12)
                    .map(|p| LinkInfo {
                        local_port: p + 1,
                        neighbor: if p == 0 {
                            Uid::new(5_000_000 + i) // outside the report
                        } else {
                            Uid::new(1000 + ((i + p as u64 * 7) % n))
                        },
                        neighbor_port: 12 - p,
                    })
                    .collect(),
                host_ports: vec![],
            })
            .collect();
        SubtreeReport { switches }
    }

    #[test]
    fn big_reports_roundtrip_compactly() {
        let report = big_report(1024);
        let msg = ControlMsg::TopologyReport {
            epoch: Epoch(3),
            seq: 1,
            report: report.clone(),
        };
        let bytes = msg.encode();
        assert_eq!(bytes[0], 12, "large report should take the compact tag");
        assert_eq!(ControlMsg::decode(&bytes).expect("decode"), msg);

        // Assigned numbers start at 1; the synthetic proposals start at 0.
        let numbers = report
            .switches
            .iter()
            .map(|s| (s.uid, s.proposed_number + 1))
            .collect();
        let down = ControlMsg::TopologyDown {
            epoch: Epoch(3),
            global: GlobalTopology {
                epoch: Epoch(3),
                root: report.switches[0].uid,
                switches: std::sync::Arc::new(report.switches.clone()),
                numbers: std::sync::Arc::new(numbers),
            },
        };
        let bytes = down.encode();
        assert_eq!(bytes[0], 13, "large flood should take the compact tag");
        assert_eq!(ControlMsg::decode(&bytes).expect("decode"), down);
        // The point of the exercise: a 1024-switch, degree-12 flood must
        // fit the packet format's 64 KB data field.
        assert!(
            bytes.len() <= 64 * 1024,
            "1024-switch TopologyDown is {} bytes",
            bytes.len()
        );
    }

    /// A classic-form (tag 7) flood of `n` switches, written byte by byte
    /// as a hostile sender would: the first switch lists `links` links,
    /// each `(local_port, neighbor_port)`, and `hosts` as its host ports.
    fn classic_flood(n: u16, parent_port: u8, links: &[(u8, u8)], hosts: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(7);
        w.u64(3);
        w.uid(Uid::new(1000));
        w.u16(n);
        for i in 0..u64::from(n) {
            w.uid(Uid::new(1000 + i));
            w.u16(i as u16);
            w.uid(Uid::new(1000));
            w.u8(if i == 0 { parent_port } else { 1 });
            let (links, hosts) = if i == 0 {
                (links, hosts)
            } else {
                (&[][..], &[][..])
            };
            w.u16(links.len() as u16);
            for &(local, far) in links {
                w.u8(local);
                w.uid(Uid::new(1001));
                w.u8(far);
            }
            w.u16(hosts.len() as u16);
            for &p in hosts {
                w.u8(p);
            }
        }
        w.u16(0);
        w.buf
    }

    #[test]
    fn out_of_range_ports_and_counts_are_rejected_at_decode() {
        // The reproducer: more than 128 switches in the classic form, one
        // port past the nibble. It used to decode `Ok` and then panic the
        // forwarding switch in the compact re-encode ("port out of nibble
        // range: 200/3").
        let bad = MsgCodecError::BadValue;
        assert_eq!(
            ControlMsg::decode(&classic_flood(130, 0, &[(200, 3)], &[])),
            Err(bad)
        );
        // Every bounded field, at the first value out of range.
        let max = MAX_PORTS as u8;
        let full = [(1, 1); MAX_PORTS];
        for (parent_port, links, hosts) in [
            (max, &[][..], &[][..]),
            (0, &[(max, 1)][..], &[][..]),
            (0, &[(1, max)][..], &[][..]),
            (0, &[][..], &[max][..]),
            (0, &full[..], &[][..]),
            (0, &[][..], &[1; MAX_PORTS][..]),
        ] {
            let bytes = classic_flood(130, parent_port, links, hosts);
            assert_eq!(
                ControlMsg::decode(&bytes),
                Err(bad),
                "{parent_port} {links:?} {hosts:?}"
            );
        }
        // The compact form's nibbles reach 15: flip one of a valid
        // encoding's port pairs past the last port.
        let down = ControlMsg::TopologyDown {
            epoch: Epoch(3),
            global: GlobalTopology {
                epoch: Epoch(3),
                root: Uid::new(1000),
                switches: std::sync::Arc::new(big_report(130).switches),
                numbers: Default::default(),
            },
        };
        let mut bytes = down.encode();
        let first_entry = 1 + 8 + 6 + 2 + 6 * 130;
        let counts = first_entry + 2 + 2; // proposed number, in-table parent
        assert_eq!(bytes[counts], 12 << 4, "12 links, no host ports");
        bytes[counts] = 13 << 4;
        assert_eq!(ControlMsg::decode(&bytes), Err(bad));
        // At the bounds, both forms decode and re-encode.
        let edge = &[(max - 1, max - 1); MAX_PORTS - 1];
        let bytes = classic_flood(130, max - 1, edge, &[max - 1; MAX_PORTS - 1]);
        let msg = ControlMsg::decode(&bytes).expect("in range");
        assert_eq!(ControlMsg::decode(&msg.encode()), Ok(msg));
    }

    #[test]
    fn small_reports_keep_the_classic_bytes() {
        // Networks at or below the threshold — every golden trace, every
        // paper-scale experiment — must encode exactly as before, so
        // transmission and CPU charges (hence timestamps) are unchanged.
        let report = big_report(COMPACT_REPORT_THRESHOLD as u64);
        let msg = ControlMsg::TopologyReport {
            epoch: Epoch(3),
            seq: 1,
            report,
        };
        let bytes = msg.encode();
        assert_eq!(bytes[0], 5, "threshold-sized report keeps the classic tag");
        assert_eq!(ControlMsg::decode(&bytes).expect("decode"), msg);
    }

    #[test]
    fn compact_encoding_beats_classic_per_switch_cost() {
        let report = big_report(1024);
        let classic_estimate: usize = report
            .switches
            .iter()
            .map(|s| 6 + 2 + 6 + 1 + 2 + s.links.len() * 8 + 2 + s.host_ports.len())
            .sum();
        let msg = ControlMsg::TopologyReport {
            epoch: Epoch(3),
            seq: 1,
            report,
        };
        let compact = msg.encode().len();
        assert!(
            compact < classic_estimate / 2,
            "compact {compact} vs classic ≈ {classic_estimate}"
        );
    }

    #[test]
    fn tree_position_is_small() {
        // Tree-position packets are the hot reconfiguration traffic; make
        // sure they stay compact (they fit easily in a minimal packet).
        let msg = ControlMsg::TreePosition {
            epoch: Epoch(1),
            seq: 1,
            from_port: 1,
            pos: TreePosition::myself(Uid::new(1)),
        };
        let bytes = msg.encode().len();
        assert!(bytes <= 64, "{bytes} bytes");
    }
}

//! The synchronous slot-level engine.

use std::collections::VecDeque;

use autonet_sim::SimRng;
use autonet_wire::{
    Command, FifoEntry, PortIndex, ReceiveFifo, ShortAddress, Symbol, FLOW_CONTROL_INTERVAL,
    MAX_PORTS,
};

use crate::forwarding::ForwardingTable;
use crate::portset::PortSet;
use crate::scheduler::{FcfcScheduler, FcfsScheduler, Request, Scheduler};
use crate::status::LinkUnitStatus;

use super::{
    DatapathConfig, DatapathStats, Delivery, DpHostId, DpSwitchId, PacketTag, PendingSend,
    RunOutcome, SchedulingRecord, Transit,
};

/// Tag placeholder for symbols that do not carry one.
const NO_TAG: PacketTag = PacketTag(u32::MAX);

/// Bytes of a packet that must be buffered before forwarding may begin
/// (paper §3.5: cut-through after 25 bytes).
const CUT_THROUGH_BYTES: usize = 25;
/// Slots per router decision (paper: 6 slots = 480 ns).
const ROUTER_DECISION_SLOTS: u64 = 6;
/// Entries per slot drained when discarding a packet.
const DISCARD_DRAIN_RATE: usize = 1;

/// One symbol in flight, with simulation-only metadata carried by `begin`
/// symbols: the packet tag (instrumentation) and the receive port of the
/// transmitting switch (so a control-processor endpoint learns "the port
/// on which the packet arrived", §6.3).
#[derive(Clone, Copy, Debug)]
struct WireSym {
    sym: Symbol,
    tag: PacketTag,
    in_port: PortIndex,
}

impl WireSym {
    fn sync() -> Self {
        WireSym {
            sym: Symbol::SYNC,
            tag: NO_TAG,
            in_port: 0,
        }
    }

    fn cmd(c: Command) -> Self {
        WireSym {
            sym: Symbol::Command(c),
            tag: NO_TAG,
            in_port: 0,
        }
    }
}

/// Where a channel terminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Endpoint {
    Switch { id: usize, port: PortIndex },
    Host { id: usize },
}

/// One unidirectional channel: a fixed-length symbol delay line.
struct Channel {
    to: Endpoint,
    line: VecDeque<WireSym>,
}

/// Reception bookkeeping for one packet resident in a receive FIFO.
#[derive(Clone, Copy, Debug)]
struct RxPacket {
    tag: PacketTag,
    in_tick: u64,
    /// Entries of this packet currently buffered in the FIFO.
    buffered: usize,
    /// The `end` symbol has arrived (it may still be buffered).
    fully_received: bool,
    /// A forwarding request (or discard decision) has been made.
    requested: bool,
}

/// One port of a simulated switch.
struct SwitchPort {
    rx_channel: Option<usize>,
    tx_channel: Option<usize>,
    fifo: ReceiveFifo,
    rx_pkts: VecDeque<RxPacket>,
    /// Between `begin` and `end` at the receiver.
    receiving: bool,
    /// Last flow-control directive received allows transmission.
    xmit_allowed: bool,
    /// The head packet is being drained to nowhere.
    discarding: bool,
    /// The pollable hardware status register (§6.5.2).
    status: LinkUnitStatus,
    /// Whether any packet has ever arrived (for `ProgressSeen`'s "or has
    /// seen no packets" clause).
    seen_packets: bool,
    /// Bytes were forwarded out of the FIFO since the last status read.
    forwarded_since_read: bool,
    /// FIFO overflow count at the last status read.
    overflows_at_read: u64,
    /// The control processor instructed this port to send `idhy` in place
    /// of normal flow control (ports classified `s.dead`, §6.5.3).
    send_idhy: bool,
    /// Injected code-violation noise: probability per received symbol (as
    /// parts per million) of latching `BadCode`.
    noise: Option<(SimRng, u32)>,
}

impl SwitchPort {
    fn new(cfg: &DatapathConfig) -> Self {
        SwitchPort {
            rx_channel: None,
            tx_channel: None,
            fifo: ReceiveFifo::new(cfg.fifo_capacity, cfg.fifo_free_fraction),
            rx_pkts: VecDeque::new(),
            receiving: false,
            xmit_allowed: true,
            discarding: false,
            status: LinkUnitStatus::new(),
            seen_packets: false,
            forwarded_since_read: false,
            overflows_at_read: 0,
            send_idhy: false,
            noise: None,
        }
    }
}

/// An active crossbar connection.
#[derive(Clone, Copy, Debug)]
struct Connection {
    in_port: PortIndex,
    out_ports: PortSet,
    broadcast: bool,
    tag: PacketTag,
    in_tick: u64,
    begun: bool,
    /// Last tick this connection moved a symbol (for stall aborts).
    last_progress: u64,
}

/// Either scheduling engine, chosen by configuration.
enum SchedKind {
    Fcfc(FcfcScheduler),
    Fcfs(FcfsScheduler),
}

impl SchedKind {
    fn as_dyn(&mut self) -> &mut dyn Scheduler {
        match self {
            SchedKind::Fcfc(s) => s,
            SchedKind::Fcfs(s) => s,
        }
    }
}

/// A simulated switch.
struct SwitchNode {
    ports: Vec<SwitchPort>,
    table: ForwardingTable,
    sched: SchedKind,
    connections: Vec<Connection>,
    out_busy: PortSet,
    /// Per-port pending-request bookkeeping: (submit tick, broadcast, tag).
    pending: Vec<Option<(u64, bool, PacketTag)>>,
}

/// Transmission progress of a host's current packet.
#[derive(Clone, Debug)]
struct TxState {
    tag: PacketTag,
    dst: ShortAddress,
    len: usize,
    sent: usize,
    broadcast: bool,
    begun: bool,
    raw: Option<Vec<u8>>,
}

/// A simulated traffic endpoint.
struct HostNode {
    tx_channel: Option<usize>,
    tx_queue: VecDeque<PendingSend>,
    tx: Option<TxState>,
    xmit_allowed: bool,
    rx_current: Option<(PacketTag, usize)>,
    /// Whether deliveries keep their bytes (control-processor endpoints).
    record_payloads: bool,
    /// Receive assembly buffer (when recording payloads).
    rx_buf: Vec<u8>,
    /// The transmitting switch's receive port, from the begin symbol.
    rx_in_port: PortIndex,
}

/// The slot-level datapath simulator. See the [module docs](super) for the
/// model; construct with [`DatapathSim::new`], wire with
/// [`connect_switches`](DatapathSim::connect_switches) /
/// [`connect_host`](DatapathSim::connect_host), program forwarding tables
/// via [`table_mut`](DatapathSim::table_mut), inject with
/// [`send`](DatapathSim::send) and drive with [`run`](DatapathSim::run) or
/// [`run_until_drained`](DatapathSim::run_until_drained).
///
/// # Examples
///
/// ```
/// use autonet_switch::datapath::{DatapathConfig, DatapathSim, RunOutcome};
/// use autonet_switch::{ForwardingEntry, PortSet};
/// use autonet_wire::ShortAddress;
///
/// let mut sim = DatapathSim::new(DatapathConfig::default());
/// let s = sim.add_switch();
/// let a = sim.add_host();
/// let b = sim.add_host();
/// sim.connect_host(a, s, 1, 7);
/// sim.connect_host(b, s, 2, 7);
/// let dst = ShortAddress::from_raw(0x0100);
/// sim.table_mut(s).set(1, dst, ForwardingEntry::alternatives(PortSet::single(2)));
/// sim.send(a, dst, 100, false);
/// assert_eq!(sim.run_until_drained(100_000, 2_048), RunOutcome::Drained);
/// assert_eq!(sim.deliveries().len(), 1);
/// ```
pub struct DatapathSim {
    cfg: DatapathConfig,
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
    channels: Vec<Channel>,
    tick: u64,
    next_tag: u32,
    stats: DatapathStats,
    deliveries: Vec<Delivery>,
    transits: Vec<Transit>,
    sched_records: Vec<SchedulingRecord>,
    /// Set when any FIFO pop/push or non-sync reception happened this tick.
    progressed: bool,
}

impl DatapathSim {
    /// Creates an empty simulation.
    pub fn new(cfg: DatapathConfig) -> Self {
        DatapathSim {
            cfg,
            switches: Vec::new(),
            hosts: Vec::new(),
            channels: Vec::new(),
            tick: 0,
            next_tag: 0,
            stats: DatapathStats::default(),
            deliveries: Vec::new(),
            transits: Vec::new(),
            sched_records: Vec::new(),
            progressed: false,
        }
    }

    /// Adds a switch with an empty forwarding table.
    pub fn add_switch(&mut self) -> DpSwitchId {
        let ports = (0..MAX_PORTS).map(|_| SwitchPort::new(&self.cfg)).collect();
        let sched = if self.cfg.use_fcfs_scheduler {
            SchedKind::Fcfs(FcfsScheduler::new())
        } else {
            SchedKind::Fcfc(FcfcScheduler::new())
        };
        self.switches.push(SwitchNode {
            ports,
            table: ForwardingTable::new(),
            sched,
            connections: Vec::new(),
            out_busy: PortSet::EMPTY,
            pending: vec![None; MAX_PORTS],
        });
        DpSwitchId(self.switches.len() - 1)
    }

    /// Adds a traffic endpoint.
    pub fn add_host(&mut self) -> DpHostId {
        self.hosts.push(HostNode {
            tx_channel: None,
            tx_queue: VecDeque::new(),
            tx: None,
            xmit_allowed: true,
            rx_current: None,
            record_payloads: false,
            rx_buf: Vec::new(),
            rx_in_port: 0,
        });
        DpHostId(self.hosts.len() - 1)
    }

    fn new_channel(&mut self, to: Endpoint, latency_slots: usize) -> usize {
        assert!(latency_slots >= 1, "latency must be at least one slot");
        let line = (0..latency_slots).map(|_| WireSym::sync()).collect();
        self.channels.push(Channel { to, line });
        self.channels.len() - 1
    }

    /// Cables port `pa` of `a` to port `pb` of `b` with the given one-way
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if a port is out of range, is port 0, or is already cabled.
    pub fn connect_switches(
        &mut self,
        a: DpSwitchId,
        pa: PortIndex,
        b: DpSwitchId,
        pb: PortIndex,
        latency_slots: usize,
    ) {
        self.check_free_port(a, pa);
        self.check_free_port(b, pb);
        let a_to_b = self.new_channel(Endpoint::Switch { id: b.0, port: pb }, latency_slots);
        let b_to_a = self.new_channel(Endpoint::Switch { id: a.0, port: pa }, latency_slots);
        self.switches[a.0].ports[pa as usize].tx_channel = Some(a_to_b);
        self.switches[a.0].ports[pa as usize].rx_channel = Some(b_to_a);
        self.switches[b.0].ports[pb as usize].tx_channel = Some(b_to_a);
        self.switches[b.0].ports[pb as usize].rx_channel = Some(a_to_b);
    }

    /// Cables host `h` to port `port` of switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if the port is invalid/occupied or the host is already cabled.
    pub fn connect_host(
        &mut self,
        h: DpHostId,
        s: DpSwitchId,
        port: PortIndex,
        latency_slots: usize,
    ) {
        self.check_free_port(s, port);
        assert!(
            self.hosts[h.0].tx_channel.is_none(),
            "host {h:?} already cabled"
        );
        let h_to_s = self.new_channel(Endpoint::Switch { id: s.0, port }, latency_slots);
        let s_to_h = self.new_channel(Endpoint::Host { id: h.0 }, latency_slots);
        self.hosts[h.0].tx_channel = Some(h_to_s);
        self.switches[s.0].ports[port as usize].tx_channel = Some(s_to_h);
        self.switches[s.0].ports[port as usize].rx_channel = Some(h_to_s);
    }

    /// Attaches a control-processor endpoint to port 0 of a switch: the
    /// CP's link unit connects through the crossbar like any other port
    /// (§5.1), so CP packets ride the ordinary forwarding machinery. The
    /// returned endpoint records full payloads and arrival ports.
    pub fn connect_cp(&mut self, s: DpSwitchId) -> DpHostId {
        let port = &self.switches[s.0].ports[0];
        assert!(
            port.rx_channel.is_none() && port.tx_channel.is_none(),
            "control processor already attached to {s:?}"
        );
        let h = self.add_host();
        self.hosts[h.0].record_payloads = true;
        let h_to_s = self.new_channel(Endpoint::Switch { id: s.0, port: 0 }, 1);
        let s_to_h = self.new_channel(Endpoint::Host { id: h.0 }, 1);
        self.hosts[h.0].tx_channel = Some(h_to_s);
        self.switches[s.0].ports[0].tx_channel = Some(s_to_h);
        self.switches[s.0].ports[0].rx_channel = Some(h_to_s);
        h
    }

    /// Queues explicit wire bytes for transmission (the first two bytes
    /// must be the destination short address, as the router reads them).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the two address bytes.
    pub fn send_raw(&mut self, h: DpHostId, bytes: Vec<u8>, broadcast: bool) -> PacketTag {
        assert!(
            bytes.len() >= 2,
            "a packet carries at least its address bytes"
        );
        let dst = ShortAddress::from_bytes([bytes[0], bytes[1]]);
        let tag = PacketTag(self.next_tag);
        self.next_tag += 1;
        self.hosts[h.0].tx_queue.push_back(PendingSend {
            tag,
            dst,
            len: bytes.len(),
            broadcast,
            raw: Some(bytes),
        });
        tag
    }

    /// Reads (and clears the accumulated bits of) a port's hardware status
    /// register, exactly as the control processor's status sampler does.
    pub fn read_port_status(&mut self, s: DpSwitchId, port: PortIndex) -> LinkUnitStatus {
        let in_packet = self.switches[s.0]
            .connections
            .iter()
            .any(|c| c.out_ports.contains(port));
        let sw = &mut self.switches[s.0];
        let p = &mut sw.ports[port as usize];
        p.status.in_packet = in_packet;
        p.status.xmit_ok = p.xmit_allowed;
        p.status.overflow = p.fifo.overflows() > p.overflows_at_read;
        p.overflows_at_read = p.fifo.overflows();
        p.status.progress_seen = p.forwarded_since_read || !p.seen_packets;
        p.forwarded_since_read = false;
        p.status.read_and_clear()
    }

    /// Instructs a link unit to send `idhy` in place of normal flow
    /// control (what the control processor does for `s.dead` ports).
    pub fn set_port_idhy(&mut self, s: DpSwitchId, port: PortIndex, on: bool) {
        self.switches[s.0].ports[port as usize].send_idhy = on;
    }

    /// Injects code-violation noise on a receive port: each arriving
    /// symbol latches `BadCode` with probability `rate_ppm` per million.
    pub fn set_port_noise(&mut self, s: DpSwitchId, port: PortIndex, rate_ppm: u32, seed: u64) {
        self.switches[s.0].ports[port as usize].noise = if rate_ppm == 0 {
            None
        } else {
            Some((SimRng::new(seed), rate_ppm))
        };
    }

    fn check_free_port(&self, s: DpSwitchId, p: PortIndex) {
        assert!(
            (1..MAX_PORTS).contains(&(p as usize)),
            "port {p} out of range (port 0 is the control processor)"
        );
        let port = &self.switches[s.0].ports[p as usize];
        assert!(
            port.rx_channel.is_none() && port.tx_channel.is_none(),
            "port {p} of {s:?} already cabled"
        );
    }

    /// The forwarding table of a switch, for programming routes.
    pub fn table_mut(&mut self, s: DpSwitchId) -> &mut ForwardingTable {
        &mut self.switches[s.0].table
    }

    /// Queues a packet of `len` data bytes (including the two address
    /// bytes) for transmission by host `h`. `broadcast` marks the packet as
    /// one whose transmitters apply the ignore-stop rule (when enabled).
    ///
    /// # Panics
    ///
    /// Panics if `len < 2`.
    pub fn send(
        &mut self,
        h: DpHostId,
        dst: ShortAddress,
        len: usize,
        broadcast: bool,
    ) -> PacketTag {
        assert!(len >= 2, "a packet carries at least its address bytes");
        let tag = PacketTag(self.next_tag);
        self.next_tag += 1;
        self.hosts[h.0].tx_queue.push_back(PendingSend {
            tag,
            dst,
            len,
            broadcast,
            raw: None,
        });
        tag
    }

    /// The current slot number.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Completed deliveries so far.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Per-switch transit latency records.
    pub fn transits(&self) -> &[Transit] {
        &self.transits
    }

    /// Router-scheduling interactions.
    pub fn scheduling_records(&self) -> &[SchedulingRecord] {
        &self.sched_records
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DatapathStats {
        &self.stats
    }

    /// High-water mark of the receive FIFO at (`s`, `port`).
    pub fn fifo_max_occupancy(&self, s: DpSwitchId, port: PortIndex) -> usize {
        self.switches[s.0].ports[port as usize].fifo.max_occupancy()
    }

    /// Returns `true` if any packet data remains anywhere in the network.
    pub fn in_flight(&self) -> bool {
        self.hosts
            .iter()
            .any(|h| h.tx.is_some() || !h.tx_queue.is_empty() || h.rx_current.is_some())
            || self.switches.iter().any(|s| {
                !s.connections.is_empty()
                    || s.ports
                        .iter()
                        .any(|p| !p.fifo.is_empty() || !p.rx_pkts.is_empty() || p.receiving)
            })
            || self.channels.iter().any(|c| {
                c.line.iter().any(|w| {
                    w.sym != Symbol::SYNC
                        && !matches!(w.sym, Symbol::Command(cmd) if cmd.is_flow_control())
                })
            })
    }

    /// Advances one slot.
    pub fn step(&mut self) {
        self.progressed = false;
        self.phase_receive();
        self.phase_route();
        self.phase_discard_drain();
        self.phase_transmit();
        if self.progressed {
            self.stats.productive_ticks += 1;
        }
        self.tick += 1;
    }

    /// Advances `slots` slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Runs until all traffic drains, deadlock is detected (no data moves
    /// for `watchdog_slots` while packets remain), or the tick budget is
    /// exhausted.
    pub fn run_until_drained(&mut self, max_slots: u64, watchdog_slots: u64) -> RunOutcome {
        let mut idle = 0u64;
        for _ in 0..max_slots {
            self.step();
            if self.progressed {
                idle = 0;
            } else {
                idle += 1;
                if idle >= watchdog_slots {
                    return if self.in_flight() {
                        RunOutcome::Deadlocked
                    } else {
                        RunOutcome::Drained
                    };
                }
            }
            if !self.in_flight() {
                return RunOutcome::Drained;
            }
        }
        RunOutcome::Budget
    }

    fn is_fc_slot(&self) -> bool {
        self.tick % FLOW_CONTROL_INTERVAL == FLOW_CONTROL_INTERVAL - 1
    }

    // ----- Phase A: reception -------------------------------------------

    fn phase_receive(&mut self) {
        for ch in 0..self.channels.len() {
            let Some(ws) = self.channels[ch].line.pop_front() else {
                continue;
            };
            match self.channels[ch].to {
                Endpoint::Switch { id, port } => self.switch_receive(id, port, ws),
                Endpoint::Host { id } => self.host_receive(id, ws),
            }
        }
    }

    fn switch_receive(&mut self, s: usize, port: PortIndex, ws: WireSym) {
        let tick = self.tick;
        let p = &mut self.switches[s].ports[port as usize];
        // Injected line noise: a code violation latches BadCode (the TAXI
        // receiver's violation report); the symbol itself still lands, so
        // noise only perturbs the status fingerprint, not framing.
        if let Some((rng, rate)) = p.noise.as_mut() {
            if rng.below(1_000_000) < *rate as u64 {
                p.status.bad_code = true;
            }
        }
        match ws.sym {
            Symbol::Command(Command::Sync) => {}
            Symbol::Command(Command::Start) => {
                p.xmit_allowed = true;
                p.status.is_host = false;
                p.status.start_seen = true;
            }
            Symbol::Command(Command::Host) => {
                p.xmit_allowed = true;
                p.status.is_host = true;
                p.status.start_seen = true;
            }
            Symbol::Command(Command::Stop) => {
                p.xmit_allowed = false;
                p.status.is_host = false;
            }
            Symbol::Command(Command::Idhy) => {
                // The far end condemns this link; do not transmit into it.
                p.xmit_allowed = false;
                p.status.idhy_seen = true;
            }
            Symbol::Command(Command::Panic) => {
                p.status.panic_seen = true;
            }
            Symbol::Command(Command::Begin) => {
                if p.receiving {
                    // begin inside a packet: improper framing.
                    p.status.bad_syntax = true;
                }
                p.receiving = true;
                p.seen_packets = true;
                p.rx_pkts.push_back(RxPacket {
                    tag: ws.tag,
                    in_tick: tick,
                    buffered: 0,
                    fully_received: false,
                    requested: false,
                });
                self.progressed = true;
            }
            Symbol::Command(Command::End) => {
                if p.receiving {
                    if p.fifo.push(FifoEntry::End) {
                        if let Some(rx) = p.rx_pkts.back_mut() {
                            rx.buffered += 1;
                            rx.fully_received = true;
                        }
                    } else {
                        self.stats.fifo_overflows += 1;
                        if let Some(rx) = p.rx_pkts.back_mut() {
                            rx.fully_received = true;
                        }
                    }
                    p.receiving = false;
                    self.progressed = true;
                } else {
                    // end without begin: improper framing.
                    p.status.bad_syntax = true;
                }
            }
            Symbol::Data(b) => {
                if p.receiving {
                    if p.fifo.push(FifoEntry::Byte(b)) {
                        if let Some(rx) = p.rx_pkts.back_mut() {
                            rx.buffered += 1;
                        }
                    } else {
                        self.stats.fifo_overflows += 1;
                    }
                    self.progressed = true;
                } else {
                    // Data outside a packet is a syntax error.
                    p.status.bad_syntax = true;
                }
            }
        }
    }

    fn host_receive(&mut self, h: usize, ws: WireSym) {
        let tick = self.tick;
        let host = &mut self.hosts[h];
        match ws.sym {
            Symbol::Command(Command::Start) | Symbol::Command(Command::Host) => {
                host.xmit_allowed = true;
            }
            Symbol::Command(Command::Stop) => host.xmit_allowed = false,
            Symbol::Command(Command::Begin) => {
                host.rx_current = Some((ws.tag, 0));
                host.rx_in_port = ws.in_port;
                if host.record_payloads {
                    host.rx_buf.clear();
                }
                self.progressed = true;
            }
            Symbol::Command(Command::End) => {
                if let Some((tag, len)) = host.rx_current.take() {
                    let payload = if host.record_payloads {
                        Some(std::mem::take(&mut host.rx_buf))
                    } else {
                        None
                    };
                    self.deliveries.push(Delivery {
                        tag,
                        host: DpHostId(h),
                        tick,
                        len,
                        arrival_port: host.rx_in_port,
                        payload,
                    });
                    self.stats.delivered += 1;
                    self.progressed = true;
                }
            }
            Symbol::Data(b) => {
                if let Some((_, len)) = host.rx_current.as_mut() {
                    *len += 1;
                    if host.record_payloads {
                        host.rx_buf.push(b);
                    }
                    self.progressed = true;
                }
            }
            _ => {}
        }
    }

    // ----- Phase B: routing ---------------------------------------------

    fn phase_route(&mut self) {
        let tick = self.tick;
        let run_round = tick.is_multiple_of(ROUTER_DECISION_SLOTS);
        for si in 0..self.switches.len() {
            // Submit forwarding requests for ports whose head packet has
            // buffered enough for cut-through (port 0 is the control
            // processor's own link unit and participates like any other).
            for pi in 0..MAX_PORTS {
                let sw = &mut self.switches[si];
                let port = &mut sw.ports[pi];
                if port.rx_channel.is_none() || port.discarding {
                    continue;
                }
                let Some(head) = port.rx_pkts.front() else {
                    continue;
                };
                if head.requested {
                    continue;
                }
                if head.buffered < CUT_THROUGH_BYTES && !head.fully_received {
                    continue;
                }
                // The head packet's first two entries are its address bytes.
                let (Some(FifoEntry::Byte(hi)), Some(FifoEntry::Byte(lo))) =
                    (port.fifo.peek_at(0), port.fifo.peek_at(1))
                else {
                    // Too short to carry an address: discard it.
                    port.rx_pkts.front_mut().expect("head exists").requested = true;
                    port.discarding = true;
                    continue;
                };
                let dst = ShortAddress::from_bytes([hi, lo]);
                let entry = sw.table.lookup(pi as PortIndex, dst);
                let head = sw.ports[pi].rx_pkts.front_mut().expect("head exists");
                head.requested = true;
                if entry.is_discard() {
                    sw.ports[pi].discarding = true;
                } else {
                    let tag = head.tag;
                    let ok = sw.sched.as_dyn().enqueue(Request {
                        in_port: pi as PortIndex,
                        ports: entry.ports,
                        broadcast: entry.broadcast,
                    });
                    debug_assert!(ok, "one head packet per port implies one request");
                    sw.pending[pi] = Some((tick, entry.broadcast, tag));
                }
            }
            // Run one scheduler round at the router's decision rate.
            if run_round {
                let sw = &mut self.switches[si];
                let mut free = PortSet::EMPTY;
                for pi in 0..MAX_PORTS {
                    if sw.ports[pi].tx_channel.is_some() && !sw.out_busy.contains(pi as PortIndex) {
                        free.insert(pi as PortIndex);
                    }
                }
                if let Some(grant) = sw.sched.as_dyn().round(free) {
                    let (submit, broadcast, tag) = sw.pending[grant.in_port as usize]
                        .take()
                        .expect("granted request was pending");
                    self.sched_records.push(SchedulingRecord {
                        switch: DpSwitchId(si),
                        in_port: grant.in_port,
                        broadcast,
                        submit_tick: submit,
                        grant_tick: tick,
                    });
                    let in_tick = sw.ports[grant.in_port as usize]
                        .rx_pkts
                        .front()
                        .expect("head packet present")
                        .in_tick;
                    sw.out_busy = sw.out_busy.union(grant.out_ports);
                    sw.connections.push(Connection {
                        in_port: grant.in_port,
                        out_ports: grant.out_ports,
                        broadcast,
                        tag,
                        in_tick,
                        begun: false,
                        last_progress: tick,
                    });
                }
            }
        }
    }

    // ----- Phase B2: discard drain --------------------------------------

    fn phase_discard_drain(&mut self) {
        for sw in &mut self.switches {
            for pi in 0..MAX_PORTS {
                let port = &mut sw.ports[pi];
                if !port.discarding {
                    continue;
                }
                for _ in 0..DISCARD_DRAIN_RATE {
                    match port.fifo.pop() {
                        Some(FifoEntry::End) => {
                            port.rx_pkts.pop_front();
                            port.discarding = false;
                            self.stats.discarded += 1;
                            self.progressed = true;
                            break;
                        }
                        Some(FifoEntry::Byte(_)) => {
                            if let Some(head) = port.rx_pkts.front_mut() {
                                head.buffered = head.buffered.saturating_sub(1);
                            }
                            self.progressed = true;
                        }
                        None => break,
                    }
                }
            }
        }
    }

    // ----- Phase C: transmission ----------------------------------------

    fn phase_transmit(&mut self) {
        let fc_slot = self.is_fc_slot();
        let tick = self.tick;
        // Collect (channel, symbol) sends, then push, to keep borrows simple.
        let mut sends: Vec<(usize, WireSym)> = Vec::with_capacity(self.channels.len());

        for si in 0..self.switches.len() {
            let ignore_stop = self.cfg.broadcast_ignores_stop;
            let sw = &mut self.switches[si];
            let mut driven = PortSet::EMPTY;
            if fc_slot {
                // Every cabled transmit port sends the directive derived
                // from its own receive FIFO (the reverse channel rule);
                // ports condemned by the control processor send idhy.
                for pi in 0..MAX_PORTS {
                    if let Some(tx) = sw.ports[pi].tx_channel {
                        let cmd = if sw.ports[pi].send_idhy {
                            Command::Idhy
                        } else if sw.ports[pi].fifo.above_stop_threshold() {
                            Command::Stop
                        } else {
                            Command::Start
                        };
                        sends.push((tx, WireSym::cmd(cmd)));
                        driven.insert(pi as PortIndex);
                    }
                }
            } else {
                // Advance each connection at most one entry.
                let mut finished: Vec<usize> = Vec::new();
                for (ci, conn) in sw.connections.iter_mut().enumerate() {
                    let allowed = conn.out_ports.iter().all(|p| {
                        sw.ports[p as usize].xmit_allowed || (conn.broadcast && ignore_stop)
                    });
                    let out_channels: Vec<usize> = conn
                        .out_ports
                        .iter()
                        .map(|p| {
                            sw.ports[p as usize]
                                .tx_channel
                                .expect("granted ports are cabled")
                        })
                        .collect();
                    for p in conn.out_ports.iter() {
                        driven.insert(p);
                    }
                    if !allowed {
                        if let Some(limit) = self.cfg.stall_abort_slots {
                            if tick.saturating_sub(conn.last_progress) > limit {
                                // Control software clears the backup: end
                                // the truncated frame and discard the rest.
                                for &tx in &out_channels {
                                    sends.push((tx, WireSym::cmd(Command::End)));
                                }
                                sw.ports[conn.in_port as usize].discarding = true;
                                finished.push(ci);
                                continue;
                            }
                        }
                        for &tx in &out_channels {
                            sends.push((tx, WireSym::sync()));
                        }
                        continue;
                    }
                    if !conn.begun {
                        conn.begun = true;
                        conn.last_progress = tick;
                        self.transits.push(Transit {
                            tag: conn.tag,
                            switch: DpSwitchId(si),
                            in_tick: conn.in_tick,
                            out_tick: tick,
                        });
                        for &tx in &out_channels {
                            sends.push((
                                tx,
                                WireSym {
                                    sym: Symbol::Command(Command::Begin),
                                    tag: conn.tag,
                                    in_port: conn.in_port,
                                },
                            ));
                        }
                        continue;
                    }
                    match sw.ports[conn.in_port as usize].fifo.pop() {
                        Some(FifoEntry::Byte(b)) => {
                            conn.last_progress = tick;
                            let src = &mut sw.ports[conn.in_port as usize];
                            src.forwarded_since_read = true;
                            if let Some(head) = src.rx_pkts.front_mut() {
                                head.buffered = head.buffered.saturating_sub(1);
                            }
                            self.progressed = true;
                            for &tx in &out_channels {
                                sends.push((
                                    tx,
                                    WireSym {
                                        sym: Symbol::Data(b),
                                        tag: NO_TAG,
                                        in_port: 0,
                                    },
                                ));
                            }
                        }
                        Some(FifoEntry::End) => {
                            let src = &mut sw.ports[conn.in_port as usize];
                            src.forwarded_since_read = true;
                            src.rx_pkts.pop_front();
                            self.progressed = true;
                            for &tx in &out_channels {
                                sends.push((tx, WireSym::cmd(Command::End)));
                            }
                            finished.push(ci);
                        }
                        None => {
                            // Cut-through underrun: upstream is stalled, so
                            // the transmitter idles inside the packet.
                            for &tx in &out_channels {
                                sends.push((tx, WireSym::sync()));
                            }
                        }
                    }
                }
                for &ci in finished.iter().rev() {
                    let conn = sw.connections.remove(ci);
                    sw.out_busy = sw.out_busy.minus(conn.out_ports);
                }
            }
            // Idle cabled ports emit sync.
            for pi in 0..MAX_PORTS {
                if driven.contains(pi as PortIndex) {
                    continue;
                }
                if let Some(tx) = sw.ports[pi].tx_channel {
                    sends.push((tx, WireSym::sync()));
                }
            }
        }

        for hi in 0..self.hosts.len() {
            let ignore_stop = self.cfg.broadcast_ignores_stop;
            let host = &mut self.hosts[hi];
            let Some(tx) = host.tx_channel else { continue };
            if fc_slot {
                // Hosts send `host` instead of `start` and may not send
                // `stop` (they discard instead of backpressuring).
                sends.push((tx, WireSym::cmd(Command::Host)));
                continue;
            }
            if host.tx.is_none() {
                if let Some(p) = host.tx_queue.pop_front() {
                    host.tx = Some(TxState {
                        tag: p.tag,
                        dst: p.dst,
                        len: p.len,
                        sent: 0,
                        broadcast: p.broadcast,
                        begun: false,
                        raw: p.raw,
                    });
                }
            }
            let Some(tx_state) = host.tx.as_mut() else {
                sends.push((tx, WireSym::sync()));
                continue;
            };
            let allowed = host.xmit_allowed || (tx_state.broadcast && ignore_stop);
            if !allowed {
                sends.push((tx, WireSym::sync()));
                continue;
            }
            if !tx_state.begun {
                tx_state.begun = true;
                sends.push((
                    tx,
                    WireSym {
                        sym: Symbol::Command(Command::Begin),
                        tag: tx_state.tag,
                        in_port: 0,
                    },
                ));
            } else if tx_state.sent < tx_state.len {
                let i = tx_state.sent;
                let byte = match &tx_state.raw {
                    Some(bytes) => bytes[i],
                    None => match i {
                        0 => tx_state.dst.to_bytes()[0],
                        1 => tx_state.dst.to_bytes()[1],
                        _ => (i & 0xFF) as u8,
                    },
                };
                tx_state.sent += 1;
                self.progressed = true;
                sends.push((
                    tx,
                    WireSym {
                        sym: Symbol::Data(byte),
                        tag: NO_TAG,
                        in_port: 0,
                    },
                ));
            } else {
                host.tx = None;
                self.progressed = true;
                sends.push((tx, WireSym::cmd(Command::End)));
            }
        }

        for (ch, ws) in sends {
            self.channels[ch].line.push_back(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarding::ForwardingEntry;

    fn sa(raw: u16) -> ShortAddress {
        ShortAddress::from_raw(raw)
    }

    /// host0 -> switch port 1; host1 <- switch port 2; address 0x0100
    /// forwards 1 -> 2.
    fn one_switch() -> (DatapathSim, DpHostId, DpHostId, DpSwitchId) {
        let mut sim = DatapathSim::new(DatapathConfig::default());
        let s = sim.add_switch();
        let h0 = sim.add_host();
        let h1 = sim.add_host();
        sim.connect_host(h0, s, 1, 7);
        sim.connect_host(h1, s, 2, 7);
        sim.table_mut(s).set(
            1,
            sa(0x0100),
            ForwardingEntry::alternatives(PortSet::single(2)),
        );
        (sim, h0, h1, s)
    }

    #[test]
    fn delivers_a_packet_through_one_switch() {
        let (mut sim, h0, h1, _) = one_switch();
        let tag = sim.send(h0, sa(0x0100), 100, false);
        let outcome = sim.run_until_drained(100_000, 2048);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 1);
        let d = &sim.deliveries()[0];
        assert_eq!(d.tag, tag);
        assert_eq!(d.host, h1);
        assert_eq!(d.len, 100);
    }

    #[test]
    fn transit_latency_matches_paper_range() {
        let (mut sim, h0, _, s) = one_switch();
        sim.send(h0, sa(0x0100), 200, false);
        sim.run_until_drained(100_000, 2048);
        let t = sim
            .transits()
            .iter()
            .find(|t| t.switch == s)
            .expect("packet crossed the switch");
        let latency = t.out_tick - t.in_tick;
        // Paper §5.1: 26–32 cycles when router and output are idle. Our
        // pipeline: 25-byte cut-through + up to 6 slots router phase + one
        // transmit phase.
        assert!(
            (26..=34).contains(&latency),
            "transit latency {latency} slots out of expected range"
        );
    }

    #[test]
    fn unprogrammed_address_discards() {
        let (mut sim, h0, _, _) = one_switch();
        sim.send(h0, sa(0x0BAD), 50, false);
        let outcome = sim.run_until_drained(100_000, 2048);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 0);
        assert_eq!(sim.stats().discarded, 1);
    }

    #[test]
    fn back_to_back_packets_all_arrive_in_order() {
        let (mut sim, h0, h1, _) = one_switch();
        let tags: Vec<PacketTag> = (0..5)
            .map(|_| sim.send(h0, sa(0x0100), 64, false))
            .collect();
        let outcome = sim.run_until_drained(200_000, 2048);
        assert_eq!(outcome, RunOutcome::Drained);
        let got: Vec<PacketTag> = sim.deliveries().iter().map(|d| d.tag).collect();
        assert_eq!(got, tags);
        assert!(sim.deliveries().iter().all(|d| d.host == h1));
    }

    #[test]
    fn contention_generates_stop_and_bounds_fifo() {
        // Two senders to one output: the later packet backs up in its
        // receive FIFO; flow control must stop the host before overflow.
        // The sizing law needs N >= (S-1 + 2W)/f = (255 + 14)/0.5 = 538
        // entries here; 1024 leaves comfortable margin.
        let mut sim = DatapathSim::new(DatapathConfig {
            fifo_capacity: 1024,
            ..DatapathConfig::default()
        });
        let s = sim.add_switch();
        let h0 = sim.add_host();
        let h1 = sim.add_host();
        let h2 = sim.add_host();
        sim.connect_host(h0, s, 1, 7);
        sim.connect_host(h1, s, 2, 7);
        sim.connect_host(h2, s, 3, 7);
        for p in [1, 2] {
            sim.table_mut(s).set(
                p,
                sa(0x0100),
                ForwardingEntry::alternatives(PortSet::single(3)),
            );
        }
        sim.send(h0, sa(0x0100), 3000, false);
        sim.send(h1, sa(0x0100), 3000, false);
        let outcome = sim.run_until_drained(400_000, 4096);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 2);
        assert_eq!(
            sim.stats().fifo_overflows,
            0,
            "flow control must prevent overflow"
        );
        // The stalled packet really did back up past the stop threshold.
        let hw = sim
            .fifo_max_occupancy(s, 1)
            .max(sim.fifo_max_occupancy(s, 2));
        assert!(hw > 512, "high-water {hw} should exceed the stop threshold");
    }

    #[test]
    fn broadcast_fans_out_simultaneously() {
        let mut sim = DatapathSim::new(DatapathConfig::default());
        let s = sim.add_switch();
        let h0 = sim.add_host();
        let h1 = sim.add_host();
        let h2 = sim.add_host();
        sim.connect_host(h0, s, 1, 7);
        sim.connect_host(h1, s, 2, 7);
        sim.connect_host(h2, s, 3, 7);
        sim.table_mut(s).set(
            1,
            ShortAddress::BROADCAST_HOSTS,
            ForwardingEntry::simultaneous(PortSet::from_ports([2, 3])),
        );
        let tag = sim.send(h0, ShortAddress::BROADCAST_HOSTS, 80, true);
        let outcome = sim.run_until_drained(100_000, 2048);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 2);
        let ticks: Vec<u64> = sim.deliveries().iter().map(|d| d.tick).collect();
        assert_eq!(ticks[0], ticks[1], "copies arrive in the same slot");
        assert!(sim.deliveries().iter().all(|d| d.tag == tag));
    }

    #[test]
    fn two_switch_path_works() {
        let mut sim = DatapathSim::new(DatapathConfig::default());
        let s0 = sim.add_switch();
        let s1 = sim.add_switch();
        let h0 = sim.add_host();
        let h1 = sim.add_host();
        sim.connect_host(h0, s0, 1, 7);
        sim.connect_host(h1, s1, 1, 7);
        sim.connect_switches(s0, 2, s1, 2, 129); // 2 km fiber
        sim.table_mut(s0).set(
            1,
            sa(0x0100),
            ForwardingEntry::alternatives(PortSet::single(2)),
        );
        sim.table_mut(s1).set(
            2,
            sa(0x0100),
            ForwardingEntry::alternatives(PortSet::single(1)),
        );
        let tag = sim.send(h0, sa(0x0100), 500, false);
        let outcome = sim.run_until_drained(200_000, 4096);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 1);
        assert_eq!(sim.deliveries()[0].tag, tag);
        assert_eq!(sim.transits().len(), 2, "one transit per switch");
    }

    #[test]
    fn trunk_alternative_ports_split_load() {
        // Two parallel links to the same switch: two long packets to two
        // different destinations should use both trunk links in parallel
        // (dynamic multipath).
        let mut sim = DatapathSim::new(DatapathConfig::default());
        let s0 = sim.add_switch();
        let s1 = sim.add_switch();
        let h0 = sim.add_host();
        let h1 = sim.add_host();
        let h2 = sim.add_host();
        let h3 = sim.add_host();
        sim.connect_host(h0, s0, 1, 7);
        sim.connect_host(h1, s0, 2, 7);
        sim.connect_host(h2, s1, 1, 7);
        sim.connect_host(h3, s1, 2, 7);
        sim.connect_switches(s0, 3, s1, 3, 7);
        sim.connect_switches(s0, 4, s1, 4, 7);
        for p in [1, 2] {
            for dst in [0x0100u16, 0x0101] {
                sim.table_mut(s0).set(
                    p,
                    sa(dst),
                    ForwardingEntry::alternatives(PortSet::from_ports([3, 4])),
                );
            }
        }
        for p in [3, 4] {
            sim.table_mut(s1).set(
                p,
                sa(0x0100),
                ForwardingEntry::alternatives(PortSet::single(1)),
            );
            sim.table_mut(s1).set(
                p,
                sa(0x0101),
                ForwardingEntry::alternatives(PortSet::single(2)),
            );
        }
        sim.send(h0, sa(0x0100), 2000, false);
        sim.send(h1, sa(0x0101), 2000, false);
        let outcome = sim.run_until_drained(400_000, 4096);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 2);
        // Both trunk links carried traffic: the two deliveries overlap in
        // time rather than serializing behind a single trunk link.
        let d0 = sim.deliveries()[0].tick;
        let d1 = sim.deliveries()[1].tick;
        assert!(
            d1.abs_diff(d0) < 1000,
            "packets should flow in parallel over the trunk (diff {})",
            d1.abs_diff(d0)
        );
    }

    #[test]
    fn loopback_table_entry_reflects_packet() {
        let (mut sim, h0, _, s) = one_switch();
        sim.table_mut(s).set(
            1,
            ShortAddress::LOOPBACK,
            ForwardingEntry::alternatives(PortSet::single(1)),
        );
        let tag = sim.send(h0, ShortAddress::LOOPBACK, 40, false);
        let outcome = sim.run_until_drained(100_000, 2048);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.deliveries().len(), 1);
        assert_eq!(sim.deliveries()[0].host, DpHostId(0));
        assert_eq!(sim.deliveries()[0].tag, tag);
    }

    #[test]
    fn scheduler_records_capture_waits() {
        let (mut sim, h0, _, _) = one_switch();
        sim.send(h0, sa(0x0100), 64, false);
        sim.run_until_drained(100_000, 2048);
        assert_eq!(sim.scheduling_records().len(), 1);
        let r = sim.scheduling_records()[0];
        assert!(r.grant_tick >= r.submit_tick);
        assert!(!r.broadcast);
    }
}

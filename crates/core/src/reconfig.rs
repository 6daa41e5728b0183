//! The distributed reconfiguration engine.
//!
//! One instance runs per switch and implements steps 1–4 of the five-step
//! reconfiguration of companion paper §6.6 (step 5 — route computation —
//! is [`crate::compute_forwarding_table`], invoked by Autopilot on
//! completion):
//!
//! 1. On a trigger, increment the epoch, clear the forwarding table down
//!    to the constant one-hop entries, and exchange tree-position packets.
//! 2. Topology reports accumulate up the forming tree as subtrees become
//!    *stable*.
//! 3. The root assigns switch numbers.
//! 4. The complete topology floods down the tree.
//!
//! **Stability** (the Rodeheffer–Lamport extension): a switch is stable
//! when every good neighbor has acknowledged its current state version and
//! every neighbor currently claiming it as parent has delivered a topology
//! report at that neighbor's current version. The unstable→stable
//! transition at a switch that believes itself the root happens exactly
//! once per epoch — at the true root, once the whole tree is final — so it
//! is a sound, prompt termination signal.
//!
//! Two implementation details carry the soundness argument:
//!
//! - acknowledgments carry the acker's own position, so a switch always
//!   learns a neighbor's better root no later than the ack it is waiting
//!   for (see [`ControlMsg::TreePositionAck`]);
//! - the *state version* bumps not only on position changes but whenever
//!   previously-reported state becomes stale (a claim set or subtree
//!   content change after the report went out), forcing re-acknowledgment
//!   all the way up and preventing a root from terminating on a stale
//!   subtree description.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use autonet_sim::{SimDuration, SimTime};
use autonet_wire::{PortIndex, SwitchNumber, Uid, MAX_SWITCH_NUMBER};

use crate::addressing::assign_switch_numbers;
use crate::epoch::Epoch;
use crate::messages::ControlMsg;
use crate::params::{AutopilotParams, TerminationMode};
use crate::topology::{GlobalTopology, LinkInfo, SubtreeReport, SwitchInfo};
use crate::tree::TreePosition;

/// Identity of the switch at the far end of a good port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// The neighbor's UID.
    pub uid: Uid,
    /// The neighbor's port our link plugs into.
    pub their_port: PortIndex,
}

/// Things the engine asks its host environment to do.
#[derive(Clone, Debug, PartialEq)]
pub enum ReconfigOutput {
    /// Transmit a control message on a port.
    Send {
        /// The local port to send on.
        port: PortIndex,
        /// The message.
        msg: ControlMsg,
    },
    /// Reload the forwarding table with only the constant one-hop entries
    /// (reconfiguration step 1).
    ClearTable,
    /// Reconfiguration finished at this switch: load tables from this
    /// topology and reopen for host traffic.
    Completed(GlobalTopology),
    /// Instrumentation event.
    Event(ReconfigEvent),
}

/// Instrumentation points for the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigEvent {
    /// A new epoch started (or was joined) at this switch.
    Started(Epoch),
    /// This switch, believing itself root, detected termination.
    RootTerminated(Epoch),
    /// The root assigned short-address switch numbers to the completed
    /// tree (the count is how many switches were numbered).
    AddressesAssigned(Epoch, u32),
}

/// What became of the reconfiguration messages an engine was handed, by
/// their epoch against the engine's own at arrival.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgDisposition {
    /// Newer epoch: the engine joined it.
    pub joined: u64,
    /// Current epoch: processed.
    pub current: u64,
    /// Older epoch: ignored.
    pub stale: u64,
    /// The reserved top epoch ([`Epoch::RESERVED`]): dropped unprocessed.
    pub dropped: u64,
}

impl MsgDisposition {
    /// Every reconfiguration message handled.
    pub fn total(&self) -> u64 {
        self.joined + self.current + self.stale + self.dropped
    }
}

impl std::ops::AddAssign for MsgDisposition {
    fn add_assign(&mut self, o: MsgDisposition) {
        self.joined += o.joined;
        self.current += o.current;
        self.stale += o.stale;
        self.dropped += o.dropped;
    }
}

/// Per-neighbor protocol state within one epoch.
#[derive(Clone, Debug)]
struct NeighborState {
    info: NeighborInfo,
    /// Highest of our state versions this neighbor has acknowledged.
    acked: Option<u64>,
    /// The neighbor's latest advertised (version, position).
    their: Option<(u64, TreePosition)>,
    /// Whether their latest position claims us as parent via this link.
    claims_me: bool,
    /// Their topology report, keyed by the version that produced it.
    report: Option<(u64, SubtreeReport)>,
    /// Last time we (re)sent our position to them.
    last_pos_tx: Option<SimTime>,
    /// Down-phase bookkeeping.
    down_acked: bool,
    last_down_tx: Option<SimTime>,
}

impl NeighborState {
    fn new(info: NeighborInfo) -> Self {
        NeighborState {
            info,
            acked: None,
            their: None,
            claims_me: false,
            report: None,
            last_pos_tx: None,
            down_acked: false,
            last_down_tx: None,
        }
    }

    /// A valid stable report: present, current-version, and still claiming.
    fn valid_report(&self) -> Option<&SubtreeReport> {
        if !self.claims_me {
            return None;
        }
        let (rv, report) = self.report.as_ref()?;
        let (tv, _) = self.their?;
        (*rv == tv).then_some(report)
    }
}

/// The per-switch reconfiguration engine. Drive it with
/// [`start`](ReconfigEngine::start) on triggers,
/// [`on_msg`](ReconfigEngine::on_msg) for arriving reconfiguration
/// packets, and [`on_tick`](ReconfigEngine::on_tick) for retransmissions.
#[derive(Clone, Debug)]
pub struct ReconfigEngine {
    uid: Uid,
    retransmit: SimDuration,
    termination: TerminationMode,
    epoch: Epoch,
    running: bool,
    completed: bool,
    pos: TreePosition,
    version: u64,
    neighbors: BTreeMap<PortIndex, NeighborState>,
    /// The most recently provided neighbor view, used when a message pulls
    /// this switch into a newer epoch.
    latest_neighbors: BTreeMap<PortIndex, NeighborInfo>,
    proposed_number: SwitchNumber,
    host_ports: Vec<PortIndex>,
    /// The (version, content) of the report last sent to the parent.
    reported: Option<(u64, SubtreeReport)>,
    report_acked: bool,
    last_report_tx: Option<SimTime>,
    global: Option<GlobalTopology>,
    /// For the quiescence baseline: last local state change.
    last_change: SimTime,
    msgs: MsgDisposition,
    /// Epochs in which this switch, as root, refused to terminate on a
    /// report describing more switches than can be numbered, and the last
    /// such epoch.
    oversized_refusals: u64,
    oversized_epoch: Epoch,
}

impl ReconfigEngine {
    /// Creates an idle engine for the switch with the given UID.
    pub fn new(uid: Uid, params: &AutopilotParams) -> Self {
        ReconfigEngine {
            uid,
            retransmit: params.retransmit_interval,
            termination: params.termination,
            epoch: Epoch::ZERO,
            running: false,
            completed: false,
            pos: TreePosition::myself(uid),
            version: 0,
            neighbors: BTreeMap::new(),
            latest_neighbors: BTreeMap::new(),
            proposed_number: 1,
            host_ports: Vec::new(),
            reported: None,
            report_acked: false,
            last_report_tx: None,
            global: None,
            last_change: SimTime::ZERO,
            msgs: MsgDisposition::default(),
            oversized_refusals: 0,
            oversized_epoch: Epoch::ZERO,
        }
    }

    /// Reconfiguration messages handled since power-on, by disposition.
    pub fn msg_disposition(&self) -> MsgDisposition {
        self.msgs
    }

    /// Epochs in which this switch, as root, refused to terminate because
    /// the collected topology held more switches than short addresses can
    /// number (4 094).
    pub fn oversized_refusals(&self) -> u64 {
        self.oversized_refusals
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The topology of the last completed epoch.
    pub fn global(&self) -> Option<&GlobalTopology> {
        self.global.as_ref()
    }

    /// Starts a new reconfiguration (local trigger): bumps the epoch and
    /// restarts the protocol over the given neighbor set.
    pub fn start(
        &mut self,
        now: SimTime,
        neighbors: BTreeMap<PortIndex, NeighborInfo>,
        proposed_number: SwitchNumber,
        host_ports: Vec<PortIndex>,
    ) -> Vec<ReconfigOutput> {
        self.latest_neighbors = neighbors.clone();
        let epoch = self.epoch.next();
        self.reset_for_epoch(now, epoch, neighbors, proposed_number, host_ports)
    }

    /// Refreshes the local information used at the next epoch join.
    pub fn update_local_info(&mut self, proposed_number: SwitchNumber, host_ports: Vec<PortIndex>) {
        self.proposed_number = proposed_number;
        self.host_ports = host_ports;
    }

    /// Rebuilds all per-epoch state and emits the step-1 outputs.
    fn reset_for_epoch(
        &mut self,
        now: SimTime,
        epoch: Epoch,
        neighbors: BTreeMap<PortIndex, NeighborInfo>,
        proposed_number: SwitchNumber,
        host_ports: Vec<PortIndex>,
    ) -> Vec<ReconfigOutput> {
        self.epoch = epoch;
        self.running = true;
        self.completed = false;
        self.pos = TreePosition::myself(self.uid);
        self.version = 1;
        self.neighbors = neighbors
            .into_iter()
            .map(|(p, info)| (p, NeighborState::new(info)))
            .collect();
        self.proposed_number = proposed_number;
        self.host_ports = host_ports;
        self.reported = None;
        self.report_acked = false;
        self.last_report_tx = None;
        self.last_change = now;
        let mut out = vec![
            ReconfigOutput::Event(ReconfigEvent::Started(epoch)),
            ReconfigOutput::ClearTable,
        ];
        self.send_position(now, false, &mut out);
        // A switch with no good neighbors configures itself immediately.
        self.after_event(now, &mut out);
        out
    }

    /// Enters `epoch` over the freshest neighbor view and local info.
    fn join(&mut self, now: SimTime, epoch: Epoch) -> Vec<ReconfigOutput> {
        let neighbors = self.latest_neighbors.clone();
        let (proposed, hosts) = (self.proposed_number, self.host_ports.clone());
        self.reset_for_epoch(now, epoch, neighbors, proposed, hosts)
    }

    /// Handles an arriving reconfiguration message. `port` is the local
    /// port it arrived on. Returns the outputs to perform. Messages on
    /// ports outside the epoch's neighbor set are ignored except for their
    /// epoch number (which can still pull this switch into a newer epoch).
    pub fn on_msg(
        &mut self,
        now: SimTime,
        port: PortIndex,
        msg: &ControlMsg,
    ) -> Vec<ReconfigOutput> {
        let msg_epoch = match msg {
            ControlMsg::TreePosition { epoch, .. }
            | ControlMsg::TreePositionAck { epoch, .. }
            | ControlMsg::TopologyReport { epoch, .. }
            | ControlMsg::TopologyReportAck { epoch, .. }
            | ControlMsg::TopologyDown { epoch, .. }
            | ControlMsg::TopologyDownAck { epoch } => *epoch,
            _ => return Vec::new(),
        };
        if msg_epoch == Epoch::RESERVED {
            self.msgs.dropped += 1;
            return Vec::new();
        }
        let mut out = Vec::new();
        match msg_epoch.cmp(&self.epoch) {
            Ordering::Greater => {
                self.msgs.joined += 1;
                out = self.join(now, msg_epoch);
            }
            Ordering::Less => {
                // Stale epoch: ignore. The sender already has, or will get
                // by retransmission, the join advertisement
                // `reset_for_epoch` sent it; answering buys only traffic.
                self.msgs.stale += 1;
                return out;
            }
            Ordering::Equal => self.msgs.current += 1,
        }
        if !self.running {
            return out;
        }
        match msg {
            ControlMsg::TreePosition {
                seq,
                from_port,
                pos,
                ..
            } => {
                if !self.neighbors.contains_key(&port) {
                    // Asymmetric promotion: the sender considers this link
                    // good, we do not (yet). No acknowledgment — the sender
                    // stalls until a fresh epoch includes both views.
                    return out;
                }
                self.note_neighbor_position(now, port, *seq, *from_port, pos, &mut out);
                // Acknowledge with our own position attached.
                let ack = ControlMsg::TreePositionAck {
                    epoch: self.epoch,
                    seq: *seq,
                    is_parent: self.pos.parent_port == port
                        && self
                            .neighbors
                            .get(&port)
                            .is_some_and(|ns| ns.info.uid == self.pos.parent),
                    sender_seq: self.version,
                    sender_from_port: port,
                    sender_pos: self.pos,
                };
                out.push(ReconfigOutput::Send { port, msg: ack });
                self.after_event(now, &mut out);
            }
            ControlMsg::TreePositionAck {
                seq,
                sender_seq,
                sender_from_port,
                sender_pos,
                ..
            } => {
                // Record the ack, then process the piggybacked position.
                if let Some(ns) = self.neighbors.get_mut(&port) {
                    ns.acked = Some(ns.acked.map_or(*seq, |a| a.max(*seq)));
                }
                self.note_neighbor_position(
                    now,
                    port,
                    *sender_seq,
                    *sender_from_port,
                    sender_pos,
                    &mut out,
                );
                self.after_event(now, &mut out);
            }
            ControlMsg::TopologyReport { seq, report, .. } => {
                if let Some(ns) = self.neighbors.get_mut(&port) {
                    let replace = ns
                        .report
                        .as_ref()
                        .is_none_or(|(v, r)| *v < *seq || (*v == *seq && r != report));
                    if replace {
                        ns.report = Some((*seq, report.clone()));
                        self.last_change = now;
                        self.note_content_maybe_stale(now, &mut out);
                    }
                    out.push(ReconfigOutput::Send {
                        port,
                        msg: ControlMsg::TopologyReportAck {
                            epoch: self.epoch,
                            seq: *seq,
                        },
                    });
                }
                self.after_event(now, &mut out);
            }
            ControlMsg::TopologyReportAck { seq, .. }
                if self.reported.as_ref().map(|(v, _)| *v) == Some(*seq) =>
            {
                self.report_acked = true;
            }
            ControlMsg::TopologyDown { global, .. } => {
                // Before adopting, check the topology tells the truth about
                // *this* switch: exactly one entry, under our actual
                // parent. A mismatch means the root terminated on stale
                // subtree state (our re-parenting was still in flight when
                // it collected reports) — the remedy for any detected
                // inconsistency is another reconfiguration (§6.2).
                let mine: Vec<&SwitchInfo> = global
                    .switches
                    .iter()
                    .filter(|s| s.uid == self.uid)
                    .collect();
                let truthful = mine.len() == 1
                    && mine[0].parent == self.pos.parent
                    && mine[0].parent_port == self.pos.parent_port;
                if !self.completed && !truthful {
                    out.extend(self.join(now, self.epoch.next()));
                    return out;
                }
                out.push(ReconfigOutput::Send {
                    port,
                    msg: ControlMsg::TopologyDownAck { epoch: self.epoch },
                });
                if !self.completed {
                    self.complete(now, global.clone(), &mut out);
                }
            }
            ControlMsg::TopologyDownAck { .. } => {
                if let Some(ns) = self.neighbors.get_mut(&port) {
                    ns.down_acked = true;
                }
            }
            _ => {}
        }
        out
    }

    /// Periodic retransmission driver.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<ReconfigOutput> {
        let mut out = Vec::new();
        if !self.running {
            return out;
        }
        if !self.completed {
            self.send_position(now, true, &mut out);
            // Retransmit an unacknowledged report.
            if self.reported.is_some() && !self.report_acked {
                let due = self
                    .last_report_tx
                    .is_none_or(|t| now.saturating_since(t) >= self.retransmit);
                if due {
                    self.send_report(now, &mut out);
                }
            }
            self.after_event(now, &mut out);
        }
        // Retransmit unacknowledged downs (root and interior switches).
        if self.completed {
            if let Some(global) = self.global.clone() {
                let epoch = self.epoch;
                let retransmit = self.retransmit;
                for (&port, ns) in self.neighbors.iter_mut() {
                    if !ns.claims_me || ns.down_acked {
                        continue;
                    }
                    let due = ns
                        .last_down_tx
                        .is_none_or(|t| now.saturating_since(t) >= retransmit);
                    if due {
                        ns.last_down_tx = Some(now);
                        out.push(ReconfigOutput::Send {
                            port,
                            msg: ControlMsg::TopologyDown {
                                epoch,
                                global: global.clone(),
                            },
                        });
                    }
                }
            }
        }
        out
    }

    /// The earliest instant at which [`on_tick`](Self::on_tick) acts, as
    /// of the last input or tick: for every unacknowledged position, report
    /// and down, its last send plus the retransmit interval; under
    /// [`TerminationMode::RootQuiescence`], the root's quiet deadline.
    /// Between inputs, a tick before it returns nothing and changes
    /// nothing: the rest of a tick's work is [`after_event`], which every
    /// input already ran and which is idempotent over unchanged state.
    ///
    /// [`after_event`]: Self::after_event
    pub fn next_due(&self) -> SimTime {
        if !self.running {
            return SimTime::MAX;
        }
        let resend = |last: Option<SimTime>| last.map_or(SimTime::ZERO, |t| t + self.retransmit);
        let mut due = SimTime::MAX;
        if self.completed {
            for ns in self.neighbors.values() {
                if ns.claims_me && !ns.down_acked {
                    due = due.min(resend(ns.last_down_tx));
                }
            }
            return due;
        }
        for ns in self.neighbors.values() {
            if ns.acked != Some(self.version) {
                due = due.min(resend(ns.last_pos_tx));
            }
        }
        if self.reported.is_some() && !self.report_acked {
            due = due.min(resend(self.last_report_tx));
        }
        if let TerminationMode::RootQuiescence(t) = self.termination {
            if self.pos.is_root(self.uid) {
                due = due.min(self.last_change.saturating_add(t));
            }
        }
        due
    }

    /// Records a neighbor's advertised position and evaluates adoption.
    fn note_neighbor_position(
        &mut self,
        now: SimTime,
        port: PortIndex,
        their_version: u64,
        their_from_port: PortIndex,
        their_pos: &TreePosition,
        out: &mut Vec<ReconfigOutput>,
    ) {
        let Some(ns) = self.neighbors.get_mut(&port) else {
            return;
        };
        // Ignore stale (out-of-order) advertisements.
        if ns.their.is_some_and(|(v, _)| v > their_version) {
            return;
        }
        let nuid = ns.info.uid;
        let was_claiming = ns.claims_me;
        let is_new_version = ns.their.is_none_or(|(v, _)| v < their_version);
        ns.their = Some((their_version, *their_pos));
        ns.claims_me = their_pos.parent == self.uid && their_pos.parent_port == their_from_port;
        let claims_changed = ns.claims_me != was_claiming;
        if claims_changed || is_new_version {
            // Any fresh protocol information resets the quiescence clock.
            self.last_change = now;
        }
        // Would adopting this port as parent improve our position?
        let candidate = TreePosition::as_child_of(their_pos, nuid, port);
        if candidate.better_than(&self.pos) {
            self.adopt(now, candidate, out);
        } else if claims_changed {
            self.note_content_maybe_stale(now, out);
        }
    }

    /// Adopts a better position: bump version, re-advertise everywhere.
    fn adopt(&mut self, now: SimTime, candidate: TreePosition, out: &mut Vec<ReconfigOutput>) {
        self.pos = candidate;
        self.bump_version(now, out);
    }

    /// Bumps the state version: all acks and any sent report become stale.
    fn bump_version(&mut self, now: SimTime, out: &mut Vec<ReconfigOutput>) {
        self.version += 1;
        self.reported = None;
        self.report_acked = false;
        self.last_change = now;
        self.send_position(now, false, out);
    }

    /// If we have reported at the current version but that report's
    /// content is now stale (claim churn or replaced child report), bump
    /// the version so the staleness propagates upward.
    fn note_content_maybe_stale(&mut self, now: SimTime, out: &mut Vec<ReconfigOutput>) {
        let Some((v, ref content)) = self.reported else {
            return;
        };
        if v == self.version && *content != self.build_report() {
            self.bump_version(now, out);
        }
    }

    /// Advertises our position: to every neighbor, or (`overdue_only`) to
    /// those that have left it unacknowledged for a retransmit interval.
    fn send_position(&mut self, now: SimTime, overdue_only: bool, out: &mut Vec<ReconfigOutput>) {
        let (epoch, version, pos, retransmit) =
            (self.epoch, self.version, self.pos, self.retransmit);
        for (&port, ns) in self.neighbors.iter_mut() {
            let overdue = ns.acked != Some(version)
                && ns
                    .last_pos_tx
                    .is_none_or(|t| now.saturating_since(t) >= retransmit);
            if overdue_only && !overdue {
                continue;
            }
            ns.last_pos_tx = Some(now);
            out.push(ReconfigOutput::Send {
                port,
                msg: ControlMsg::TreePosition {
                    epoch,
                    seq: version,
                    from_port: port,
                    pos,
                },
            });
        }
    }

    /// The stability predicate.
    fn is_stable(&self) -> bool {
        self.neighbors.values().all(|ns| {
            ns.acked == Some(self.version) && (!ns.claims_me || ns.valid_report().is_some())
        })
    }

    /// Our own contribution to the topology description.
    fn own_info(&self) -> SwitchInfo {
        SwitchInfo {
            uid: self.uid,
            proposed_number: self.proposed_number,
            parent: self.pos.parent,
            parent_port: self.pos.parent_port,
            links: self
                .neighbors
                .iter()
                .map(|(&p, ns)| LinkInfo {
                    local_port: p,
                    neighbor: ns.info.uid,
                    neighbor_port: ns.info.their_port,
                })
                .collect(),
            host_ports: self.host_ports.clone(),
        }
    }

    /// The subtree report we would send right now.
    fn build_report(&self) -> SubtreeReport {
        SubtreeReport::merge(
            self.own_info(),
            self.neighbors
                .values()
                .filter_map(|ns| ns.valid_report().cloned()),
        )
    }

    /// A lenient report for the quiescence baseline: whatever child
    /// reports have arrived, regardless of claims and versions.
    fn build_report_lenient(&self) -> SubtreeReport {
        SubtreeReport::merge(
            self.own_info(),
            self.neighbors
                .values()
                .filter(|ns| ns.claims_me)
                .filter_map(|ns| ns.report.as_ref().map(|(_, r)| r.clone())),
        )
    }

    /// What this termination mode reports: the strict or the lenient view.
    fn report_for_mode(&self) -> SubtreeReport {
        match self.termination {
            TerminationMode::Stability => self.build_report(),
            TerminationMode::RootQuiescence(_) => self.build_report_lenient(),
        }
    }

    fn send_report(&mut self, now: SimTime, out: &mut Vec<ReconfigOutput>) {
        let cached = match &self.reported {
            Some((v, r)) if *v == self.version => Some(r.clone()),
            _ => None,
        };
        let report = match cached {
            Some(r) => r,
            None => {
                let r = self.report_for_mode();
                self.reported = Some((self.version, r.clone()));
                self.report_acked = false;
                r
            }
        };
        self.last_report_tx = Some(now);
        out.push(ReconfigOutput::Send {
            port: self.pos.parent_port,
            msg: ControlMsg::TopologyReport {
                epoch: self.epoch,
                seq: self.version,
                report,
            },
        });
    }

    /// Reacts to state changes: report when stable, terminate at the root.
    fn after_event(&mut self, now: SimTime, out: &mut Vec<ReconfigOutput>) {
        if self.completed {
            return;
        }
        let is_root = self.pos.is_root(self.uid);
        let ready = match self.termination {
            TerminationMode::Stability => self.is_stable(),
            TerminationMode::RootQuiescence(t) => {
                if !is_root {
                    // The baseline has no stability signal, so interior
                    // switches report eagerly: push an updated subtree
                    // description to the parent whenever it changes, and
                    // let the root's quiet timer decide when to stop.
                    let current = self.build_report_lenient();
                    let fresh = matches!(
                        &self.reported,
                        Some((v, r)) if *v == self.version && *r == current
                    );
                    if !fresh {
                        self.reported = None;
                        self.send_report(now, out);
                    }
                    return;
                }
                now.saturating_since(self.last_change) >= t
            }
        };
        if !ready {
            return;
        }
        if is_root {
            let report = self.report_for_mode();
            // Stability can hold at the root while a re-parenting notice is
            // still in flight along the old parent chain: the moved switch
            // then appears in both its old parent's (stale but
            // version-current) report and its new parent's fresh one. Such
            // a snapshot is not a tree; refuse to terminate on it. The
            // in-flight position advert will break a child report's
            // validity when it lands, and stability re-establishes over
            // consistent state.
            if matches!(self.termination, TerminationMode::Stability)
                && !report.describes_tree(self.uid)
            {
                return;
            }
            // More switches than short addresses can number: only a forged
            // or corrupted report says so, since no buildable Autonet is
            // that large. Refuse it like a snapshot that is not a tree, and
            // count the epoch once.
            if report.switches.len() > MAX_SWITCH_NUMBER as usize {
                if self.oversized_epoch != self.epoch {
                    self.oversized_epoch = self.epoch;
                    self.oversized_refusals += 1;
                }
                return;
            }
            // Termination detected: build the global topology, assign
            // numbers, flood it down.
            out.push(ReconfigOutput::Event(ReconfigEvent::RootTerminated(
                self.epoch,
            )));
            let numbers = assign_switch_numbers(&report.switches);
            out.push(ReconfigOutput::Event(ReconfigEvent::AddressesAssigned(
                self.epoch,
                numbers.len() as u32,
            )));
            let global = GlobalTopology {
                epoch: self.epoch,
                root: self.uid,
                switches: std::sync::Arc::new(report.switches),
                numbers: std::sync::Arc::new(numbers),
            };
            self.complete(now, global, out);
        } else {
            // Report to the parent (once per version; retransmits are
            // driven by on_tick).
            let already = self
                .reported
                .as_ref()
                .is_some_and(|(v, _)| *v == self.version);
            if !already {
                self.send_report(now, out);
            }
        }
    }

    /// Finishes the epoch at this switch and starts the down-flood to the
    /// switches that claim us as parent.
    fn complete(&mut self, now: SimTime, global: GlobalTopology, out: &mut Vec<ReconfigOutput>) {
        self.completed = true;
        self.global = Some(global.clone());
        let epoch = self.epoch;
        for (&port, ns) in self.neighbors.iter_mut() {
            if ns.claims_me {
                ns.down_acked = false;
                ns.last_down_tx = Some(now);
                out.push(ReconfigOutput::Send {
                    port,
                    msg: ControlMsg::TopologyDown {
                        epoch,
                        global: global.clone(),
                    },
                });
            }
        }
        out.push(ReconfigOutput::Completed(global));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic message network for driving engines directly.
    struct TestNet {
        engines: Vec<ReconfigEngine>,
        /// wiring[i] maps local port -> (peer switch, peer port).
        wiring: Vec<BTreeMap<PortIndex, (usize, PortIndex)>>,
        /// In-flight messages: (deliver_at, to, port, msg).
        queue: std::collections::VecDeque<(SimTime, usize, PortIndex, ControlMsg)>,
        now: SimTime,
        latency: SimDuration,
        /// Adds random 0..jitter to each delivery when set (adversarial
        /// reordering across links; per-link order is preserved by sorting
        /// at pop time below only across links).
        jitter: Option<(autonet_sim::SimRng, SimDuration)>,
        /// Drop every n-th message when set (loss injection).
        drop_every: Option<u64>,
        sent: u64,
        completions: Vec<Option<GlobalTopology>>,
        completion_times: Vec<Option<SimTime>>,
    }

    impl TestNet {
        /// Builds engines over an edge list; switch i gets UID uids[i].
        fn new(uids: &[u64], edges: &[(usize, usize)], params: &AutopilotParams) -> TestNet {
            let n = uids.len();
            let engines = uids
                .iter()
                .map(|&u| ReconfigEngine::new(Uid::new(u), params))
                .collect();
            let mut wiring: Vec<BTreeMap<PortIndex, (usize, PortIndex)>> = vec![BTreeMap::new(); n];
            let mut next_port = vec![1 as PortIndex; n];
            for &(a, b) in edges {
                let pa = next_port[a];
                next_port[a] += 1;
                let pb = next_port[b];
                next_port[b] += 1;
                wiring[a].insert(pa, (b, pb));
                wiring[b].insert(pb, (a, pa));
            }
            TestNet {
                engines,
                wiring,
                queue: std::collections::VecDeque::new(),
                now: SimTime::ZERO,
                latency: SimDuration::from_micros(10),
                jitter: None,
                drop_every: None,
                sent: 0,
                completions: vec![None; n],
                completion_times: vec![None; n],
            }
        }

        fn neighbor_map(&self, i: usize) -> BTreeMap<PortIndex, NeighborInfo> {
            self.wiring[i]
                .iter()
                .map(|(&p, &(peer, peer_port))| {
                    (
                        p,
                        NeighborInfo {
                            uid: Uid::new(self.engines[peer].uid.as_u64()),
                            their_port: peer_port,
                        },
                    )
                })
                .collect()
        }

        fn trigger(&mut self, i: usize) {
            // Every switch's connectivity monitor knows its neighbors; the
            // harness mirrors that by refreshing all caches first.
            for j in 0..self.engines.len() {
                let nbrs = self.neighbor_map(j);
                self.engines[j].latest_neighbors = nbrs;
            }
            let nbrs = self.neighbor_map(i);
            let outs = self.engines[i].start(self.now, nbrs, 1, vec![]);
            self.dispatch(i, outs);
        }

        fn dispatch(&mut self, from: usize, outs: Vec<ReconfigOutput>) {
            for o in outs {
                match o {
                    ReconfigOutput::Send { port, msg } => {
                        self.sent += 1;
                        if let Some(k) = self.drop_every {
                            if self.sent.is_multiple_of(k) {
                                continue;
                            }
                        }
                        if let Some(&(to, to_port)) = self.wiring[from].get(&port) {
                            let mut at = self.now + self.latency;
                            if let Some((rng, bound)) = self.jitter.as_mut() {
                                at += SimDuration::from_nanos(rng.below(bound.as_nanos().max(1)));
                            }
                            self.queue.push_back((at, to, to_port, msg));
                        }
                    }
                    ReconfigOutput::Completed(g) => {
                        self.completions[from] = Some(g);
                        self.completion_times[from] = Some(self.now);
                    }
                    ReconfigOutput::ClearTable | ReconfigOutput::Event(_) => {}
                }
            }
        }

        /// Runs ticks and deliveries until quiet or the deadline.
        fn run(&mut self, deadline: SimTime) {
            let tick = SimDuration::from_millis(1);
            while self.now < deadline {
                // Deliver everything due (sorted so jittered deliveries
                // arrive in timestamp order).
                self.queue
                    .make_contiguous()
                    .sort_by_key(|&(t, to, port, _)| (t, to, port));
                while let Some(&(t, ..)) = self.queue.front() {
                    if t > self.now {
                        break;
                    }
                    let (_, to, port, msg) = self.queue.pop_front().expect("peeked");
                    let outs = self.engines[to].on_msg(self.now, port, &msg);
                    self.dispatch(to, outs);
                }
                self.now += tick;
                for i in 0..self.engines.len() {
                    let outs = self.engines[i].on_tick(self.now);
                    self.dispatch(i, outs);
                }
                if self.queue.is_empty() && self.completions.iter().all(|c| c.is_some()) {
                    break;
                }
            }
        }

        fn all_completed_consistently(&self) -> bool {
            let Some(first) = self.completions[0].as_ref() else {
                return false;
            };
            self.completions.iter().all(|c| {
                c.as_ref().is_some_and(|g| {
                    g.switches.len() == first.switches.len() && g.root == first.root
                })
            })
        }
    }

    fn params() -> AutopilotParams {
        AutopilotParams::tuned()
    }

    #[test]
    fn lone_switch_configures_itself() {
        let mut e = ReconfigEngine::new(Uid::new(5), &params());
        let outs = e.start(SimTime::ZERO, BTreeMap::new(), 1, vec![3, 4]);
        let completed = outs.iter().find_map(|o| match o {
            ReconfigOutput::Completed(g) => Some(g.clone()),
            _ => None,
        });
        let g = completed.expect("must complete immediately");
        assert_eq!(g.root, Uid::new(5));
        assert_eq!(g.switches.len(), 1);
        assert_eq!(g.switches[0].host_ports, vec![3, 4]);
        assert!(e.completed);
    }

    #[test]
    fn two_switches_agree_on_smaller_root() {
        let mut net = TestNet::new(&[20, 10], &[(0, 1)], &params());
        net.trigger(0);
        net.run(SimTime::from_secs(2));
        assert!(net.all_completed_consistently(), "{:?}", net.completions);
        let g = net.completions[0].as_ref().unwrap();
        assert_eq!(g.root, Uid::new(10));
        assert_eq!(g.switches.len(), 2);
        // Both ends reported the link.
        assert!(g.switches.iter().all(|s| s.links.len() == 1));
    }

    #[test]
    fn line_of_five_converges_with_interior_root() {
        // Root (uid 1) in the middle of a line.
        let mut net = TestNet::new(
            &[5, 3, 1, 4, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            &params(),
        );
        net.trigger(0);
        net.run(SimTime::from_secs(2));
        assert!(net.all_completed_consistently());
        let g = net.completions[4].as_ref().unwrap();
        assert_eq!(g.root, Uid::new(1));
        let levels = g.levels().unwrap();
        assert_eq!(levels[&Uid::new(5)], 2);
        assert_eq!(levels[&Uid::new(2)], 2);
    }

    #[test]
    fn ring_converges_and_all_links_reported() {
        let mut net = TestNet::new(
            &[7, 3, 9, 1, 5, 8],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
            &params(),
        );
        net.trigger(2);
        net.run(SimTime::from_secs(2));
        assert!(net.all_completed_consistently());
        let g = net.completions[0].as_ref().unwrap();
        assert_eq!(g.root, Uid::new(1));
        let total_link_ends: usize = g.switches.iter().map(|s| s.links.len()).sum();
        assert_eq!(total_link_ends, 12, "six links, two ends each");
        // Numbers assigned uniquely.
        let nums: std::collections::BTreeSet<_> = g.numbers.values().collect();
        assert_eq!(nums.len(), 6);
    }

    #[test]
    fn concurrent_triggers_converge() {
        let mut net = TestNet::new(&[4, 2, 6, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)], &params());
        net.trigger(0);
        net.trigger(2);
        net.run(SimTime::from_secs(2));
        assert!(net.all_completed_consistently());
        assert_eq!(net.completions[0].as_ref().unwrap().root, Uid::new(1));
    }

    #[test]
    fn higher_epoch_preempts() {
        let mut net = TestNet::new(&[2, 1], &[(0, 1)], &params());
        net.trigger(0);
        net.run(SimTime::from_secs(1));
        let first_epoch = net.engines[0].epoch();
        assert!(net.engines[0].completed);
        // A second trigger at the other switch starts a higher epoch.
        net.completions = vec![None, None];
        net.trigger(1);
        net.run(SimTime::from_secs(2));
        assert!(net.all_completed_consistently());
        assert!(net.engines[0].epoch() > first_epoch);
        assert_eq!(net.engines[0].epoch(), net.engines[1].epoch());
    }

    #[test]
    fn message_loss_is_survived_by_retransmission() {
        for drop in [3u64, 5, 7] {
            let mut net = TestNet::new(
                &[5, 3, 1, 4, 2, 6],
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
                &params(),
            );
            net.drop_every = Some(drop);
            net.trigger(0);
            net.run(SimTime::from_secs(10));
            assert!(
                net.all_completed_consistently(),
                "drop=1/{drop}: {:?}",
                net.completions
                    .iter()
                    .map(|c| c.is_some())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn topology_matches_across_all_switches() {
        let mut net = TestNet::new(
            &[9, 4, 7, 1, 8, 3, 6, 2],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (1, 5),
                (2, 6),
            ],
            &params(),
        );
        net.trigger(3);
        net.run(SimTime::from_secs(2));
        assert!(net.all_completed_consistently());
        let first = net.completions[0].as_ref().unwrap();
        for c in &net.completions {
            let g = c.as_ref().unwrap();
            assert_eq!(g.root, first.root);
            assert_eq!(g.numbers, first.numbers);
            assert_eq!(g.switches.len(), first.switches.len());
        }
    }

    #[test]
    fn quiescence_baseline_completes_but_slower() {
        let t = SimDuration::from_millis(200);
        let mut p = params();
        p.termination = TerminationMode::RootQuiescence(t);
        let mut net = TestNet::new(&[5, 3, 1, 4, 2], &[(0, 1), (1, 2), (2, 3), (3, 4)], &p);
        net.trigger(0);
        net.run(SimTime::from_secs(5));
        assert!(net.completions.iter().all(|c| c.is_some()));
        // Compare against the stability mode on the same topology.
        let mut fast = TestNet::new(
            &[5, 3, 1, 4, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            &params(),
        );
        fast.trigger(0);
        fast.run(SimTime::from_secs(5));
        let slow_done = net
            .completion_times
            .iter()
            .flatten()
            .max()
            .unwrap()
            .as_nanos();
        let fast_done = fast
            .completion_times
            .iter()
            .flatten()
            .max()
            .unwrap()
            .as_nanos();
        assert!(
            slow_done > fast_done + t.as_nanos() / 2,
            "quiescence {slow_done} should be well after stability {fast_done}"
        );
    }

    #[test]
    fn aggressive_quiescence_opens_prematurely() {
        // A timeout far below the convergence time completes with an
        // incomplete topology somewhere.
        let t = SimDuration::from_micros(50);
        let mut p = params();
        p.retransmit_interval = SimDuration::from_millis(5);
        p.termination = TerminationMode::RootQuiescence(t);
        let mut net = TestNet::new(
            &[9, 4, 7, 1, 8, 3, 6, 2],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
            &p,
        );
        net.trigger(0);
        net.run(SimTime::from_secs(5));
        let incomplete = net
            .completions
            .iter()
            .flatten()
            .any(|g| g.switches.len() < 8);
        assert!(
            incomplete,
            "an aggressive timeout must yield a partial topology"
        );
    }

    #[test]
    fn stability_mode_never_completes_partially() {
        for seed_edges in [
            vec![(0usize, 1usize), (1, 2), (2, 3)],
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        ] {
            let mut net = TestNet::new(&[4, 2, 3, 1], &seed_edges, &params());
            net.trigger(1);
            net.run(SimTime::from_secs(2));
            for c in &net.completions {
                let g = c.as_ref().expect("all complete");
                assert_eq!(
                    g.switches.len(),
                    4,
                    "stability must deliver the full topology"
                );
            }
        }
    }

    #[test]
    fn adversarial_jitter_and_loss_fuzz() {
        // Random per-message delays (reordering across links) combined
        // with periodic loss, over several seeds and two topologies: the
        // protocol must always converge to the complete, consistent
        // topology rooted at the minimum UID.
        let uids = [9u64, 4, 7, 1, 8, 3];
        let edges = [
            (0usize, 1usize),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 4),
        ];
        for seed in 1..=12u64 {
            let mut net = TestNet::new(&uids, &edges, &params());
            net.jitter = Some((autonet_sim::SimRng::new(seed), SimDuration::from_millis(3)));
            if seed % 2 == 0 {
                net.drop_every = Some(4 + seed % 5);
            }
            net.trigger((seed % 6) as usize);
            if seed % 3 == 0 {
                // A racing second initiator.
                net.trigger(((seed + 2) % 6) as usize);
            }
            net.run(SimTime::from_secs(20));
            assert!(
                net.all_completed_consistently(),
                "seed {seed}: {:?}",
                net.completions
                    .iter()
                    .map(|c| c.as_ref().map(|g| g.switches.len()))
                    .collect::<Vec<_>>()
            );
            let g = net.completions[0].as_ref().unwrap();
            assert_eq!(g.root, Uid::new(1), "seed {seed}");
            assert_eq!(g.switches.len(), 6, "seed {seed}");
        }
    }

    #[test]
    fn stale_epoch_messages_are_ignored_completed_or_forming() {
        // The paper's epoch rule: join a higher epoch, ignore a lower one —
        // after completion and mid-formation alike, even from a known
        // neighbor that has not yet acknowledged our position.
        let mut net = TestNet::new(&[2, 1], &[(0, 1)], &params());
        net.trigger(0);
        net.run(SimTime::from_secs(1));
        let old = net.engines[0].epoch();
        let stale = [
            ControlMsg::TreePosition {
                epoch: Epoch(old.0 - 1),
                seq: 1,
                from_port: 1,
                pos: TreePosition::myself(Uid::new(1)),
            },
            ControlMsg::TopologyDownAck { epoch: old },
        ];
        assert!(net.engines[0].completed);
        let outs = net.engines[0].on_msg(net.now, 1, &stale[0]);
        assert!(outs.is_empty(), "{outs:?}");
        assert!(net.engines[0].completed);

        let nbrs = net.neighbor_map(0);
        let _ = net.engines[0].start(net.now, nbrs, 1, vec![]);
        let before = (net.engines[0].epoch(), net.engines[0].pos);
        let handled = net.engines[0].msg_disposition();
        for msg in &stale {
            let outs = net.engines[0].on_msg(net.now, 1, msg);
            assert!(outs.is_empty(), "{outs:?}");
        }
        assert!(!net.engines[0].completed);
        assert_eq!((net.engines[0].epoch(), net.engines[0].pos), before);
        let mut expected = handled;
        expected.stale += 2;
        assert_eq!(net.engines[0].msg_disposition(), expected);
    }

    #[test]
    fn laggard_is_pulled_forward_by_retransmission_alone() {
        // Engine 0 starts a new epoch and its join advertisement is lost.
        // Nothing the laggard says is answered; the retransmission timer
        // alone delivers the epoch, within one retransmit interval.
        let p = params();
        let mut net = TestNet::new(&[2, 1], &[(0, 1)], &p);
        net.trigger(0);
        net.run(SimTime::from_secs(1));
        let old = net.engines[1].epoch();
        let started = net.now;
        let nbrs = net.neighbor_map(0);
        let lost = net.engines[0].start(started, nbrs, 1, vec![]);
        assert!(lost
            .iter()
            .any(|o| matches!(o, ReconfigOutput::Send { .. })));
        net.completions = vec![None, None];
        let just_before = started + p.retransmit_interval - SimDuration::from_nanos(1);
        assert!(net.engines[0].on_tick(just_before).is_empty());
        assert_eq!(net.engines[1].epoch(), old);
        net.run(started + p.retransmit_interval + SimDuration::from_millis(2));
        assert_eq!(net.engines[1].epoch(), old.next());
        net.run(started + SimDuration::from_secs(1));
        assert!(net.all_completed_consistently(), "{:?}", net.completions);
    }

    #[test]
    fn messages_on_unknown_ports_do_not_corrupt_state() {
        // A reconfiguration message arriving on a port outside the epoch's
        // neighbor set (asymmetric promotion) is acknowledged by nothing
        // and changes nothing except possibly the epoch.
        let mut net = TestNet::new(&[2, 1], &[(0, 1)], &params());
        net.trigger(0);
        net.run(SimTime::from_secs(1));
        let epoch = net.engines[0].epoch();
        let pos_before = net.engines[0].pos;
        let rogue = ControlMsg::TreePosition {
            epoch,
            seq: 1,
            from_port: 3,
            pos: TreePosition::myself(Uid::new(0)), // Smaller than any UID.
        };
        // Port 9 is not wired; the engine must not adopt through it.
        let outs = net.engines[0].on_msg(net.now, 9, &rogue);
        assert!(outs.is_empty());
        assert_eq!(net.engines[0].pos, pos_before);
    }

    /// Engine 50 with one neighbor, 10 on port 1, adopted as parent.
    fn child_of_ten() -> (ReconfigEngine, Epoch) {
        let mut e = ReconfigEngine::new(Uid::new(50), &params());
        let ten = NeighborInfo {
            uid: Uid::new(10),
            their_port: 2,
        };
        let _ = e.start(SimTime::ZERO, BTreeMap::from([(1, ten)]), 1, vec![]);
        let epoch = e.epoch();
        let _ = e.on_msg(SimTime::from_micros(10), 1, &ten_is_root(epoch));
        assert_eq!(e.pos.parent, Uid::new(10));
        (e, epoch)
    }

    fn ten_is_root(epoch: Epoch) -> ControlMsg {
        ControlMsg::TreePosition {
            epoch,
            seq: 1,
            from_port: 2,
            pos: TreePosition::myself(Uid::new(10)),
        }
    }

    /// A down-flood from 10 describing `entries` below the root.
    fn down_from_ten(epoch: Epoch, entries: &[(u64, u64, PortIndex)]) -> ControlMsg {
        let info = |&(uid, parent, parent_port): &(u64, u64, PortIndex)| SwitchInfo {
            uid: Uid::new(uid),
            proposed_number: 1,
            parent: Uid::new(parent),
            parent_port,
            links: Vec::new(),
            host_ports: Vec::new(),
        };
        let switches = [(10, 10, 0)].iter().chain(entries).map(info).collect();
        ControlMsg::TopologyDown {
            epoch,
            global: GlobalTopology {
                epoch,
                root: Uid::new(10),
                switches: std::sync::Arc::new(switches),
                numbers: std::sync::Arc::new(BTreeMap::new()),
            },
        }
    }

    #[test]
    fn untruthful_topology_down_triggers_fresh_epoch() {
        // 50 receives a down-flood whose topology still shows it under a
        // stale parent — the fingerprint of a root that terminated while
        // 50's re-parenting advert was in flight. The engine must reject
        // the topology and start the next epoch instead of completing.
        let (mut e, epoch) = child_of_ten();
        let stale = down_from_ten(epoch, &[(50, 99, 4)]);
        let outs = e.on_msg(SimTime::from_micros(20), 1, &stale);
        assert!(!e.completed, "stale topology must not be adopted");
        assert_eq!(e.epoch(), epoch.next(), "a fresh epoch must start");
        assert!(
            outs.iter()
                .any(|o| matches!(o, ReconfigOutput::Event(ReconfigEvent::Started(ep)) if *ep == epoch.next())),
            "{outs:?}"
        );
        // Re-adopt the parent in the new epoch; a truthful topology then
        // completes normally.
        let _ = e.on_msg(SimTime::from_micros(30), 1, &ten_is_root(epoch.next()));
        assert_eq!(e.pos.parent, Uid::new(10));
        let good = down_from_ten(epoch.next(), &[(50, 10, 1)]);
        let _ = e.on_msg(SimTime::from_micros(40), 1, &good);
        assert!(e.completed);
    }

    #[test]
    fn duplicated_entry_in_topology_down_is_rejected() {
        let (mut e, epoch) = child_of_ten();
        let dup = down_from_ten(epoch, &[(50, 10, 1), (50, 10, 1)]);
        let _ = e.on_msg(SimTime::from_micros(20), 1, &dup);
        assert!(!e.completed);
        assert_eq!(e.epoch(), epoch.next());
    }

    /// A child's report that is a well-formed tree but numbers more
    /// switches than short addresses can hold reaches the root from the
    /// wire. The root refuses to terminate on it, counts the epoch once,
    /// and does not panic.
    #[test]
    fn oversized_report_is_refused_not_numbered() {
        let mut root = ReconfigEngine::new(Uid::new(10), &params());
        let fifty = NeighborInfo {
            uid: Uid::new(50),
            their_port: 2,
        };
        let _ = root.start(SimTime::ZERO, BTreeMap::from([(1, fifty)]), 1, vec![]);
        let epoch = root.epoch();
        let info = |uid: u64, parent: u64| SwitchInfo {
            uid: Uid::new(uid),
            proposed_number: 1,
            parent: Uid::new(parent),
            parent_port: 1,
            links: Vec::new(),
            host_ports: Vec::new(),
        };
        let below = (0..MAX_SWITCH_NUMBER as u64).map(|i| info(100 + i, 50));
        let report = SubtreeReport {
            switches: std::iter::once(info(50, 10)).chain(below).collect(),
        };
        let wire = [
            ControlMsg::TreePositionAck {
                epoch,
                seq: 1,
                is_parent: false,
                sender_seq: 1,
                sender_from_port: 2,
                sender_pos: TreePosition::as_child_of(
                    &TreePosition::myself(Uid::new(10)),
                    Uid::new(10),
                    2,
                ),
            },
            ControlMsg::TopologyReport {
                epoch,
                seq: 1,
                report,
            },
        ];
        let mut outs = Vec::new();
        for (i, msg) in wire.iter().enumerate() {
            let msg = ControlMsg::decode(&msg.encode()).expect("well-formed");
            outs.extend(root.on_msg(SimTime::from_micros(10 * (i as u64 + 1)), 1, &msg));
        }
        // Stable over a tree of 4 096 switches: only the size refuses it.
        assert!(root.is_stable());
        let collected = root.build_report();
        assert!(collected.describes_tree(Uid::new(10)));
        assert!(collected.len() > MAX_SWITCH_NUMBER as usize);
        let terminated = |o: &ReconfigOutput| {
            matches!(
                o,
                ReconfigOutput::Event(ReconfigEvent::RootTerminated(_))
                    | ReconfigOutput::Completed(_)
            )
        };
        assert!(!outs.iter().any(terminated), "{outs:?}");
        assert!(!root.completed);
        assert_eq!(root.oversized_refusals(), 1);
        // Later ticks refuse again without recounting.
        let outs = root.on_tick(SimTime::from_millis(50));
        assert!(!outs.iter().any(terminated));
        assert_eq!(root.oversized_refusals(), 1);
    }

    #[test]
    fn update_local_info_feeds_the_next_join() {
        let mut net = TestNet::new(&[2, 1], &[(0, 1)], &params());
        net.trigger(0);
        net.run(SimTime::from_secs(1));
        // Engine 0 learns of new host ports between epochs.
        net.engines[0].update_local_info(7, vec![4, 5]);
        // A new epoch initiated elsewhere pulls engine 0 in; its report
        // must carry the fresh local info.
        net.trigger(1);
        net.run(SimTime::from_secs(2));
        let g = net.completions[1].as_ref().expect("completed");
        let info = g
            .switches
            .iter()
            .find(|s| s.uid == Uid::new(2))
            .expect("switch 0 present");
        assert_eq!(info.host_ports, vec![4, 5]);
        assert_eq!(info.proposed_number, 7);
        assert_eq!(g.numbers[&Uid::new(2)], 7, "uncontested proposal honored");
    }
}

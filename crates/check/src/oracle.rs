//! Online invariant oracles.
//!
//! Every oracle is a fold over the typed [`TraceRecord`] spine, plus the
//! fault notices ([`OracleState::on_fault`]) and quiescence instants
//! ([`OracleState::at_quiescence`]) the engine hands it. None reads a
//! switch, so every backend that logs the spine is judged alike. Each
//! fires the moment an invariant of the paper is violated:
//!
//! - **Epoch monotonicity** (§6.2): every `network_opened` on a switch
//!   carries a strictly larger epoch than its previous open; a reboot
//!   resets the history (the fresh control program legitimately rejoins
//!   low).
//! - **Installed-table cycle-freedom** (§4): the channel dependency graph
//!   over the tables of all simultaneously *open* switches is acyclic —
//!   see `crate::tables`.
//! - **Skeptic hysteresis** (§6.5.5): once the network has converged, a
//!   port's dead *episode* — from its first transition into `s.dead` (or
//!   its switch's `Boot`, since every port of a fresh switch starts there)
//!   to its next transition into `s.switch.good` — must last at least the
//!   configured bound. The port is condemned on bad evidence, the status
//!   skeptic keeps it in `s.dead` for its full hold *after* that evidence,
//!   and the connectivity skeptic demands a probe streak of its own hold
//!   before `s.switch.good` — so an honest episode lasts at least
//!   `status_min_hold + classification + conn_min_hold` no matter how
//!   quickly the cable itself recovered. Both ends are instants the switch
//!   logged, so a shorter episode is a sound violation.
//! - **Single-epoch agreement at quiescence**: inside each physical
//!   component, every up switch is open on one common epoch and has
//!   entered no later one.
//! - **Reconfiguration termination** (liveness) is enforced by the engine
//!   as a settle budget and reported as [`Violation::SettleTimeout`].

use std::collections::{BTreeMap, BTreeSet};

use autonet_core::{AutopilotParams, Epoch, Event, PortState};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{connected_components, NetView, SwitchId, Topology};
use autonet_trace::TraceRecord;
use autonet_wire::PortIndex;

use crate::scenario::FaultOp;
use crate::tables::{channel_cycle, table_edges};

/// What the oracles enforce and how the engine paces them.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Minimum legal length of a dead episode: entry into `s.dead` to the
    /// next entry into `s.switch.good` (armed after first quiescence).
    pub skeptic_bound: SimDuration,
    /// Period of the settle poll: while waiting for quiescence the engine
    /// runs this long between two `substrate::quiescent` checks.
    pub step_ms: u64,
    /// Probe cadence on topologies with at least two hosts.
    pub probe_interval: SimDuration,
}

impl OracleConfig {
    /// Derives the bounds the given parameters are *supposed* to enforce.
    /// Run a backend with degraded parameters against the config derived
    /// from the honest ones and the skeptic oracle fires — the planted-bug
    /// check in the test suite does exactly that.
    pub fn from_params(p: &AutopilotParams) -> Self {
        OracleConfig {
            // An honest episode pays both skeptics in sequence: the
            // sampler keeps the port in `s.dead` for the status hold
            // (≥ status_min_hold, and the hold runs *after* the condemning
            // evidence), reclassification takes `classify_samples`
            // samples, and the connectivity monitor then demands a probe
            // streak of the connectivity hold (≥ conn_min_hold) before
            // promoting `s.switch.who` → `s.switch.good`. One sampling
            // interval is surrendered to evidence-timing granularity.
            skeptic_bound: p.status_min_hold
                + p.conn_min_hold
                + p.sampling_interval
                    .saturating_mul(u64::from(p.classify_samples.saturating_sub(1))),
            step_ms: 20,
            probe_interval: SimDuration::from_millis(25),
        }
    }
}

/// An invariant violation, with enough context to debug and to key the
/// shrinker ("same kind still reproduces").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A switch reopened at an epoch not above its previous open.
    EpochRegression {
        node: usize,
        prev: Epoch,
        new: Epoch,
        time: SimTime,
    },
    /// The open switches' installed tables close a channel cycle.
    TableCycle {
        node: usize,
        channels: Vec<String>,
        time: SimTime,
    },
    /// A port was readmitted to service faster than the skeptic allows.
    SkepticHold {
        node: usize,
        port: PortIndex,
        held: SimDuration,
        bound: SimDuration,
        time: SimTime,
    },
    /// Open switches in one physical component disagree (or are closed)
    /// at a quiescence waypoint.
    QuiescenceDisagreement { detail: String, time: SimTime },
    /// The network failed to settle within the liveness budget.
    SettleTimeout { at: SimTime, budget_ms: u64 },
    /// The converged control plane disagrees with the graph-theoretic
    /// reference (packet backend only).
    ReferenceMismatch { detail: String, time: SimTime },
    /// A probe-flow blackout window is internally inconsistent (bad
    /// ordering, or it starts before the reconfiguration that is supposed
    /// to explain it was even triggered).
    BlackoutMalformed {
        pair: u32,
        src: usize,
        dst: usize,
        detail: String,
        time: SimTime,
    },
    /// A blackout window on a non-exempt host pair overlaps no
    /// reconfiguration: service was interrupted without a cause the
    /// control plane knows about.
    BlackoutUnexplained {
        pair: u32,
        src: usize,
        dst: usize,
        start: SimTime,
        end: SimTime,
    },
    /// A blackout outlived its reconfiguration: the window ends later
    /// than the epoch's reopen plus the relearning slack.
    BlackoutOverrun {
        pair: u32,
        src: usize,
        dst: usize,
        end: SimTime,
        bound: SimTime,
    },
}

impl Violation {
    /// A stable short tag, used by the shrinker to decide whether a
    /// shrunk schedule reproduces "the same" failure.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::EpochRegression { .. } => "epoch-regression",
            Violation::TableCycle { .. } => "table-cycle",
            Violation::SkepticHold { .. } => "skeptic-hold",
            Violation::QuiescenceDisagreement { .. } => "quiescence-disagreement",
            Violation::SettleTimeout { .. } => "settle-timeout",
            Violation::ReferenceMismatch { .. } => "reference-mismatch",
            Violation::BlackoutMalformed { .. } => "blackout-malformed",
            Violation::BlackoutUnexplained { .. } => "blackout-unexplained",
            Violation::BlackoutOverrun { .. } => "blackout-overrun",
        }
    }

    /// The simulation instant the violation anchors to — what the flight
    /// recorder centers its event window on. For window-shaped violations
    /// (blackouts) this is the window's end, the moment the oracle could
    /// first judge it.
    pub fn time(&self) -> SimTime {
        match *self {
            Violation::EpochRegression { time, .. }
            | Violation::TableCycle { time, .. }
            | Violation::SkepticHold { time, .. }
            | Violation::QuiescenceDisagreement { time, .. }
            | Violation::ReferenceMismatch { time, .. }
            | Violation::BlackoutMalformed { time, .. } => time,
            Violation::SettleTimeout { at, .. } => at,
            Violation::BlackoutUnexplained { end, .. } => end,
            Violation::BlackoutOverrun { end, .. } => end,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::EpochRegression {
                node,
                prev,
                new,
                time,
            } => write!(
                f,
                "epoch regression on switch {node} at {time}: opened at {new:?} after {prev:?}"
            ),
            Violation::TableCycle {
                node,
                channels,
                time,
            } => write!(
                f,
                "installed-table channel cycle after switch {node} at {time}: {}",
                channels.join(" → ")
            ),
            Violation::SkepticHold {
                node,
                port,
                held,
                bound,
                time,
            } => write!(
                f,
                "skeptic violated on switch {node} port {port} at {time}: readmitted after {held} (bound {bound})"
            ),
            Violation::QuiescenceDisagreement { detail, time } => {
                write!(f, "quiescence disagreement at {time}: {detail}")
            }
            Violation::SettleTimeout { at, budget_ms } => {
                write!(f, "network failed to settle by {at} (budget {budget_ms} ms)")
            }
            Violation::ReferenceMismatch { detail, time } => {
                write!(f, "reference mismatch at {time}: {detail}")
            }
            Violation::BlackoutMalformed {
                pair,
                src,
                dst,
                detail,
                time,
            } => write!(
                f,
                "malformed blackout on pair {pair} ({src} -> {dst}) at {time}: {detail}"
            ),
            Violation::BlackoutUnexplained {
                pair,
                src,
                dst,
                start,
                end,
            } => write!(
                f,
                "unexplained blackout on pair {pair} ({src} -> {dst}): dark {start} .. {end} with no overlapping reconfiguration"
            ),
            Violation::BlackoutOverrun {
                pair,
                src,
                dst,
                end,
                bound,
            } => write!(
                f,
                "blackout overrun on pair {pair} ({src} -> {dst}): service still dark at {end}, bound was {bound}"
            ),
        }
    }
}

/// How far past its epoch's reopen a blackout may run before the oracle
/// fires: data-plane restoration includes host address relearning (ARP
/// refresh / broadcast fallback), which trails the control plane by up to
/// a couple of seconds.
const BLACKOUT_SLACK: SimDuration = SimDuration::from_secs(6);

/// The end-of-campaign blackout oracle: every recorded window on a
/// non-exempt pair (neither endpoint ever lost power) must be well
/// formed, explained by a reconfiguration epoch, and contained in that
/// epoch's trigger → reopen span plus `BLACKOUT_SLACK` for host
/// relearning.
pub fn audit_blackouts(
    report: &autonet_trace::InterruptionReport,
    timeline: &autonet_trace::Timeline,
    exempt: &BTreeSet<usize>,
    horizon: SimTime,
) -> Option<Violation> {
    for p in &report.pairs {
        if exempt.contains(&p.src) || exempt.contains(&p.dst) {
            continue;
        }
        for w in &p.windows {
            if w.start > w.end {
                return Some(Violation::BlackoutMalformed {
                    pair: w.pair,
                    src: p.src,
                    dst: p.dst,
                    detail: format!("window starts at {} after it ends at {}", w.start, w.end),
                    time: w.end,
                });
            }
            let Some(epoch) = w.epoch else {
                return Some(Violation::BlackoutUnexplained {
                    pair: w.pair,
                    src: p.src,
                    dst: p.dst,
                    start: w.start,
                    end: w.end,
                });
            };
            let Some(r) = timeline.epochs.iter().find(|r| r.epoch == epoch) else {
                return Some(Violation::BlackoutMalformed {
                    pair: w.pair,
                    src: p.src,
                    dst: p.dst,
                    detail: format!("attributed to {epoch:?}, which the timeline never saw"),
                    time: w.end,
                });
            };
            let trigger = r.detected.or(r.closed).unwrap_or(w.start);
            if w.start < trigger {
                return Some(Violation::BlackoutMalformed {
                    pair: w.pair,
                    src: p.src,
                    dst: p.dst,
                    detail: format!(
                        "window opens at {} before its {epoch:?} trigger at {trigger}",
                        w.start
                    ),
                    time: w.end,
                });
            }
            let bound = r.opened.unwrap_or(horizon) + BLACKOUT_SLACK;
            if w.end > bound {
                return Some(Violation::BlackoutOverrun {
                    pair: w.pair,
                    src: p.src,
                    dst: p.dst,
                    end: w.end,
                    bound,
                });
            }
        }
    }
    None
}

/// The mutable state of all online oracles for one campaign run.
#[derive(Clone)]
pub struct OracleState {
    cfg: OracleConfig,
    /// Whether first quiescence has been reached (arms the skeptic
    /// oracle: bring-up admissions from cold boot are exempt).
    armed: bool,
    /// Per node: the epoch of its last `network_opened` in the current
    /// incarnation.
    last_open_epoch: Vec<Option<Epoch>>,
    /// Per node: the epoch it last started or joined (`reconfig_triggered`).
    entered: Vec<Option<Epoch>>,
    /// Per node: currently open for host traffic.
    open: Vec<bool>,
    /// Per node: currently powered (engine faults update this).
    up: Vec<bool>,
    /// Per node: the channel dependency edges of its most recently
    /// installed table, folded once at install (empty before the first).
    edges: Vec<Vec<(usize, usize)>>,
    /// Per node: when each port's current dead episode began; cleared when
    /// the port enters `s.switch.good`.
    dead_since: Vec<BTreeMap<PortIndex, SimTime>>,
}

impl OracleState {
    /// Fresh oracle state for a campaign over `topo`.
    pub fn new(topo: &Topology, cfg: OracleConfig) -> Self {
        let n = topo.num_switches();
        OracleState {
            cfg,
            armed: false,
            last_open_epoch: vec![None; n],
            entered: vec![None; n],
            open: vec![false; n],
            up: vec![true; n],
            edges: vec![Vec::new(); n],
            dead_since: vec![BTreeMap::new(); n],
        }
    }

    /// The engine applied a fault: adjust incarnation-scoped state.
    pub fn on_fault(&mut self, op: &FaultOp) {
        let (FaultOp::SwitchDown(s) | FaultOp::SwitchUp(s)) = *op else {
            return;
        };
        // Down, or a fresh control program booting: epoch history and
        // port episodes restart from scratch.
        self.up[s] = matches!(op, FaultOp::SwitchUp(_));
        self.open[s] = false;
        self.edges[s].clear();
        self.last_open_epoch[s] = None;
        self.entered[s] = None;
        self.dead_since[s].clear();
    }

    /// Feeds a drained batch of trace records through the epoch, table
    /// and skeptic oracles, in order, and tracks what the agreement check
    /// at the next quiescence reads.
    pub fn ingest(&mut self, topo: &Topology, records: &[TraceRecord]) -> Option<Violation> {
        for rec in records {
            let node = rec.node;
            match &rec.event {
                Event::Boot { .. } => {
                    // A fresh switch logs no transition for ports that
                    // start `s.dead`: its cabled trunk ports' episodes
                    // begin here.
                    for (port, l) in topo.links_at(SwitchId(node)) {
                        if !topo.link(l).is_loopback() {
                            self.dead_since[node].entry(port).or_insert(rec.time);
                        }
                    }
                }
                Event::PortTransition {
                    port,
                    to: PortState::Dead,
                    ..
                } => {
                    self.dead_since[node].entry(*port).or_insert(rec.time);
                }
                Event::PortTransition {
                    port,
                    to: PortState::SwitchGood,
                    ..
                } => {
                    // Readmission closes the episode whether or not it is
                    // judged (bring-up admissions while unarmed clear it).
                    let Some(since) = self.dead_since[node].remove(port) else {
                        continue;
                    };
                    let held = rec.time - since;
                    if self.armed && held < self.cfg.skeptic_bound {
                        return Some(Violation::SkepticHold {
                            node,
                            port: *port,
                            held,
                            bound: self.cfg.skeptic_bound,
                            time: rec.time,
                        });
                    }
                }
                Event::ReconfigTriggered { epoch, .. } => self.entered[node] = Some(*epoch),
                Event::NetworkOpened { epoch } => {
                    if let Some(prev) = self.last_open_epoch[node] {
                        if *epoch <= prev {
                            return Some(Violation::EpochRegression {
                                node,
                                prev,
                                new: *epoch,
                                time: rec.time,
                            });
                        }
                    }
                    self.last_open_epoch[node] = Some(*epoch);
                    self.open[node] = true;
                    if let Some(v) = self.check_tables(topo, node, rec.time) {
                        return Some(v);
                    }
                }
                Event::NetworkClosed { .. } => self.open[node] = false,
                Event::TableInstalled { table, .. } => {
                    self.edges[node] = table_edges(topo, SwitchId(node), table);
                    if self.open[node] {
                        // A live patch (host arrival/departure) under an
                        // open network must keep the graph acyclic.
                        if let Some(v) = self.check_tables(topo, node, rec.time) {
                            return Some(v);
                        }
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn check_tables(&self, topo: &Topology, node: usize, time: SimTime) -> Option<Violation> {
        // Tables are checked one epoch at a time: within an epoch every
        // open switch routes on the same agreed topology, and that union
        // is what the paper claims acyclic. While an epoch transition is
        // in flight, old-epoch switches can legitimately still be open
        // next to freshly reopened new-epoch ones; that mixture is
        // transition state, not an installed configuration.
        let epochs: BTreeSet<Epoch> = self
            .last_open_epoch
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.open[s] && self.up[s])
            .filter_map(|(_, e)| *e)
            .collect();
        // Each channel enters exactly one switch, so the open switches'
        // edge lists are disjoint and concatenate to the epoch's graph.
        let mut edges = Vec::new();
        for epoch in epochs {
            edges.clear();
            for (s, own) in self.edges.iter().enumerate() {
                if self.open[s] && self.up[s] && self.last_open_epoch[s] == Some(epoch) {
                    edges.extend_from_slice(own);
                }
            }
            if let Some(channels) = channel_cycle(topo, &edges) {
                return Some(Violation::TableCycle {
                    node,
                    channels,
                    time,
                });
            }
        }
        None
    }

    /// The engine reached quiescence: arm the skeptic oracle and check
    /// that every up switch of each physical component is open on one
    /// common epoch, and has entered none past it. One root per component
    /// is the network's side of quiescence (`substrate::quiescent`).
    pub fn at_quiescence(&mut self, now: SimTime, view: &NetView<'_>) -> Option<Violation> {
        self.armed = true;
        let disagreement = |detail| Violation::QuiescenceDisagreement { detail, time: now };
        for component in connected_components(view) {
            let mut agreed: Option<(usize, Epoch)> = None;
            for SwitchId(s) in component {
                let (true, Some(epoch)) = (self.open[s], self.last_open_epoch[s]) else {
                    return Some(disagreement(format!("switch {s} is closed at quiescence")));
                };
                if let Some(entered) = self.entered[s].filter(|&e| e > epoch) {
                    return Some(disagreement(format!(
                        "switch {s} is open on {epoch:?} but entered {entered:?}"
                    )));
                }
                match agreed {
                    None => agreed = Some((s, epoch)),
                    Some((first, e)) if e != epoch => {
                        return Some(disagreement(format!(
                            "switches {first} and {s} disagree: {e:?} vs {epoch:?}"
                        )));
                    }
                    Some(_) => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::{ReconfigCause, TransitionCause};
    use autonet_switch::{ForwardingEntry, ForwardingTable, PortSet};
    use autonet_wire::{LinkTiming, Uid};

    /// Switch 0: port 1 a trunk to switch 1, ports 2 and 3 a loopback
    /// cable, port 4 a host, port 5 uncabled.
    fn topo() -> Topology {
        let mut t = Topology::new();
        let a = t.add_switch(Uid::new(1)).unwrap();
        let b = t.add_switch(Uid::new(2)).unwrap();
        t.connect(a, b, LinkTiming::coax_100m()).unwrap();
        t.connect(a, a, LinkTiming::coax_100m()).unwrap();
        t.attach_host(Uid::new(100), a, None).unwrap();
        t
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn rec(node: usize, time: SimTime, event: Event) -> TraceRecord {
        TraceRecord { time, node, event }
    }

    fn enters(node: usize, time: SimTime, port: PortIndex, to: PortState) -> TraceRecord {
        let event = Event::PortTransition {
            port,
            from: PortState::Checking,
            to,
            cause: TransitionCause::Classified,
        };
        rec(node, time, event)
    }

    fn opens(node: usize, time: SimTime, epoch: u64) -> Vec<TraceRecord> {
        let epoch = Epoch(epoch);
        let cause = ReconfigCause::Boot;
        vec![
            rec(node, time, Event::ReconfigTriggered { epoch, cause }),
            rec(node, time, Event::NetworkOpened { epoch }),
        ]
    }

    /// Both switches open on epoch 1 at 1 s, which is first quiescence.
    fn armed(topo: &Topology) -> OracleState {
        let cfg = OracleConfig::from_params(&AutopilotParams::tuned());
        let mut oracle = OracleState::new(topo, cfg);
        let records = [opens(0, ms(1_000), 1), opens(1, ms(1_000), 1)].concat();
        assert_eq!(oracle.ingest(topo, &records), None);
        assert_eq!(oracle.at_quiescence(ms(1_000), &topo.view_all()), None);
        oracle
    }

    #[test]
    fn an_episode_one_nanosecond_short_of_the_bound_convicts() {
        let topo = topo();
        let bound = armed(&topo).cfg.skeptic_bound;
        let episode = |held: SimDuration| {
            let dead = ms(2_000);
            armed(&topo).ingest(
                &topo,
                &[
                    enters(1, dead, 1, PortState::Dead),
                    enters(1, dead + held / 2, 1, PortState::Checking),
                    enters(1, dead + held, 1, PortState::SwitchGood),
                ],
            )
        };
        let short = bound - SimDuration::from_nanos(1);
        assert_eq!(
            episode(short),
            Some(Violation::SkepticHold {
                node: 1,
                port: 1,
                held: short,
                bound,
                time: ms(2_000) + short,
            })
        );
        assert_eq!(episode(bound), None);
    }

    #[test]
    fn a_reboot_opens_an_episode_on_cabled_trunk_ports_only() {
        let topo = topo();
        let mut oracle = armed(&topo);
        oracle.on_fault(&FaultOp::SwitchUp(0));
        let boot = rec(0, ms(2_000), Event::Boot { uid: Uid::new(1) });
        assert_eq!(oracle.ingest(&topo, &[boot]), None);
        // Loopback, host and uncabled ports carry no episode to judge.
        let elsewhere: Vec<TraceRecord> = (2..=5)
            .map(|p| enters(0, ms(2_001), p, PortState::SwitchGood))
            .collect();
        assert_eq!(oracle.ingest(&topo, &elsewhere), None);
        let trunk = enters(0, ms(2_001), 1, PortState::SwitchGood);
        assert_eq!(
            oracle.ingest(&topo, &[trunk]).map(|v| v.kind()),
            Some("skeptic-hold")
        );
    }

    #[test]
    fn disagreement_fires_on_a_later_entered_epoch_and_on_a_closed_switch() {
        let topo = topo();
        let quiescence = |records: &[TraceRecord]| {
            let mut oracle = armed(&topo);
            assert_eq!(oracle.ingest(&topo, records), None);
            match oracle.at_quiescence(ms(3_000), &topo.view_all()) {
                Some(Violation::QuiescenceDisagreement { detail, .. }) => detail,
                other => panic!("no disagreement: {other:?}"),
            }
        };
        let next = Event::ReconfigTriggered {
            epoch: Epoch(2),
            cause: ReconfigCause::NewNeighbor,
        };
        assert_eq!(
            quiescence(&[rec(1, ms(2_000), next)]),
            "switch 1 is open on e1 but entered e2"
        );
        let closed = Event::NetworkClosed { epoch: Epoch(2) };
        assert_eq!(
            quiescence(&[rec(1, ms(2_000), closed)]),
            "switch 1 is closed at quiescence"
        );
    }

    /// `node` installs a table that sends packets for switch number 9
    /// arriving over the trunk (port 1 on both switches) straight back
    /// over it.
    fn installs(node: usize, time: SimTime, epoch: u64) -> TraceRecord {
        let mut table = ForwardingTable::new();
        table.set_switch_prefix(1, 9, ForwardingEntry::alternatives(PortSet::single(1)));
        let epoch = Epoch(epoch);
        rec(node, time, Event::TableInstalled { epoch, table })
    }

    /// The two reflecting tables' ping-pong, as `find_cycle` names it.
    fn ping_pong(node: usize, time: SimTime) -> Option<Violation> {
        let channels = vec!["s0→s1 (link 0)".into(), "s1→s0 (link 0)".into()];
        Some(Violation::TableCycle {
            node,
            channels,
            time,
        })
    }

    #[test]
    fn the_reopen_closing_a_ping_pong_convicts_at_its_instant() {
        let topo = topo();
        let cfg = OracleConfig::from_params(&AutopilotParams::tuned());
        let mut oracle = OracleState::new(&topo, cfg);
        let first = [
            vec![installs(0, ms(10), 1), installs(1, ms(10), 1)],
            opens(0, ms(20), 1),
        ];
        assert_eq!(oracle.ingest(&topo, &first.concat()), None);
        assert_eq!(
            oracle.ingest(&topo, &opens(1, ms(30), 1)),
            ping_pong(1, ms(30))
        );
    }

    #[test]
    fn an_install_on_an_open_switch_convicts_at_its_instant() {
        let topo = topo();
        let mut oracle = armed(&topo);
        assert_eq!(oracle.ingest(&topo, &[installs(0, ms(2_000), 1)]), None);
        assert_eq!(
            oracle.ingest(&topo, &[installs(1, ms(3_000), 1)]),
            ping_pong(1, ms(3_000))
        );
    }

    #[test]
    fn closed_down_and_other_epoch_switches_contribute_no_edge() {
        let topo = topo();
        let closed = [
            rec(1, ms(2_000), Event::NetworkClosed { epoch: Epoch(2) }),
            installs(1, ms(2_100), 2),
            installs(0, ms(2_200), 1),
        ];
        assert_eq!(armed(&topo).ingest(&topo, &closed), None);

        let mut down = armed(&topo);
        assert_eq!(down.ingest(&topo, &[installs(1, ms(2_000), 1)]), None);
        down.on_fault(&FaultOp::SwitchDown(1));
        assert_eq!(down.ingest(&topo, &[installs(0, ms(2_100), 1)]), None);

        // Switch 1 moves on to epoch 2 while switch 0 stays open on 1: two
        // configurations, never one graph, until switch 0 reopens on 2.
        let mut split = armed(&topo);
        let moved = [
            vec![
                installs(0, ms(2_000), 1),
                rec(1, ms(2_100), Event::NetworkClosed { epoch: Epoch(2) }),
                installs(1, ms(2_200), 2),
            ],
            opens(1, ms(2_300), 2),
        ];
        assert_eq!(split.ingest(&topo, &moved.concat()), None);
        assert_eq!(
            split.ingest(&topo, &opens(0, ms(2_400), 2)),
            ping_pong(0, ms(2_400))
        );
    }

    #[test]
    fn a_reboot_forgets_the_installed_edges() {
        let topo = topo();
        let mut oracle = armed(&topo);
        assert_eq!(oracle.ingest(&topo, &[installs(1, ms(2_000), 1)]), None);
        oracle.on_fault(&FaultOp::SwitchUp(1));
        assert_eq!(oracle.ingest(&topo, &[installs(0, ms(2_100), 1)]), None);
        // The fresh incarnation reopens beside switch 0's reflecting table
        // before installing anything: it brings no edge of the old one.
        assert_eq!(oracle.ingest(&topo, &opens(1, ms(2_200), 1)), None);
        assert_eq!(
            oracle.ingest(&topo, &[installs(1, ms(2_300), 1)]),
            ping_pong(1, ms(2_300))
        );
    }
}

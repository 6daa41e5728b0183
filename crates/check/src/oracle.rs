//! Online invariant oracles.
//!
//! Each oracle watches the control-plane observations a backend surfaces
//! (the typed [`TraceRecord`] spine plus sampled port-state and epoch
//! snapshots) and fires the moment an invariant of the paper is violated:
//!
//! - **Epoch monotonicity** (§6.2): every `network_opened` on a switch
//!   carries a strictly larger epoch than its previous open; a reboot
//!   resets the history (the fresh Autopilot legitimately rejoins low).
//! - **Installed-table cycle-freedom** (§4): the channel dependency graph
//!   over the tables of all simultaneously *open* switches is acyclic —
//!   see `crate::tables`.
//! - **Skeptic hysteresis** (§6.5.5): once the network has converged, a
//!   port's dead *episode* — from the first time it is observed `s.dead`
//!   to the first `s.switch.good` after it — must last at least the
//!   configured bound. The port is condemned on bad evidence, the status
//!   skeptic keeps it in `s.dead` for its full hold *after* that
//!   evidence, and the connectivity skeptic demands a probe streak of its
//!   own hold before `s.switch.good` — so an honest episode lasts at
//!   least `status_min_hold + classification + conn_min_hold` no matter
//!   how quickly the cable itself recovered; a shorter observed episode
//!   (after allowing one observation step of slop) is a sound violation.
//! - **Single-epoch agreement at quiescence**: inside each physical
//!   component, every up switch is open on one common epoch.
//! - **Reconfiguration termination** (liveness) is enforced by the engine
//!   as a settle budget and reported as [`Violation::SettleTimeout`].

use std::collections::{BTreeMap, BTreeSet};

use autonet_core::{AutopilotParams, Epoch, Event, PortState};
use autonet_sim::{SimDuration, SimTime};
use autonet_switch::ForwardingTable;
use autonet_topo::{connected_components, NetView, Topology};
use autonet_trace::TraceRecord;
use autonet_wire::{PortIndex, Uid};

use crate::scenario::FaultOp;
use crate::substrate::{NodeSnapshot, PortObservation};
use crate::tables::find_table_cycle;

/// What the oracles enforce and how the engine paces them.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Minimum legal length of a dead episode: first observation of
    /// `s.dead` to the next observation of `s.switch.good` (armed after
    /// first quiescence, compared after one observation step of slop).
    pub skeptic_bound: SimDuration,
    /// Budget for the initial bring-up convergence.
    pub bringup_budget_ms: u64,
    /// Simulation chunk between oracle evaluations.
    pub step_ms: u64,
    /// Run service-interruption probes (topologies with ≥ 2 hosts only)
    /// and check every blackout window at campaign end.
    pub check_blackouts: bool,
    /// Probe cadence when blackout checking is on.
    pub probe_interval: SimDuration,
    /// How far past its epoch's reopen a blackout may run before the
    /// oracle fires: data-plane restoration includes host address
    /// relearning (ARP refresh / broadcast fallback), which trails the
    /// control plane by up to a couple of seconds.
    pub blackout_slack: SimDuration,
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
            // interval is surrendered to evidence-timing granularity; the
            // observation-step slop is applied at comparison time.
            skeptic_bound: p.status_min_hold
                + p.conn_min_hold
                + p.sampling_interval
                    .saturating_mul(u64::from(p.classify_samples.saturating_sub(1))),
            bringup_budget_ms: 120_000,
            step_ms: 20,
            check_blackouts: true,
            probe_interval: SimDuration::from_millis(25),
            blackout_slack: SimDuration::from_secs(6),
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

/// The end-of-campaign blackout oracle: every recorded window on a
/// non-exempt pair (neither endpoint ever lost power) must be well
/// formed, explained by a reconfiguration epoch, and contained in that
/// epoch's trigger → reopen span plus `slack` for host relearning.
pub fn check_blackouts(
    report: &autonet_trace::InterruptionReport,
    timeline: &autonet_trace::Timeline,
    exempt: &BTreeSet<usize>,
    slack: SimDuration,
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
            let bound = r.opened.unwrap_or(horizon) + slack;
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
    /// Per node: the epoch of the last observed `network_opened` in the
    /// current incarnation.
    last_open_epoch: Vec<Option<Epoch>>,
    /// Per node: currently open for host traffic.
    open: Vec<bool>,
    /// Per node: currently powered (engine faults update this).
    up: Vec<bool>,
    /// Per node: most recently installed forwarding table.
    tables: Vec<Option<ForwardingTable>>,
    /// Per node: when each trunk port's current dead episode was first
    /// observed (`s.dead`); cleared when the port reaches `s.switch.good`.
    dead_since: Vec<BTreeMap<PortIndex, SimTime>>,
    /// Per node: trunk ports currently observed `s.switch.good`.
    admitted: Vec<BTreeSet<PortIndex>>,
}

impl OracleState {
    /// Fresh oracle state for a campaign over `topo`.
    pub fn new(topo: &Topology, cfg: OracleConfig) -> Self {
        let n = topo.num_switches();
        OracleState {
            cfg,
            armed: false,
            last_open_epoch: vec![None; n],
            open: vec![false; n],
            up: vec![true; n],
            tables: vec![None; n],
            dead_since: vec![BTreeMap::new(); n],
            admitted: vec![BTreeSet::new(); n],
        }
    }

    /// The engine applied a fault: adjust incarnation-scoped state.
    pub fn on_fault(&mut self, op: &FaultOp) {
        match *op {
            FaultOp::SwitchDown(s) => {
                self.up[s] = false;
                self.open[s] = false;
                self.tables[s] = None;
                self.dead_since[s].clear();
                self.admitted[s].clear();
            }
            FaultOp::SwitchUp(s) => {
                // A fresh Autopilot boots: epoch history and port
                // observations restart from scratch.
                self.up[s] = true;
                self.open[s] = false;
                self.tables[s] = None;
                self.last_open_epoch[s] = None;
                self.dead_since[s].clear();
                self.admitted[s].clear();
            }
            _ => {}
        }
    }

    /// Feeds a drained batch of trace records through the epoch and
    /// table oracles, in order. Only the control-plane events matter
    /// here; port transitions, skeptic decisions and phase markers are
    /// other consumers' business and are skipped.
    pub fn ingest(&mut self, topo: &Topology, records: &[TraceRecord]) -> Option<Violation> {
        for rec in records {
            match &rec.event {
                Event::NetworkOpened { epoch } => {
                    if let Some(prev) = self.last_open_epoch[rec.node] {
                        if *epoch <= prev {
                            return Some(Violation::EpochRegression {
                                node: rec.node,
                                prev,
                                new: *epoch,
                                time: rec.time,
                            });
                        }
                    }
                    self.last_open_epoch[rec.node] = Some(*epoch);
                    self.open[rec.node] = true;
                    if let Some(v) = self.check_tables(topo, rec.node, rec.time) {
                        return Some(v);
                    }
                }
                Event::NetworkClosed { .. } => {
                    self.open[rec.node] = false;
                }
                Event::TableInstalled { table, .. } => {
                    self.tables[rec.node] = Some(table.clone());
                    if self.open[rec.node] {
                        // A live patch (host arrival/departure) under an
                        // open network must keep the graph acyclic.
                        if let Some(v) = self.check_tables(topo, rec.node, rec.time) {
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
        for epoch in epochs {
            let visible: Vec<Option<ForwardingTable>> = self
                .tables
                .iter()
                .enumerate()
                .map(|(s, t)| {
                    if self.open[s] && self.up[s] && self.last_open_epoch[s] == Some(epoch) {
                        t.clone()
                    } else {
                        None
                    }
                })
                .collect();
            if let Some(channels) = find_table_cycle(topo, &visible) {
                return Some(Violation::TableCycle {
                    node,
                    channels,
                    time,
                });
            }
        }
        None
    }

    /// Feeds a round of sampled port states through the skeptic oracle.
    pub fn observe_ports(&mut self, now: SimTime, obs: &[PortObservation]) -> Option<Violation> {
        for o in obs {
            if !self.up[o.node] {
                continue;
            }
            match o.state {
                PortState::Dead => {
                    self.dead_since[o.node].entry(o.port).or_insert(now);
                    self.admitted[o.node].remove(&o.port);
                }
                PortState::SwitchGood => {
                    let newly = self.admitted[o.node].insert(o.port);
                    // Good closes the episode whether or not it is checked
                    // (bring-up admissions while unarmed still clear it).
                    if let Some(td) = self.dead_since[o.node].remove(&o.port) {
                        if newly && self.armed {
                            let held = now - td;
                            let slop = SimDuration::from_millis(self.cfg.step_ms);
                            if held + slop < self.cfg.skeptic_bound {
                                return Some(Violation::SkepticHold {
                                    node: o.node,
                                    port: o.port,
                                    held,
                                    bound: self.cfg.skeptic_bound,
                                    time: now,
                                });
                            }
                        }
                    }
                }
                _ => {
                    // Intermediate states interrupt an admission but do
                    // not restart the dead clock.
                    self.admitted[o.node].remove(&o.port);
                }
            }
        }
        None
    }

    /// The engine reached quiescence: arm the skeptic oracle and check
    /// single-epoch agreement inside every physical component.
    pub fn at_quiescence(
        &mut self,
        now: SimTime,
        view: &NetView<'_>,
        snapshots: &[NodeSnapshot],
    ) -> Option<Violation> {
        self.armed = true;
        for component in connected_components(view) {
            let mut agreed: Option<(usize, Epoch, Option<Uid>)> = None;
            for &sid in &component {
                let snap = &snapshots[sid.0];
                if !snap.open {
                    return Some(Violation::QuiescenceDisagreement {
                        detail: format!("switch {} is closed at quiescence", sid.0),
                        time: now,
                    });
                }
                match agreed {
                    None => agreed = Some((sid.0, snap.epoch, snap.root)),
                    Some((first, epoch, root)) => {
                        if snap.epoch != epoch || snap.root != root {
                            return Some(Violation::QuiescenceDisagreement {
                                detail: format!(
                                    "switches {} and {} disagree: {:?}/{:?} vs {:?}/{:?}",
                                    first, sid.0, epoch, root, snap.epoch, snap.root
                                ),
                                time: now,
                            });
                        }
                    }
                }
            }
        }
        None
    }
}

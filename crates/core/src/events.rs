//! The typed control-plane event taxonomy.
//!
//! The companion paper (§6.7) describes the merged per-switch event log as
//! the project's primary debugging tool. This module gives the
//! reproduction the machine-readable version: a *closed* enum covering
//! exactly the observable happenings the paper reasons about — port-state
//! transitions up and down the tower, skeptic hysteresis decisions, and
//! the epoch lifecycle from failure detection to reopening. An
//! [`Autopilot`](crate::Autopilot) stores none of them: each entry point
//! hands the events it produces to
//! [`Environment::trace`](crate::Environment::trace) by value, and the
//! backend moves them into the one network-wide spine (`autonet-trace`)
//! that checkers, timelines and golden-trace tests all consume.
//!
//! Keep the enum closed: downstream consumers (oracles, the JSONL
//! serializer, timeline reconstruction) match exhaustively so that adding
//! a variant is a compile-visible change everywhere it matters.

use std::fmt;

use autonet_sim::SimDuration;
use autonet_switch::ForwardingTable;
use autonet_wire::{PortIndex, Uid};

use crate::epoch::Epoch;
use crate::port_state::PortState;

/// Why a reconfiguration was triggered (§4: any change in the set of
/// usable links or switches). The first five are the local triggers; the
/// last two are epochs the engine enters on a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigCause {
    /// The switch powered on.
    Boot,
    /// A port in service was condemned by the status sampler.
    PortDied,
    /// A new switch neighbor was verified on some port.
    NewNeighbor,
    /// A verified switch neighbor stopped answering probes.
    NeighborLost,
    /// A probe went unanswered past the timeout while classifying.
    ProbeTimeout,
    /// A neighbor announced a newer epoch; this switch joined it.
    EpochMessage,
    /// A flooded topology misdescribed this switch: it refused the flood
    /// and started the next epoch itself (§6.2).
    UntruthfulTopology,
}

impl ReconfigCause {
    /// Every cause, in declaration order: the slot order of
    /// [`Autopilot::epochs_by_cause`](crate::Autopilot::epochs_by_cause).
    pub const ALL: [ReconfigCause; 7] = [
        ReconfigCause::Boot,
        ReconfigCause::PortDied,
        ReconfigCause::NewNeighbor,
        ReconfigCause::NeighborLost,
        ReconfigCause::ProbeTimeout,
        ReconfigCause::EpochMessage,
        ReconfigCause::UntruthfulTopology,
    ];

    /// Stable lowercase tag (used by the canonical JSONL export).
    pub fn tag(self) -> &'static str {
        match self {
            ReconfigCause::Boot => "boot",
            ReconfigCause::PortDied => "port-died",
            ReconfigCause::NewNeighbor => "new-neighbor",
            ReconfigCause::NeighborLost => "neighbor-lost",
            ReconfigCause::ProbeTimeout => "probe-timeout",
            ReconfigCause::EpochMessage => "epoch-message",
            ReconfigCause::UntruthfulTopology => "untruthful-topology",
        }
    }
}

impl fmt::Display for ReconfigCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Which of the two skeptics (§6.5.5) made a decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkepticKind {
    /// The status skeptic gating `s.dead` → `s.checking`.
    Status,
    /// The connectivity skeptic gating `s.switch.who` → `s.switch.good`.
    Connectivity,
}

impl SkepticKind {
    /// Stable lowercase tag (used by the canonical JSONL export).
    pub fn tag(self) -> &'static str {
        match self {
            SkepticKind::Status => "status",
            SkepticKind::Connectivity => "connectivity",
        }
    }
}

/// What a skeptic decided about a port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkepticVerdict {
    /// The hold expired with a clean record: the port may advance.
    Release,
    /// The port completed classification and entered service.
    Accept,
    /// The port misbehaved: the skeptic raised its hold.
    Hold,
}

impl SkepticVerdict {
    /// Stable lowercase tag (used by the canonical JSONL export).
    pub fn tag(self) -> &'static str {
        match self {
            SkepticVerdict::Release => "release",
            SkepticVerdict::Accept => "accept",
            SkepticVerdict::Hold => "hold",
        }
    }
}

/// Why a port changed state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionCause {
    /// The status skeptic's hold expired on an error-free port.
    SkepticRelease,
    /// Enough clean samples matched a host or switch fingerprint.
    Classified,
    /// A probe reply proved the far end is the claimed switch.
    NeighborVerified,
    /// A probe reply came back on the sending switch: the cable loops.
    LoopDetected,
    /// Errors, `idhy`, or a blockage condemned the port.
    Relapse,
}

impl TransitionCause {
    /// Stable lowercase tag (used by the canonical JSONL export).
    pub fn tag(self) -> &'static str {
        match self {
            TransitionCause::SkepticRelease => "skeptic-release",
            TransitionCause::Classified => "classified",
            TransitionCause::NeighborVerified => "neighbor-verified",
            TransitionCause::LoopDetected => "loop-detected",
            TransitionCause::Relapse => "relapse",
        }
    }
}

impl fmt::Display for TransitionCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One observable control-plane happening on one switch.
///
/// The epoch-lifecycle variants spell out the paper's reconfiguration
/// phases in order: [`ReconfigTriggered`](Event::ReconfigTriggered)
/// (failure detected) → [`NetworkClosed`](Event::NetworkClosed) →
/// [`TreeStable`](Event::TreeStable) (the root's termination detection
/// fired) → [`AddressesAssigned`](Event::AddressesAssigned) →
/// [`TableInstalled`](Event::TableInstalled) →
/// [`NetworkOpened`](Event::NetworkOpened).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The control program started on this switch.
    Boot {
        /// The switch's hardwired unique id.
        uid: Uid,
    },
    /// A port moved on the state tower (§6.5).
    PortTransition {
        /// The port that changed.
        port: PortIndex,
        /// The state it left.
        from: PortState,
        /// The state it entered.
        to: PortState,
        /// Why it moved.
        cause: TransitionCause,
    },
    /// A skeptic ruled on a port (§6.5.5).
    SkepticDecision {
        /// The port ruled on.
        port: PortIndex,
        /// Which skeptic ruled.
        skeptic: SkepticKind,
        /// The ruling.
        verdict: SkepticVerdict,
        /// The hold the skeptic now requires for this port.
        hold: SimDuration,
    },
    /// A reconfiguration began: the failure (or arrival) was detected.
    ReconfigTriggered {
        /// The epoch the switch is entering.
        epoch: Epoch,
        /// What it detected.
        cause: ReconfigCause,
    },
    /// The switch stopped host traffic (reconfiguration step 1).
    NetworkClosed {
        /// The epoch being entered.
        epoch: Epoch,
    },
    /// The root's stability protocol detected the complete tree (§5.3).
    TreeStable {
        /// The epoch whose tree settled.
        epoch: Epoch,
    },
    /// The root assigned short-address switch numbers (§6.5.2).
    AddressesAssigned {
        /// The epoch being completed.
        epoch: Epoch,
        /// How many switches were numbered.
        switches: u32,
    },
    /// A complete forwarding table was loaded into the switch hardware.
    TableInstalled {
        /// The epoch the table belongs to.
        epoch: Epoch,
        /// The table itself (checkers verify it is loop-free *as
        /// installed*, not just at quiescence).
        table: ForwardingTable,
    },
    /// The switch reopened for host traffic (reconfiguration done here).
    NetworkOpened {
        /// The completed epoch.
        epoch: Epoch,
    },
    /// The completed topology admits no legal routes from this switch;
    /// the table stays cleared.
    UnroutableTopology {
        /// The epoch that completed unroutably.
        epoch: Epoch,
    },
}

impl Event {
    /// Stable kind tag, one per variant (used by the canonical JSONL
    /// export and by subsequence comparisons across backends).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Boot { .. } => "boot",
            Event::PortTransition { .. } => "port-transition",
            Event::SkepticDecision { .. } => "skeptic-decision",
            Event::ReconfigTriggered { .. } => "reconfig-triggered",
            Event::NetworkClosed { .. } => "network-closed",
            Event::TreeStable { .. } => "tree-stable",
            Event::AddressesAssigned { .. } => "addresses-assigned",
            Event::TableInstalled { .. } => "table-installed",
            Event::NetworkOpened { .. } => "network-opened",
            Event::UnroutableTopology { .. } => "unroutable-topology",
        }
    }

    /// Whether this is a control-plane lifecycle event (close / install /
    /// open) — the subset invariant checkers consume and the subset that
    /// must agree across substrate backends.
    pub fn is_control_plane(&self) -> bool {
        matches!(
            self,
            Event::NetworkClosed { .. }
                | Event::TableInstalled { .. }
                | Event::NetworkOpened { .. }
        )
    }

    /// The epoch this event belongs to, if it is epoch-scoped.
    pub fn epoch(&self) -> Option<Epoch> {
        match self {
            Event::ReconfigTriggered { epoch, .. }
            | Event::NetworkClosed { epoch }
            | Event::TreeStable { epoch }
            | Event::AddressesAssigned { epoch, .. }
            | Event::TableInstalled { epoch, .. }
            | Event::NetworkOpened { epoch }
            | Event::UnroutableTopology { epoch } => Some(*epoch),
            Event::Boot { .. } | Event::PortTransition { .. } | Event::SkepticDecision { .. } => {
                None
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Boot { uid } => write!(f, "boot (uid {uid})"),
            Event::PortTransition {
                port,
                from,
                to,
                cause,
            } => {
                write!(f, "port {port}: {from} -> {to} ({cause})")
            }
            Event::SkepticDecision {
                port,
                skeptic,
                verdict,
                hold,
            } => write!(
                f,
                "port {port}: {} skeptic {} (hold {hold})",
                skeptic.tag(),
                verdict.tag()
            ),
            Event::ReconfigTriggered { epoch, cause } => {
                write!(f, "reconfiguration {epoch}: {cause}")
            }
            Event::NetworkClosed { epoch } => write!(f, "closed for {epoch}"),
            Event::TreeStable { epoch } => write!(f, "tree stable at {epoch}"),
            Event::AddressesAssigned { epoch, switches } => {
                write!(f, "addresses assigned for {epoch} ({switches} switches)")
            }
            Event::TableInstalled { epoch, table } => {
                write!(f, "table installed for {epoch} ({} entries)", table.len())
            }
            Event::NetworkOpened { epoch } => write!(f, "opened at {epoch}"),
            Event::UnroutableTopology { epoch } => {
                write!(f, "unroutable topology at {epoch}; keeping cleared table")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = Event::PortTransition {
            port: 3,
            from: PortState::Dead,
            to: PortState::Checking,
            cause: TransitionCause::SkepticRelease,
        };
        assert_eq!(
            e.to_string(),
            "port 3: s.dead -> s.checking (skeptic-release)"
        );
        let e = Event::ReconfigTriggered {
            epoch: Epoch(5),
            cause: ReconfigCause::PortDied,
        };
        assert_eq!(e.to_string(), "reconfiguration e5: port-died");
        assert_eq!(e.kind(), "reconfig-triggered");
        assert_eq!(e.epoch(), Some(Epoch(5)));
    }

    #[test]
    fn control_plane_subset() {
        assert!(Event::NetworkClosed { epoch: Epoch(1) }.is_control_plane());
        assert!(Event::NetworkOpened { epoch: Epoch(1) }.is_control_plane());
        assert!(Event::TableInstalled {
            epoch: Epoch(1),
            table: ForwardingTable::new(),
        }
        .is_control_plane());
        assert!(!Event::Boot { uid: Uid::new(1) }.is_control_plane());
        assert!(!Event::TreeStable { epoch: Epoch(1) }.is_control_plane());
    }
}

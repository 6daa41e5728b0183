//! One engine, two simulation backends.
//!
//! The scenario engine needs four things from a network: advance virtual
//! time, apply a fault, drain the typed event spine the oracles fold over,
//! and answer "has the control plane settled?". [`Substrate`] is that
//! contract; the packet-level `Net` facade implements it directly on
//! either event kernel (full fault vocabulary) and [`SlotSubstrate`] over
//! the slot-level `SlotNet`, where cable faults are emulated the way the
//! real hardware would see them: heavy code-violation noise on both ends
//! of the link until the samplers condemn it, silence to let the skeptics
//! readmit it.

use autonet_core::AutopilotParams;
use autonet_net::{Driver, Net, Network, PartitionedNetwork, SlotNet};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{HostId, LinkId, NetView, SwitchId, Topology};
use autonet_trace::TraceRecord;
use autonet_wire::SLOT_NS;

use crate::scenario::FaultOp;

/// The backend contract the scenario engine runs against.
pub trait Substrate {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Advances virtual time by `span`.
    fn run_for(&mut self, span: SimDuration);
    /// Applies (or schedules, at the current instant) a fault operation.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot express the operation; campaigns must
    /// be authored against the backend's vocabulary.
    fn apply(&mut self, op: &FaultOp, topo: &Topology);
    /// Drains the typed event spine since the last drain.
    fn drain_control(&mut self) -> Vec<TraceRecord>;
    /// Whether the control plane has settled on the engine's mirror of
    /// the intended physical state. Settled includes one root per
    /// physical component, each switch's agreed topology rooted there:
    /// the agreement oracle checks open flags and epochs from the spine
    /// and leaves the root to this answer.
    fn quiescent(&self, view: &NetView<'_>) -> bool;
    /// A final consistency audit at campaign end (backend-specific;
    /// returns a discrepancy description on failure).
    fn final_audit(&self) -> Result<(), String>;
    /// Starts the service-interruption probe flows (no-op on backends
    /// without a data plane).
    fn start_probes(&mut self, _pairs: &[(HostId, HostId)], _interval: SimDuration) {}
    /// The probe ledger so far (empty when probes never started).
    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        Vec::new()
    }
    /// The probed `(src, dst)` host pairs, in pair-index order.
    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

/// Links with exactly one end inside `side`.
pub(crate) fn crossing_links(topo: &Topology, side: &[usize]) -> Vec<LinkId> {
    let inside = |s: SwitchId| side.contains(&s.0);
    topo.link_ids()
        .filter(|&l| {
            let spec = topo.link(l);
            !spec.is_loopback() && inside(spec.a.switch) != inside(spec.b.switch)
        })
        .collect()
}

/// The one thing a campaign needs that only the classic kernel has:
/// service-interruption probe flows. The defaults are the sharded
/// kernel's answer.
pub trait ProbeFlows {
    /// See [`Substrate::start_probes`].
    ///
    /// # Panics
    ///
    /// Unless overridden: an armed blackout oracle with no probes behind
    /// it would pass vacuously. Run hosted campaigns on the classic
    /// kernel.
    fn start_probes(&mut self, _pairs: &[(HostId, HostId)], _interval: SimDuration) {
        panic!("probes are unsupported in partitioned mode (one network-wide tick)");
    }
    /// See [`Substrate::probe_records`].
    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        Vec::new()
    }
    /// See [`Substrate::probe_pairs`].
    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

impl ProbeFlows for PartitionedNetwork {}

impl ProbeFlows for Network {
    fn start_probes(&mut self, pairs: &[(HostId, HostId)], interval: SimDuration) {
        Network::start_probes(self, pairs, interval);
    }

    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        Network::probe_records(self).to_vec()
    }

    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        Network::probe_pairs(self)
    }
}

/// The packet-level backend: a `Network` for the classic kernel or a
/// `PartitionedNetwork` for the sharded one. Only the classic one is
/// `Clone` (see `BootedCampaign`).
impl<D: Driver> Substrate for Net<D>
where
    Net<D>: ProbeFlows,
{
    fn now(&self) -> SimTime {
        Net::now(self)
    }

    fn run_for(&mut self, span: SimDuration) {
        Net::run_for(self, span);
    }

    fn apply(&mut self, op: &FaultOp, topo: &Topology) {
        let at = Net::now(self);
        match op {
            FaultOp::LinkDown(l) => self.schedule_link_down(at, LinkId(*l)),
            FaultOp::LinkUp(l) => self.schedule_link_up(at, LinkId(*l)),
            FaultOp::SwitchDown(s) => self.schedule_switch_down(at, SwitchId(*s)),
            FaultOp::SwitchUp(s) => self.schedule_switch_up(at, SwitchId(*s)),
            FaultOp::HostPowerOff(h) | FaultOp::HostPowerOn(h) => {
                assert!(
                    *h < topo.num_hosts(),
                    "scenario addresses host {h} but the topology has {}",
                    topo.num_hosts()
                );
                if matches!(op, FaultOp::HostPowerOff(_)) {
                    self.schedule_host_power_off(at, HostId(*h));
                } else {
                    self.schedule_host_power_on(at, HostId(*h));
                }
            }
            FaultOp::LinkFlaps {
                link,
                half_period_ms,
                cycles,
            } => self.schedule_link_flaps(
                at,
                LinkId(*link),
                SimDuration::from_millis(*half_period_ms),
                *cycles,
            ),
            FaultOp::Partition { side } => {
                for l in crossing_links(topo, side) {
                    self.schedule_link_down(at, l);
                }
            }
            FaultOp::Heal { side } => {
                for l in crossing_links(topo, side) {
                    self.schedule_link_up(at, l);
                }
            }
            FaultOp::Waypoint { .. } => {}
        }
    }

    fn drain_control(&mut self) -> Vec<TraceRecord> {
        self.drain_trace_records()
    }

    fn quiescent(&self, view: &NetView<'_>) -> bool {
        // The mirror records where the physical state *ends up*; mid-flap
        // the backend's truth differs (a flapping link is transiently
        // down, which can partition the network into components that are
        // each internally consistent). Quiescence means the backend has
        // settled on the *intended* physical state, so both must agree
        // before the consistency verdict counts.
        let topo = view.topology();
        let switches_match = topo
            .switch_ids()
            .all(|s| self.switch_is_up(s) == view.switch_up(s));
        // `link_usable` folds in endpoint switch state, so raw cable state
        // is only comparable where both ends are up (and never loopback).
        let links_match = topo.link_ids().all(|l| {
            let spec = topo.link(l);
            spec.is_loopback()
                || !view.switch_up(spec.a.switch)
                || !view.switch_up(spec.b.switch)
                || self.link_is_up(l) == view.link_usable(l)
        });
        switches_match && links_match && self.control_plane_consistent()
    }

    fn final_audit(&self) -> Result<(), String> {
        self.check_against_reference()
    }

    fn start_probes(&mut self, pairs: &[(HostId, HostId)], interval: SimDuration) {
        ProbeFlows::start_probes(self, pairs, interval);
    }

    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        ProbeFlows::probe_records(self)
    }

    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        ProbeFlows::probe_pairs(self)
    }
}

/// Noise rate that reliably condemns a port within a few sampling
/// windows (matches the slot-level noise experiment).
const KILL_NOISE_PPM: u32 = 20_000;

/// The slot-level backend. Only link faults are supported, emulated with
/// line noise on both ends; campaigns for this substrate must keep the
/// switch set fixed.
pub struct SlotSubstrate {
    net: SlotNet,
    noise_seed: u64,
}

impl SlotSubstrate {
    /// Builds the slot-level network and boots every switch.
    pub fn new(topo: &Topology, params: AutopilotParams, noise_seed: u64) -> Self {
        let mut net = SlotNet::new(topo, params);
        net.boot();
        SlotSubstrate { net, noise_seed }
    }
}

impl Substrate for SlotSubstrate {
    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn run_for(&mut self, span: SimDuration) {
        self.net.run_slots((span.as_nanos() / SLOT_NS).max(1));
    }

    fn apply(&mut self, op: &FaultOp, topo: &Topology) {
        match op {
            FaultOp::LinkDown(l) => {
                let spec = topo.link(LinkId(*l));
                self.net
                    .inject_noise(spec.a.switch, spec.a.port, KILL_NOISE_PPM, self.noise_seed);
                self.net.inject_noise(
                    spec.b.switch,
                    spec.b.port,
                    KILL_NOISE_PPM,
                    self.noise_seed ^ 1,
                );
            }
            FaultOp::LinkUp(l) => {
                let spec = topo.link(LinkId(*l));
                self.net
                    .inject_noise(spec.a.switch, spec.a.port, 0, self.noise_seed);
                self.net
                    .inject_noise(spec.b.switch, spec.b.port, 0, self.noise_seed);
            }
            FaultOp::Waypoint { .. } => {}
            other => panic!("slot substrate cannot express {other:?}"),
        }
    }

    fn drain_control(&mut self) -> Vec<TraceRecord> {
        self.net.drain_trace_records()
    }

    fn quiescent(&self, view: &NetView<'_>) -> bool {
        let topo = view.topology();
        let n = topo.num_switches();
        if !self.net.is_converged(n) {
            return false;
        }
        // The agreed topology must also cover exactly the usable trunk
        // links (the noisy link must be out, the healed one back in).
        let expected_ends: usize = view
            .usable_links()
            .filter(|&l| !topo.link(l).is_loopback())
            .count()
            * 2;
        let listed_ends: usize = topo
            .switch_ids()
            .map(|s| {
                self.net
                    .autopilot(s)
                    .global()
                    .and_then(|g| g.switch(self.net.autopilot(s).uid()))
                    .map_or(0, |info| info.links.len())
            })
            .sum();
        expected_ends == listed_ends
    }

    fn final_audit(&self) -> Result<(), String> {
        Ok(())
    }

    fn start_probes(&mut self, pairs: &[(HostId, HostId)], interval: SimDuration) {
        self.net.start_probes(pairs, interval);
    }

    fn probe_records(&self) -> Vec<autonet_core::ProbeRecord> {
        self.net.probe_records().to_vec()
    }

    fn probe_pairs(&self) -> Vec<(usize, usize)> {
        self.net.probe_pairs()
    }
}

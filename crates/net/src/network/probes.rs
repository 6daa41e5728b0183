//! Service-interruption probe flows over the packet-level data plane.
//!
//! Once started, the network sends one small tagged data frame per
//! configured host pair every interval, through the same host
//! controllers and forwarding fabric as workload traffic. Each probe's
//! fate is recorded as a [`ProbeRecord`]; `autonet-trace` turns a run's
//! records into an `InterruptionReport` of per-pair blackout windows.
//!
//! Probe frames carry a tag with [`PROBE_TAG_BIT`] set, far above the
//! small integers workload generators use, so delivery interception is
//! a single bit test. Probe traffic is deliberately excluded from the
//! workload counters (`data_sent` / `data_delivered`) and from
//! [`Network::deliveries`](super::Network::deliveries): measuring
//! service availability must not perturb what the goldens and
//! experiments already assert about workload flow.

use autonet_core::ProbeRecord;
use autonet_host::{EthFrame, HostAction, IP_ETHERTYPE};
use autonet_sim::{Scheduler, SimDuration, SimTime};
use autonet_topo::HostId;

use super::events::Event;
use super::{NetWorld, Network};

/// Tag bit marking a frame as a probe (workload tags are small).
pub(super) const PROBE_TAG_BIT: u64 = 1 << 63;
/// Probe payload length in bytes (tag plus padding).
pub(super) const PROBE_LEN: usize = 64;

/// Encodes (pair, seq) into a probe frame tag.
pub(super) fn probe_tag(pair: u32, seq: u64) -> u64 {
    PROBE_TAG_BIT | (u64::from(pair) << 32) | (seq & 0xFFFF_FFFF)
}

/// The running probe generator's state.
#[derive(Clone)]
pub(super) struct ProbeState {
    /// Probed `(src, dst)` host-index pairs.
    pub(super) pairs: Vec<(usize, usize)>,
    /// One probe per pair per interval.
    pub(super) interval: SimDuration,
    /// Ticks fired so far (= the per-pair sequence number of the next
    /// tick, so record `seq * pairs.len() + pair` indexes `records`).
    tick: u64,
    /// One record per probe sent, in send order.
    pub(super) records: Vec<ProbeRecord>,
}

impl NetWorld {
    pub(super) fn on_probe_tick(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let Some(ps) = &self.probes else { return };
        let interval = ps.interval;
        let seq = ps.tick;
        let pairs = ps.pairs.clone();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let mut rec = ProbeRecord {
                pair: i as u32,
                seq,
                sent: now,
                delivered: None,
                dead_letter: false,
            };
            if self.hosts.up[src] {
                let dst_uid = self.topo.host(HostId(dst)).uid;
                let mut payload = Vec::with_capacity(PROBE_LEN);
                payload.extend_from_slice(&probe_tag(i as u32, seq).to_be_bytes());
                payload.resize(PROBE_LEN, 0);
                let frame =
                    EthFrame::new(dst_uid, self.hosts.ctl[src].uid(), IP_ETHERTYPE, payload);
                let actions = self.hosts.ctl[src].send(now, frame);
                // No transmit means the controller had nowhere to send it
                // (no learned address and queueing failed, or both ports
                // down): the probe is dead on departure unless a queued
                // copy later makes it through, which delivery clears.
                if !actions
                    .iter()
                    .any(|a| matches!(a, HostAction::Transmit { .. }))
                {
                    rec.dead_letter = true;
                }
                self.apply_host_actions(now, src, actions, sched);
            } else {
                rec.dead_letter = true;
            }
            self.probes
                .as_mut()
                .expect("probe state present while ticking")
                .records
                .push(rec);
        }
        let ps = self.probes.as_mut().expect("probe state present");
        ps.tick += 1;
        sched.after(interval, Event::ProbeTick);
    }

    /// Marks a probe frame delivered at host `h` (called from the host
    /// delivery path on the tag-bit match).
    pub(super) fn note_probe_delivery(&mut self, now: SimTime, h: usize, tag: u64) {
        let Some(ps) = &mut self.probes else { return };
        let pair = ((tag >> 32) & 0x7FFF_FFFF) as usize;
        let seq = tag & 0xFFFF_FFFF;
        let Some(&(_, dst)) = ps.pairs.get(pair) else {
            return;
        };
        if dst != h {
            // A broadcast-fallback copy reached some other host; only
            // arrival at the probed destination counts as service.
            return;
        }
        let idx = seq as usize * ps.pairs.len() + pair;
        if let Some(rec) = ps.records.get_mut(idx) {
            if rec.delivered.is_none() {
                rec.delivered = Some(now);
                // A queued "dead" probe that flushed after address
                // (re)learning did reach the destination after all.
                rec.dead_letter = false;
            }
        }
    }
}

impl Network {
    /// Starts continuous probe flows between `pairs` of hosts, one probe
    /// per pair per `interval` (first tick one interval from now).
    /// Probes run for the rest of the simulation; starting twice
    /// replaces the configuration and discards prior records.
    pub fn start_probes(&mut self, pairs: &[(HostId, HostId)], interval: SimDuration) {
        let n_hosts = self.sim.world().topo.num_hosts();
        let pairs: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(a, b)| {
                assert!(a.0 < n_hosts && b.0 < n_hosts, "probe pair out of range");
                (a.0, b.0)
            })
            .collect();
        assert!(!pairs.is_empty(), "need at least one probe pair");
        assert!(
            interval > SimDuration::ZERO,
            "probe interval must be positive"
        );
        let fresh = self.sim.world().probes.is_none();
        self.sim.world_mut().probes = Some(ProbeState {
            pairs,
            interval,
            tick: 0,
            records: Vec::new(),
        });
        // A replaced configuration reuses the already-scheduled tick.
        if fresh {
            let at = self.sim.now() + interval;
            self.sim.schedule_at(at, Event::ProbeTick);
        }
    }

    /// Every probe sent so far, in send order (empty until
    /// [`start_probes`](Network::start_probes)).
    pub fn probe_records(&self) -> &[ProbeRecord] {
        self.sim
            .world()
            .probes
            .as_ref()
            .map_or(&[], |ps| ps.records.as_slice())
    }

    /// The probed `(src, dst)` host-index pairs.
    pub fn probe_pairs(&self) -> Vec<(usize, usize)> {
        self.sim
            .world()
            .probes
            .as_ref()
            .map_or_else(Vec::new, |ps| ps.pairs.clone())
    }

    /// The configured probe interval, if probes are running.
    pub fn probe_interval(&self) -> Option<SimDuration> {
        self.sim.world().probes.as_ref().map(|ps| ps.interval)
    }
}

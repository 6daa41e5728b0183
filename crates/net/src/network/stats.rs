//! Observability: counters, convergence/consistency checks and the
//! graph-theoretic reference comparison.

use std::collections::BTreeMap;

use autonet_core::{global_from_view, Autopilot, Epoch, GlobalTopology, MsgDisposition};
use autonet_topo::SwitchId;
use autonet_wire::{PortIndex, SwitchNumber, Uid};

use super::{Driver, Net, NetStats};

impl<D: Driver> Net<D> {
    /// Aggregate counters (shared across backends; see [`NetStats`]),
    /// summed over the driver's worlds.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for w in self.sim.worlds() {
            let s = w.stats;
            total.data_sent += s.data_sent;
            total.data_delivered += s.data_delivered;
            total.data_discarded += s.data_discarded;
            total.control_sent += s.control_sent;
            total.topology_sent += s.topology_sent;
            total.topology_encoded += s.topology_encoded;
            total.topology_decoded += s.topology_decoded;
            total.lost_in_flight += s.lost_in_flight;
            total.cpu_queue_drops += s.cpu_queue_drops;
            total.ticks_run += s.ticks_run;
            total.opens += s.opens;
            total.closes += s.closes;
            total.last_state_change = total.last_state_change.max(s.last_state_change);
        }
        total
    }

    /// Kernel events handled so far, by `Event` variant (every variant,
    /// zeros included). Exact, always on, and summing to
    /// [`events_processed`](Net::events_processed) on either kernel: like
    /// that count, a plant fault replicated to every shard counts once
    /// per shard.
    pub fn events_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut total = [0u64; super::Event::KINDS.len()];
        for w in self.sim.worlds() {
            for (sum, n) in total.iter_mut().zip(w.handled) {
                *sum += n;
            }
        }
        super::Event::KINDS.into_iter().zip(total).collect()
    }

    /// Reconfiguration messages handled by disposition — joined a newer
    /// epoch, current, stale — summed over every switch's engine (each
    /// since its last power-on, like
    /// [`total_reconfigs_triggered`](Net::total_reconfigs_triggered)).
    pub fn reconfig_msgs(&self) -> MsgDisposition {
        let mut total = MsgDisposition::default();
        for ap in self.autopilots() {
            total += ap.reconfig_msgs();
        }
        total
    }

    /// Whether the control plane has converged to the physical truth:
    /// every up switch is open, and within each *physical* connected
    /// component (up switches and links) all members share one epoch and
    /// one topology that covers exactly that component, rooted at its
    /// smallest UID.
    pub fn control_plane_consistent(&self) -> bool {
        let w = self.plant();
        let topo = &w.topo;
        let view = w.physical_view();
        // A pure conjunction, evaluated cheapest-first: while a fault or a
        // heal is still being absorbed (most polls) one of the two O(N + E)
        // checks fails and the per-component map comparisons never run.
        //
        // Every up switch open (`switches.up` is the slice `view` was built
        // from, so these are exactly the component members below), and the
        // agreed topology lists exactly the usable physical links: a failed
        // link still listed means the fault is not yet absorbed; a repaired
        // link missing means readmission is still pending. Combined with the
        // containment check at the end, matching end-counts give exact
        // equality.
        let mut listed_ends = 0usize;
        for (s, &up) in w.switches.up.iter().enumerate() {
            if !up {
                continue;
            }
            let ap = self.autopilot(SwitchId(s));
            if !ap.is_open() {
                return false;
            }
            if let Some(info) = ap.global().and_then(|g| g.switch(ap.uid())) {
                listed_ends += info.links.len();
            }
        }
        let mut usable_ends = 0usize;
        for lid in view.usable_links() {
            let spec = topo.link(lid);
            if view.switch_up(spec.a.switch) && view.switch_up(spec.b.switch) {
                usable_ends += 2;
            }
        }
        if usable_ends != listed_ends {
            return false;
        }
        // Within each physical component: one epoch, one numbering, one
        // topology covering exactly the component, rooted at its smallest UID.
        for component in autonet_topo::connected_components(&view) {
            let min_uid = component
                .iter()
                .map(|&s| topo.switch(s).uid)
                .min()
                .expect("components are non-empty");
            let mut first: Option<&GlobalTopology> = None;
            for &sid in &component {
                let Some(g) = self.autopilot(sid).global() else {
                    return false;
                };
                if g.root != min_uid || g.switches.len() != component.len() {
                    return false;
                }
                match first {
                    None => first = Some(g),
                    Some(f) => {
                        if g.epoch != f.epoch || g.numbers != f.numbers {
                            return false;
                        }
                    }
                }
            }
        }
        for lid in view.usable_links() {
            let spec = topo.link(lid);
            let a_uid = topo.switch(spec.a.switch).uid;
            let b_uid = topo.switch(spec.b.switch).uid;
            let listed = |s: usize, my_port: PortIndex, far: Uid, far_port: PortIndex| {
                let ap = self.autopilot(SwitchId(s));
                ap.global().is_some_and(|g| {
                    g.switch(ap.uid()).is_some_and(|info| {
                        info.links.iter().any(|l| {
                            l.local_port == my_port
                                && l.neighbor == far
                                && l.neighbor_port == far_port
                        })
                    })
                })
            };
            if !listed(spec.a.switch.0, spec.a.port, b_uid, spec.b.port)
                || !listed(spec.b.switch.0, spec.b.port, a_uid, spec.a.port)
            {
                return false;
            }
        }
        true
    }

    /// Verifies the converged control plane against the graph-theoretic
    /// reference ([`global_from_view`]): same root, same levels.
    ///
    /// # Errors
    ///
    /// Returns a description of the first discrepancy.
    pub fn check_against_reference(&self) -> Result<(), String> {
        let w = self.plant();
        let view = w.physical_view();
        let proposals: BTreeMap<Uid, SwitchNumber> = BTreeMap::new();
        let Some(reference) = global_from_view(&view, Epoch(0), &proposals) else {
            return Ok(());
        };
        let ref_levels = reference.levels().expect("reference is well-formed");
        for si in 0..w.switches.len() {
            if !w.switches.up[si] {
                continue;
            }
            let uid = w.topo.switch(SwitchId(si)).uid;
            if !ref_levels.contains_key(&uid) {
                continue; // A partition not containing the reference root.
            }
            let ap = self.autopilot(SwitchId(si));
            let Some(g) = ap.global() else {
                return Err(format!("switch {si} has no topology"));
            };
            if g.root != reference.root {
                return Err(format!(
                    "switch {si}: root {} != reference {}",
                    g.root, reference.root
                ));
            }
            let levels = g
                .levels()
                .ok_or_else(|| format!("switch {si}: broken tree"))?;
            if levels.get(&uid) != ref_levels.get(&uid) {
                return Err(format!(
                    "switch {si}: level {:?} != reference {:?}",
                    levels.get(&uid),
                    ref_levels.get(&uid)
                ));
            }
            // The installed table must be what a from-scratch computation
            // over the switch's own agreed topology produces — the
            // end-to-end proof that the shared route cache (when on)
            // changed no table byte.
            if ap.is_open() {
                let hosts = ap.host_ports();
                if let Some(scratch) = autonet_core::compute_forwarding_table(
                    g,
                    uid,
                    &hosts,
                    autonet_core::RouteKind::UpDown,
                ) {
                    let installed = self.forwarding_table(SwitchId(si)).canonical_digest();
                    if scratch.canonical_digest() != installed {
                        return Err(format!(
                            "switch {si}: installed table {installed:#x} != from-scratch {:#x}",
                            scratch.canonical_digest()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Every switch's control program, in dense-id order.
    fn autopilots(&self) -> impl Iterator<Item = &Autopilot> {
        self.topology().switch_ids().map(|s| self.autopilot(s))
    }

    /// Total reconfigurations initiated across all switches.
    pub fn total_reconfigs_triggered(&self) -> u64 {
        self.autopilots().map(|ap| ap.reconfigs_triggered()).sum()
    }
}

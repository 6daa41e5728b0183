//! Timeline reconstruction: from the merged event spine to per-epoch
//! phase breakdowns.
//!
//! The six phases of one reconfiguration, in the order the paper's
//! five-step protocol produces them:
//!
//! 1. **detected** — first `ReconfigTriggered` for the epoch (some switch
//!    noticed the failure, repair or arrival);
//! 2. **closed** — first `NetworkClosed` (host traffic stopped);
//! 3. **tree stable** — the root's termination detection fired;
//! 4. **addresses assigned** — the root numbered the completed tree;
//! 5. **first table** — first *routed* forwarding table installed (the
//!    cleared one-hop tables of step 1 are counted separately as
//!    `clears`);
//! 6. **opened** — the *last* `NetworkOpened` (every switch reopened:
//!    the network has settled).
//!
//! Reconstruction is total: any multiset of records, in any interleaving,
//! produces a report (phases that never happened stay `None`).

use std::collections::BTreeMap;
use std::fmt;

use autonet_core::{Epoch, Event};

use crate::{merge_sorted, TraceRecord};

use autonet_sim::{SimDuration, SimTime};

/// Phase breakdown of one epoch's reconfiguration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// The epoch.
    pub epoch: Epoch,
    /// Phase 1: first `ReconfigTriggered`.
    pub detected: Option<SimTime>,
    /// Phase 2: first `NetworkClosed`.
    pub closed: Option<SimTime>,
    /// Phase 3: first `TreeStable`.
    pub tree_stable: Option<SimTime>,
    /// Phase 4: first `AddressesAssigned`.
    pub addresses_assigned: Option<SimTime>,
    /// Phase 5: first routed `TableInstalled` (at or after phase 4).
    pub first_table: Option<SimTime>,
    /// Phase 6: last `NetworkOpened` — the settle instant.
    pub opened: Option<SimTime>,
    /// Cleared one-hop tables installed (reconfiguration step 1).
    pub clears: u32,
    /// Routed tables installed (after address assignment).
    pub tables_installed: u32,
    /// `NetworkClosed` events seen.
    pub closes: u32,
    /// `NetworkOpened` events seen.
    pub opens: u32,
    /// `UnroutableTopology` events seen.
    pub unroutable: u32,
    /// First close per node.
    pub closed_by_node: BTreeMap<usize, SimTime>,
    /// Last open per node.
    pub opened_by_node: BTreeMap<usize, SimTime>,
    /// The node whose `ReconfigTriggered` came first (the detector).
    pub detected_node: Option<usize>,
    /// The node whose `TreeStable` came first (the root of this epoch).
    pub root_node: Option<usize>,
    /// Last *routed* table install per node (the distribution wave).
    pub installs_by_node: BTreeMap<usize, SimTime>,
}

impl EpochReport {
    /// Detection-to-close latency, when both phases happened.
    pub fn time_to_close(&self) -> Option<SimDuration> {
        Some(self.closed?.saturating_since(self.detected?))
    }

    /// Detection-to-tree-stable latency.
    pub fn time_to_stable(&self) -> Option<SimDuration> {
        Some(self.tree_stable?.saturating_since(self.detected?))
    }

    /// Detection-to-settle latency (last switch reopened).
    pub fn time_to_settle(&self) -> Option<SimDuration> {
        Some(self.opened?.saturating_since(self.detected?))
    }

    /// The six phase timestamps in protocol order, if all happened.
    pub fn phases(&self) -> Option<[SimTime; 6]> {
        Some([
            self.detected?,
            self.closed?,
            self.tree_stable?,
            self.addresses_assigned?,
            self.first_table?,
            self.opened?,
        ])
    }
}

impl fmt::Display for EpochReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn opt(t: Option<SimTime>) -> String {
            t.map_or_else(|| "-".to_string(), |t| t.to_string())
        }
        writeln!(f, "{}:", self.epoch)?;
        writeln!(f, "  detected            {}", opt(self.detected))?;
        writeln!(f, "  closed              {}", opt(self.closed))?;
        writeln!(f, "  tree stable         {}", opt(self.tree_stable))?;
        writeln!(f, "  addresses assigned  {}", opt(self.addresses_assigned))?;
        writeln!(f, "  first table         {}", opt(self.first_table))?;
        writeln!(f, "  opened (settled)    {}", opt(self.opened))?;
        writeln!(
            f,
            "  tables installed    {} routed, {} cleared",
            self.tables_installed, self.clears
        )?;
        if let Some(d) = self.time_to_close() {
            writeln!(f, "  time to close       {d}")?;
        }
        if let Some(d) = self.time_to_stable() {
            writeln!(f, "  time to tree stable {d}")?;
        }
        if let Some(d) = self.time_to_settle() {
            writeln!(f, "  time to settle      {d}")?;
        }
        Ok(())
    }
}

/// The reconstructed history: the canonically merged records plus one
/// report per epoch observed.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// All records, sorted by `(time, node)` (stable).
    pub records: Vec<TraceRecord>,
    /// One report per epoch, ascending by epoch.
    pub epochs: Vec<EpochReport>,
}

impl Timeline {
    /// Reconstructs the timeline from any set of records, in any order.
    pub fn build(records: &[TraceRecord]) -> Timeline {
        let records = merge_sorted(records);
        let mut by_epoch: BTreeMap<Epoch, EpochReport> = BTreeMap::new();
        fn report(map: &mut BTreeMap<Epoch, EpochReport>, e: Epoch) -> &mut EpochReport {
            map.entry(e).or_insert_with(|| EpochReport {
                epoch: e,
                ..EpochReport::default()
            })
        }
        fn first(slot: &mut Option<SimTime>, t: SimTime) {
            if slot.is_none() {
                *slot = Some(t);
            }
        }
        for rec in &records {
            let t = rec.time;
            match &rec.event {
                Event::ReconfigTriggered { epoch, .. } => {
                    let r = report(&mut by_epoch, *epoch);
                    if r.detected.is_none() {
                        r.detected_node = Some(rec.node);
                    }
                    first(&mut r.detected, t);
                }
                Event::NetworkClosed { epoch } => {
                    let r = report(&mut by_epoch, *epoch);
                    first(&mut r.closed, t);
                    r.closes += 1;
                    r.closed_by_node.entry(rec.node).or_insert(t);
                }
                Event::TreeStable { epoch } => {
                    let r = report(&mut by_epoch, *epoch);
                    if r.tree_stable.is_none() {
                        r.root_node = Some(rec.node);
                    }
                    first(&mut r.tree_stable, t);
                }
                Event::AddressesAssigned { epoch, .. } => {
                    first(&mut report(&mut by_epoch, *epoch).addresses_assigned, t);
                }
                Event::TableInstalled { epoch, .. } => {
                    let r = report(&mut by_epoch, *epoch);
                    // Installs before the root has numbered the tree are
                    // the cleared one-hop tables of step 1; everything at
                    // or after address assignment carries routes.
                    match r.addresses_assigned {
                        Some(assigned) if t >= assigned => {
                            first(&mut r.first_table, t);
                            r.tables_installed += 1;
                            r.installs_by_node.insert(rec.node, t);
                        }
                        _ => r.clears += 1,
                    }
                }
                Event::NetworkOpened { epoch } => {
                    let r = report(&mut by_epoch, *epoch);
                    r.opened = Some(t); // records are sorted: the last wins
                    r.opens += 1;
                    r.opened_by_node.insert(rec.node, t);
                }
                Event::UnroutableTopology { epoch } => {
                    report(&mut by_epoch, *epoch).unroutable += 1;
                }
                Event::Boot { .. }
                | Event::PortTransition { .. }
                | Event::SkepticDecision { .. } => {}
            }
        }
        Timeline {
            records,
            epochs: by_epoch.into_values().collect(),
        }
    }

    /// The report for one epoch.
    pub fn epoch(&self, e: Epoch) -> Option<&EpochReport> {
        self.epochs.iter().find(|r| r.epoch == e)
    }

    /// The latest epoch whose six phases all completed — the natural
    /// "what did the last full reconfiguration cost" query.
    pub fn last_complete(&self) -> Option<&EpochReport> {
        self.epochs.iter().rev().find(|r| r.phases().is_some())
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.epochs {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_switch::ForwardingTable;

    fn rec(ns: u64, node: usize, event: Event) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(ns),
            node,
            event,
        }
    }

    #[test]
    fn reconstructs_six_phases() {
        let e = Epoch(3);
        let table = ForwardingTable::new();
        let records = vec![
            rec(
                10,
                0,
                Event::ReconfigTriggered {
                    epoch: e,
                    cause: autonet_core::ReconfigCause::PortDied,
                },
            ),
            rec(12, 0, Event::NetworkClosed { epoch: e }),
            rec(
                13,
                0,
                Event::TableInstalled {
                    epoch: e,
                    table: table.clone(),
                },
            ),
            rec(20, 1, Event::NetworkClosed { epoch: e }),
            rec(30, 0, Event::TreeStable { epoch: e }),
            rec(
                35,
                0,
                Event::AddressesAssigned {
                    epoch: e,
                    switches: 2,
                },
            ),
            rec(
                40,
                0,
                Event::TableInstalled {
                    epoch: e,
                    table: table.clone(),
                },
            ),
            rec(41, 0, Event::NetworkOpened { epoch: e }),
            rec(45, 1, Event::TableInstalled { epoch: e, table }),
            rec(46, 1, Event::NetworkOpened { epoch: e }),
        ];
        // Shuffle the input: reconstruction must not depend on order.
        let mut shuffled = records.clone();
        shuffled.reverse();
        let tl = Timeline::build(&shuffled);
        assert_eq!(tl.epochs.len(), 1);
        let r = &tl.epochs[0];
        assert_eq!(r.detected, Some(SimTime::from_nanos(10)));
        assert_eq!(r.closed, Some(SimTime::from_nanos(12)));
        assert_eq!(r.tree_stable, Some(SimTime::from_nanos(30)));
        assert_eq!(r.addresses_assigned, Some(SimTime::from_nanos(35)));
        assert_eq!(r.first_table, Some(SimTime::from_nanos(40)));
        assert_eq!(r.opened, Some(SimTime::from_nanos(46)));
        assert_eq!(r.clears, 1);
        assert_eq!(r.tables_installed, 2);
        assert_eq!(r.time_to_settle(), Some(SimDuration::from_nanos(36)));
        assert_eq!(tl.last_complete().unwrap().epoch, e);
    }

    #[test]
    fn total_on_partial_histories() {
        // An epoch that only ever closed: everything else None, no panic.
        let records = vec![rec(5, 0, Event::NetworkClosed { epoch: Epoch(9) })];
        let tl = Timeline::build(&records);
        let r = tl.epoch(Epoch(9)).unwrap();
        assert_eq!(r.closed, Some(SimTime::from_nanos(5)));
        assert_eq!(r.detected, None);
        assert!(tl.last_complete().is_none());
    }
}

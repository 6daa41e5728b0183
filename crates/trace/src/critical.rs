//! Critical-path extraction for one epoch's reconfiguration.
//!
//! A reconfiguration's total latency (trigger → last reopen) is the sum
//! of six telescoping segments, each attributable to one named node —
//! the cross-node causal chain of the five-step protocol:
//!
//! 1. **detect→close** on the detecting node: from the first
//!    `ReconfigTriggered` to the first `NetworkClosed`;
//! 2. **close-propagation** to the straggler: epoch packets flood until
//!    the last node closes;
//! 3. **tree-stabilize** on the root: Perlman rounds plus the stability
//!    protocol until `TreeStable`;
//! 4. **address-assign** on the root: topology accumulation is complete,
//!    the root numbers the tree (`AddressesAssigned`);
//! 5. **table-distribute** to the settle node: routed tables propagate
//!    down the tree until the last-to-reopen node installs its table;
//! 6. **reopen** on the settle node: its table is in, it reopens last.
//!
//! Boundaries are clamped monotone (a phase can be reported at the same
//! instant as its predecessor), so the segments partition the span
//! exactly: attribution coverage is 100% of trigger→open by
//! construction, which [`CriticalPath::coverage`] asserts.

use std::fmt;

use autonet_core::Epoch;
use autonet_sim::{SimDuration, SimTime};

use crate::timeline::{EpochReport, Timeline};

/// One segment of the critical path: a phase, the node it ran on, and
/// its time span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The phase name (stable tags, see module docs).
    pub phase: &'static str,
    /// The node the segment is attributed to.
    pub node: usize,
    /// Segment start.
    pub start: SimTime,
    /// Segment end (`>= start`).
    pub end: SimTime,
}

impl Segment {
    /// The segment's length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The extracted critical path of one epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The epoch analyzed.
    pub epoch: Epoch,
    /// The six segments, in causal order, telescoping over the span.
    pub segments: Vec<Segment>,
    /// Total reconfiguration latency: trigger → last reopen.
    pub total: SimDuration,
}

impl CriticalPath {
    /// Builds the critical path from a completed epoch report; `None` if
    /// any of the six phases is missing.
    pub fn from_report(r: &EpochReport) -> Option<CriticalPath> {
        let [detected, closed, tree_stable, addresses, first_table, opened] = r.phases()?;

        // Named nodes, with graceful fallbacks for hand-built reports.
        let detector = r
            .detected_node
            .or_else(|| r.closed_by_node.keys().next().copied())
            .unwrap_or(0);
        let root = r.root_node.unwrap_or(detector);
        let straggler = argmax_time(&r.closed_by_node).unwrap_or(detector);
        let settler = argmax_time(&r.opened_by_node).unwrap_or(root);

        // Monotone boundaries (clamping handles same-instant phases).
        let b0 = detected;
        let b1 = closed.max(b0);
        let last_close = r
            .closed_by_node
            .values()
            .copied()
            .max()
            .unwrap_or(b1)
            .max(b1);
        // The straggler's close and the root's stabilization overlap; the
        // boundary credits the close wave only up to tree stability.
        let b2 = last_close.min(tree_stable.max(b1)).max(b1);
        let b3 = tree_stable.max(b2);
        let b4 = addresses.max(b3);
        // The settle node's own routed install ends distribution; fall
        // back to the first routed install if it never logged one.
        let settle_install = r
            .installs_by_node
            .get(&settler)
            .copied()
            .unwrap_or(first_table);
        let b5 = settle_install.max(b4).min(opened.max(b4));
        let b6 = opened.max(b5);

        let segments = vec![
            Segment {
                phase: "detect",
                node: detector,
                start: b0,
                end: b1,
            },
            Segment {
                phase: "close-propagation",
                node: straggler,
                start: b1,
                end: b2,
            },
            Segment {
                phase: "tree-stabilize",
                node: root,
                start: b2,
                end: b3,
            },
            Segment {
                phase: "address-assign",
                node: root,
                start: b3,
                end: b4,
            },
            Segment {
                phase: "table-distribute",
                node: settler,
                start: b4,
                end: b5,
            },
            Segment {
                phase: "reopen",
                node: settler,
                start: b5,
                end: b6,
            },
        ];
        Some(CriticalPath {
            epoch: r.epoch,
            segments,
            total: b6.saturating_since(b0),
        })
    }

    /// Sum of segment durations (equals [`total`](Self::total) by the
    /// telescoping construction).
    pub fn attributed(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Fraction of total latency attributed to named (node, phase)
    /// segments — 1.0 by construction (and 1.0 for a zero-length span).
    pub fn coverage(&self) -> f64 {
        if self.total == SimDuration::ZERO {
            return 1.0;
        }
        self.attributed().as_nanos() as f64 / self.total.as_nanos() as f64
    }

    /// The longest segment — the phase that dominated this
    /// reconfiguration.
    pub fn dominant(&self) -> &Segment {
        self.segments
            .iter()
            .max_by_key(|s| s.duration())
            .expect("six segments always present")
    }
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "critical path of {} (total {}):", self.epoch, self.total)?;
        for s in &self.segments {
            let pct = if self.total == SimDuration::ZERO {
                0.0
            } else {
                100.0 * s.duration().as_nanos() as f64 / self.total.as_nanos() as f64
            };
            writeln!(
                f,
                "  {:<18} node {:<3} {:>14}  {:5.1}%",
                s.phase,
                s.node,
                s.duration().to_string(),
                pct
            )?;
        }
        Ok(())
    }
}

/// The key with the latest value (ties to the smallest key).
fn argmax_time(map: &std::collections::BTreeMap<usize, SimTime>) -> Option<usize> {
    let mut best: Option<(usize, SimTime)> = None;
    for (&k, &t) in map {
        match best {
            None => best = Some((k, t)),
            Some((_, bt)) if t > bt => best = Some((k, t)),
            _ => {}
        }
    }
    best.map(|(k, _)| k)
}

/// Folds a superseded epoch's detect/close data into its burst's report:
/// the earliest detection, the earliest close, the *first* close per
/// node.
fn fold_burst(merged: &mut EpochReport, r: &EpochReport) {
    if let Some(d) = r.detected {
        if merged.detected.is_none_or(|m| d < m) {
            merged.detected = Some(d);
            merged.detected_node = r.detected_node;
        }
    }
    if let Some(c) = r.closed {
        if merged.closed.is_none_or(|m| c < m) {
            merged.closed = Some(c);
        }
    }
    for (&node, &t) in &r.closed_by_node {
        merged
            .closed_by_node
            .entry(node)
            .and_modify(|e| *e = (*e).min(t))
            .or_insert(t);
    }
    merged.closes += r.closes;
}

impl Timeline {
    /// The critical path of one epoch, if all six phases completed.
    pub fn critical_path(&self, e: Epoch) -> Option<CriticalPath> {
        self.epoch(e).and_then(CriticalPath::from_report)
    }

    /// The settled fault bursts, in settle order: each settled epoch's
    /// report and the epochs folded into it.
    ///
    /// A single physical fault can span several epochs: the first epoch
    /// carries the detection and close wave, then a second proposal
    /// supersedes it mid-reconfiguration and carries the tree, address
    /// and table phases to settlement. No single epoch then has all six
    /// phases, even though the fault's end-to-end path is fully recorded.
    /// So a settled epoch (one with an `opened` instant) that is
    /// incomplete absorbs the detect/close data of the superseded epochs
    /// immediately preceding it — those without an `opened` of their own,
    /// back to the previous settled epoch (a previous reconfiguration).
    /// The merged report spans first detection to final settlement.
    pub(crate) fn bursts(&self) -> impl DoubleEndedIterator<Item = (EpochReport, Vec<Epoch>)> + '_ {
        let settled = |r: &EpochReport| r.opened.is_some();
        let epochs = self.epochs.iter().enumerate();
        epochs.filter(move |(_, r)| settled(r)).map(move |(i, r)| {
            let mut merged = r.clone();
            let mut merged_from = Vec::new();
            if merged.phases().is_none() {
                let earlier = &self.epochs[..i];
                let burst = earlier.iter().rposition(settled).map_or(0, |prev| prev + 1);
                for p in &earlier[burst..] {
                    fold_burst(&mut merged, p);
                    merged_from.push(p.epoch);
                }
            }
            (merged, merged_from)
        })
    }

    /// The critical path of the last *fault*, merging coalesced epochs:
    /// [`critical_path`](Self::critical_path) of a burst's settled epoch
    /// is `None` when superseded epochs carry its detection and close
    /// wave. This one reads the last settled epoch with those folded in —
    /// first detection to final settlement — and stops at any earlier
    /// settled epoch (a previous reconfiguration).
    pub fn last_fault_critical_path(&self) -> Option<CriticalPath> {
        let (merged, _) = self.bursts().next_back()?;
        CriticalPath::from_report(&merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn report() -> EpochReport {
        let mut closed_by_node = BTreeMap::new();
        closed_by_node.insert(0, t(12));
        closed_by_node.insert(1, t(20));
        let mut opened_by_node = BTreeMap::new();
        opened_by_node.insert(0, t(41));
        opened_by_node.insert(1, t(46));
        let mut installs_by_node = BTreeMap::new();
        installs_by_node.insert(0, t(40));
        installs_by_node.insert(1, t(45));
        EpochReport {
            epoch: Epoch(3),
            detected: Some(t(10)),
            closed: Some(t(12)),
            tree_stable: Some(t(30)),
            addresses_assigned: Some(t(35)),
            first_table: Some(t(40)),
            opened: Some(t(46)),
            detected_node: Some(0),
            root_node: Some(0),
            closed_by_node,
            opened_by_node,
            installs_by_node,
            ..EpochReport::default()
        }
    }

    #[test]
    fn segments_telescope_and_cover_everything() {
        let cp = CriticalPath::from_report(&report()).unwrap();
        assert_eq!(cp.total, SimDuration::from_nanos(36));
        assert_eq!(cp.segments.len(), 6);
        // Telescoping: each segment starts where the previous ended.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(cp.segments.first().unwrap().start, t(10));
        assert_eq!(cp.segments.last().unwrap().end, t(46));
        assert_eq!(cp.attributed(), cp.total);
        assert!(cp.coverage() >= 0.999);
        // Attribution: node 1 closed last and reopened last.
        assert_eq!(cp.segments[1].node, 1, "close straggler");
        assert_eq!(cp.segments[4].node, 1, "settle node distributes");
        assert_eq!(cp.segments[2].node, 0, "root stabilizes");
        // The dominant phase here is tree stabilization (20 → 30 is the
        // close-propagation cap; 12→20 close wave, 20→30 stabilize).
        assert_eq!(cp.dominant().duration(), SimDuration::from_nanos(10));
    }

    /// The coalesced-fault shape seen on fat-tree cuts: the first epoch
    /// carries detect + the close wave, then is superseded; the second
    /// epoch completes the reconfiguration but never logs a close (the
    /// switches were already closed).
    fn burst() -> (EpochReport, EpochReport) {
        let mut early_closes = BTreeMap::new();
        early_closes.insert(0, t(12));
        early_closes.insert(1, t(20));
        let early = EpochReport {
            epoch: Epoch(3),
            detected: Some(t(10)),
            closed: Some(t(12)),
            detected_node: Some(1),
            closed_by_node: early_closes,
            closes: 2,
            ..EpochReport::default()
        };
        let mut late = report();
        late.epoch = Epoch(4);
        late.detected = Some(t(14));
        late.detected_node = Some(0);
        late.closed = None;
        late.closed_by_node.clear();
        late.closes = 0;
        (early, late)
    }

    #[test]
    fn coalesced_fault_merges_across_epochs() {
        let (early, late) = burst();
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![early, late],
        };
        // No single epoch is complete…
        assert!(tl.last_complete().is_none());
        // …but the fault's end-to-end path is recoverable.
        let cp = tl.last_fault_critical_path().expect("burst merges");
        assert_eq!(cp.epoch, Epoch(4), "attributed to the settled epoch");
        // Spans first detection (t=10, node 1) to final settle (t=46).
        assert_eq!(cp.segments.first().unwrap().start, t(10));
        assert_eq!(cp.segments.first().unwrap().node, 1);
        assert_eq!(cp.segments.last().unwrap().end, t(46));
        assert_eq!(cp.total, SimDuration::from_nanos(36));
        // The close wave comes from the superseded epoch's per-node map.
        assert_eq!(cp.segments[1].phase, "close-propagation");
        assert_eq!(cp.segments[1].node, 1, "straggler closed at t=20");
        // Telescoping still holds on the merged report.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(cp.attributed(), cp.total);
    }

    #[test]
    fn complete_last_epoch_needs_no_merge() {
        // When the last settled epoch already has all six phases, the
        // burst walk is bypassed and the fault's path is that epoch's.
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![report()],
        };
        let only = tl.epochs[0].epoch;
        assert_eq!(tl.last_fault_critical_path(), tl.critical_path(only));
    }

    #[test]
    fn burst_walk_stops_at_a_previous_settled_epoch() {
        let (early, late) = burst();
        // A fully settled reconfiguration *before* the burst: its close
        // data must not leak into the later fault's path.
        let mut previous = report();
        previous.epoch = Epoch(2);
        previous.detected = Some(t(1));
        previous.closed = Some(t(2));
        previous.closed_by_node.values_mut().for_each(|v| *v = t(2));
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![previous, early, late],
        };
        let cp = tl.last_fault_critical_path().expect("burst merges");
        assert_eq!(cp.segments.first().unwrap().start, t(10));
        assert_eq!(cp.total, SimDuration::from_nanos(36));
    }

    #[test]
    fn unsettled_burst_has_no_path() {
        // A burst whose final epoch never reopened: nothing settled, so
        // there is no end-to-end path to report.
        let (early, mut late) = burst();
        late.opened = None;
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![early.clone(), late],
        };
        assert!(tl.last_fault_critical_path().is_none());
        // …and a burst that is *only* the early half likewise.
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![early],
        };
        assert!(tl.last_fault_critical_path().is_none());
    }

    #[test]
    fn incomplete_epoch_has_no_critical_path() {
        let mut r = report();
        r.tree_stable = None;
        assert!(CriticalPath::from_report(&r).is_none());
    }

    #[test]
    fn same_instant_phases_collapse_to_zero_segments() {
        let mut r = report();
        // Everything at one instant: six zero-length segments, full
        // (vacuous) coverage, no panic.
        for slot in [
            &mut r.detected,
            &mut r.closed,
            &mut r.tree_stable,
            &mut r.addresses_assigned,
            &mut r.first_table,
            &mut r.opened,
        ] {
            *slot = Some(t(5));
        }
        r.closed_by_node.values_mut().for_each(|v| *v = t(5));
        r.opened_by_node.values_mut().for_each(|v| *v = t(5));
        r.installs_by_node.values_mut().for_each(|v| *v = t(5));
        let cp = CriticalPath::from_report(&r).unwrap();
        assert_eq!(cp.total, SimDuration::ZERO);
        assert_eq!(cp.coverage(), 1.0);
        assert!(cp
            .segments
            .iter()
            .all(|s| s.duration() == SimDuration::ZERO));
    }
}

//! Causal span trees: the profiler view of the event spine.
//!
//! [`Timeline`] answers "what were the phases of epoch N"; this module
//! folds the whole run into the shape a human profiler expects — one
//! span per *fault burst* (coalesced epochs merged as
//! [`Timeline::critical_paths`] merges them), six phase child
//! spans attributed to the critical-path node, and every probe blackout
//! window nested under the epoch that explains it — and exports it in
//! Chrome Trace Event Format JSON, so any run opens directly in Perfetto
//! or `chrome://tracing`.
//!
//! Spans are derived *offline* from the typed records: when tracing is
//! disabled there are no records, no spans, and no cost — the zero-cost
//! guarantee of the spine extends to this layer by construction (the
//! overhead gate in `tests/determinism.rs` asserts it).
//!
//! # Well-formedness
//!
//! The tree maintains three invariants (property-tested in
//! `tests/properties.rs`, rechecked here by
//! [`SpanTree::check_well_formed`]):
//!
//! 1. every phase span nests inside its epoch span and consecutive
//!    phases telescope (each starts where the previous ended);
//! 2. phase spans attributed to the same node never overlap within an
//!    epoch (half-open intervals — abutting is legal);
//! 3. every blackout span is contained in its explaining epoch span.
//!    The raw data-plane outage can trail the reopen (host address
//!    relearning); the span keeps the raw window in
//!    [`BlackoutSpan::raw_end`] and clamps the rendered interval.

use std::fmt::Write as _;

use autonet_core::Epoch;
use autonet_sim::{SimDuration, SimTime};

use crate::critical::Segment;
use crate::interruption::InterruptionReport;
use crate::timeline::Timeline;

/// A probe blackout nested under the epoch span that explains it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlackoutSpan {
    /// The probed pair the outage was observed on.
    pub pair: u32,
    /// Rendered start, clamped into the explaining epoch span.
    pub start: SimTime,
    /// Rendered end, clamped into the explaining epoch span.
    pub end: SimTime,
    /// The unclamped window start.
    pub raw_start: SimTime,
    /// The unclamped window end (may trail the reopen: relearning).
    pub raw_end: SimTime,
    /// Whether service came back before the horizon.
    pub restored: bool,
    /// Consecutive probes the run lost.
    pub probes_lost: u32,
}

/// One fault burst: the settled epoch, any superseded epochs folded into
/// it, the six phase child spans, and the blackouts it explains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSpan {
    /// The settled epoch the burst is attributed to.
    pub epoch: Epoch,
    /// Superseded epochs whose detect/close data was folded in.
    pub merged_from: Vec<Epoch>,
    /// First detection across the burst.
    pub start: SimTime,
    /// Final settle (last reopen).
    pub end: SimTime,
    /// The six telescoping phase spans, node-attributed.
    pub phases: Vec<Segment>,
    /// Blackout windows this burst explains, in pair order.
    pub blackouts: Vec<BlackoutSpan>,
}

impl EpochSpan {
    /// The burst's end-to-end latency.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// The whole run as a causal span forest: one [`EpochSpan`] per settled
/// fault burst, plus any blackout the timeline cannot explain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Settled bursts, in settle order.
    pub epochs: Vec<EpochSpan>,
    /// Blackout windows no epoch span explains (rendered unnested; the
    /// blackout oracle treats these as violations).
    pub orphan_blackouts: Vec<BlackoutSpan>,
    /// The latest instant any span reaches.
    pub horizon: SimTime,
}

impl SpanTree {
    /// Builds the span tree from a reconstructed timeline, nesting the
    /// interruption report's blackout windows when one is supplied.
    ///
    /// Epochs that never settled *and* were never superseded by a
    /// settling successor (a run cut off mid-reconfiguration) produce no
    /// span: a span needs both ends.
    pub fn build(timeline: &Timeline, interruption: Option<&InterruptionReport>) -> SpanTree {
        let mut epochs: Vec<EpochSpan> = timeline
            .critical_paths()
            .map(|(cp, merged_from)| EpochSpan {
                epoch: cp.epoch,
                merged_from,
                start: cp.segments[0].start,
                end: cp.segments.last().expect("six segments").end,
                phases: cp.segments,
                blackouts: Vec::new(),
            })
            .collect();

        let mut orphan_blackouts = Vec::new();
        if let Some(report) = interruption {
            for w in report.windows() {
                let raw = BlackoutSpan {
                    pair: w.pair,
                    start: w.start,
                    end: w.end,
                    raw_start: w.start,
                    raw_end: w.end,
                    restored: w.restored,
                    probes_lost: w.probes_lost,
                };
                // The explaining epoch may be the settled one or any epoch
                // folded into a burst.
                let home = w.epoch.and_then(|e| {
                    epochs
                        .iter_mut()
                        .find(|s| s.epoch == e || s.merged_from.contains(&e))
                });
                match home {
                    Some(span) => {
                        let start = raw.raw_start.max(span.start).min(span.end);
                        let end = raw.raw_end.min(span.end).max(start);
                        span.blackouts.push(BlackoutSpan { start, end, ..raw });
                    }
                    None => orphan_blackouts.push(raw),
                }
            }
        }

        let horizon = epochs
            .iter()
            .map(|s| s.end)
            .chain(orphan_blackouts.iter().map(|b| b.end))
            .max()
            .unwrap_or(SimTime::ZERO);
        SpanTree {
            epochs,
            orphan_blackouts,
            horizon,
        }
    }

    /// Whether the tree has no spans at all (e.g. tracing was off).
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty() && self.orphan_blackouts.is_empty()
    }

    /// Verifies the three structural invariants (module docs); `Err`
    /// names the first violation. Exercised by the proptests.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.epochs {
            if s.start > s.end {
                return Err(format!("{:?}: epoch span inverted", s.epoch));
            }
            if s.phases.len() != 6 {
                return Err(format!("{:?}: {} phases, want 6", s.epoch, s.phases.len()));
            }
            for p in &s.phases {
                if p.start < s.start || p.end > s.end || p.start > p.end {
                    return Err(format!(
                        "{:?}: phase {} [{}, {}] escapes epoch span [{}, {}]",
                        s.epoch, p.phase, p.start, p.end, s.start, s.end
                    ));
                }
            }
            for w in s.phases.windows(2) {
                if w[0].end != w[1].start {
                    return Err(format!(
                        "{:?}: phases {} and {} do not telescope",
                        s.epoch, w[0].phase, w[1].phase
                    ));
                }
            }
            // Half-open per-node overlap check: abutting is legal.
            for (i, a) in s.phases.iter().enumerate() {
                for b in &s.phases[i + 1..] {
                    if a.node == b.node && a.start < b.end && b.start < a.end {
                        return Err(format!(
                            "{:?}: node {} runs {} and {} concurrently",
                            s.epoch, a.node, a.phase, b.phase
                        ));
                    }
                }
            }
            for b in &s.blackouts {
                if b.start < s.start || b.end > s.end || b.start > b.end {
                    return Err(format!(
                        "{:?}: blackout on pair {} [{}, {}] escapes epoch span [{}, {}]",
                        s.epoch, b.pair, b.start, b.end, s.start, s.end
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes the tree in Chrome Trace Event Format (JSON object
    /// form), loadable by Perfetto and `chrome://tracing`.
    ///
    /// Layout: process 1 ("reconfiguration") holds an "epochs" track
    /// (one complete event per fault burst) plus one track per
    /// critical-path node carrying that node's phase spans; process 2
    /// ("probes") holds one track per probed pair with its blackout
    /// spans, each linked to its explaining epoch span by a flow arrow.
    /// Timestamps are microseconds (fractional — nanosecond precision
    /// survives), the format's native unit. Deterministic: fixed event
    /// order and fixed float formatting, so the export is goldenable.
    pub fn to_chrome_trace(&self) -> String {
        fn us(t: SimTime) -> String {
            format!("{:.3}", t.as_nanos() as f64 / 1000.0)
        }
        fn dur(start: SimTime, end: SimTime) -> String {
            format!(
                "{:.3}",
                end.saturating_since(start).as_nanos() as f64 / 1000.0
            )
        }
        let mut ev: Vec<String> = Vec::new();
        let push_meta = |ev: &mut Vec<String>, pid: u32, tid: Option<u64>, name: &str| {
            let mut line = format!("{{\"ph\":\"M\",\"pid\":{pid},");
            if let Some(tid) = tid {
                write!(line, "\"tid\":{tid},").unwrap();
            }
            write!(
                line,
                "\"name\":\"{}\",\"args\":{{\"name\":\"{name}\"}}}}",
                if tid.is_some() {
                    "thread_name"
                } else {
                    "process_name"
                }
            )
            .unwrap();
            ev.push(line);
        };

        push_meta(&mut ev, 1, None, "reconfiguration");
        push_meta(&mut ev, 1, Some(0), "epochs");
        let mut nodes: Vec<usize> = self
            .epochs
            .iter()
            .flat_map(|s| s.phases.iter().map(|p| p.node))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for n in &nodes {
            push_meta(&mut ev, 1, Some(*n as u64 + 1), &format!("switch {n}"));
        }
        let mut pairs: Vec<u32> = self
            .epochs
            .iter()
            .flat_map(|s| s.blackouts.iter().map(|b| b.pair))
            .chain(self.orphan_blackouts.iter().map(|b| b.pair))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        if !pairs.is_empty() {
            push_meta(&mut ev, 2, None, "probes");
            for p in &pairs {
                push_meta(&mut ev, 2, Some(u64::from(*p)), &format!("pair {p}"));
            }
        }

        let mut flow_id = 0u32;
        for s in &self.epochs {
            let mut merged = String::new();
            for (i, e) in s.merged_from.iter().enumerate() {
                if i > 0 {
                    merged.push(',');
                }
                write!(merged, "{}", e.0).unwrap();
            }
            ev.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"epoch\",\"name\":\"epoch {}\",\
                 \"ts\":{},\"dur\":{},\"args\":{{\"epoch\":{},\"merged\":[{}]}}}}",
                s.epoch.0,
                us(s.start),
                dur(s.start, s.end),
                s.epoch.0,
                merged
            ));
            for p in &s.phases {
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"phase\",\"name\":\"{}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"epoch\":{},\"node\":{}}}}}",
                    p.node as u64 + 1,
                    p.phase,
                    us(p.start),
                    dur(p.start, p.end),
                    s.epoch.0,
                    p.node
                ));
            }
            for b in &s.blackouts {
                ev.push(blackout_event(b, Some(s.epoch)));
                // Flow arrow: the explaining epoch span → the blackout.
                ev.push(format!(
                    "{{\"ph\":\"s\",\"pid\":1,\"tid\":0,\"cat\":\"blackout\",\
                     \"name\":\"explains\",\"id\":{flow_id},\"ts\":{}}}",
                    us(s.start)
                ));
                ev.push(format!(
                    "{{\"ph\":\"f\",\"pid\":2,\"tid\":{},\"cat\":\"blackout\",\
                     \"name\":\"explains\",\"id\":{flow_id},\"ts\":{},\"bp\":\"e\"}}",
                    u64::from(b.pair),
                    us(b.start)
                ));
                flow_id += 1;
            }
        }
        for b in &self.orphan_blackouts {
            ev.push(blackout_event(b, None));
        }

        fn blackout_event(b: &BlackoutSpan, epoch: Option<Epoch>) -> String {
            fn us(t: SimTime) -> String {
                format!("{:.3}", t.as_nanos() as f64 / 1000.0)
            }
            let name = if epoch.is_some() {
                "blackout"
            } else {
                "blackout (unexplained)"
            };
            format!(
                "{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"cat\":\"blackout\",\"name\":\"{name}\",\
                 \"ts\":{},\"dur\":{:.3},\"args\":{{\"epoch\":{},\"probes_lost\":{},\
                 \"restored\":{},\"raw_start_us\":{},\"raw_end_us\":{}}}}}",
                u64::from(b.pair),
                us(b.start),
                b.end.saturating_since(b.start).as_nanos() as f64 / 1000.0,
                epoch.map_or_else(|| "null".to_string(), |e| e.0.to_string()),
                b.probes_lost,
                b.restored,
                us(b.raw_start),
                us(b.raw_end)
            )
        }

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&ev.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

impl Timeline {
    /// The span-tree view of this timeline (no blackout nesting).
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::build(self, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interruption::{BlackoutWindow, InterruptionConfig, PairReport};
    use crate::timeline::EpochReport;
    use std::collections::BTreeMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn settled(epoch: u64, base: u64) -> EpochReport {
        let mut closed_by_node = BTreeMap::new();
        closed_by_node.insert(0, t(base + 2));
        closed_by_node.insert(1, t(base + 10));
        let mut opened_by_node = BTreeMap::new();
        opened_by_node.insert(0, t(base + 31));
        opened_by_node.insert(1, t(base + 36));
        let mut installs_by_node = BTreeMap::new();
        installs_by_node.insert(0, t(base + 30));
        installs_by_node.insert(1, t(base + 35));
        EpochReport {
            epoch: Epoch(epoch),
            detected: Some(t(base)),
            closed: Some(t(base + 2)),
            tree_stable: Some(t(base + 20)),
            addresses_assigned: Some(t(base + 25)),
            first_table: Some(t(base + 30)),
            opened: Some(t(base + 36)),
            detected_node: Some(0),
            root_node: Some(0),
            closed_by_node,
            opened_by_node,
            installs_by_node,
            ..EpochReport::default()
        }
    }

    #[test]
    fn empty_timeline_empty_tree() {
        let tree = Timeline::build(&[]).span_tree();
        assert!(tree.is_empty());
        assert!(tree.check_well_formed().is_ok());
        let json = tree.to_chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(!json.contains("\"ph\":\"X\""), "no spans exported: {json}");
    }

    #[test]
    fn settled_epoch_becomes_one_span_with_six_phases() {
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![settled(3, 100)],
        };
        let tree = tl.span_tree();
        assert_eq!(tree.epochs.len(), 1);
        let s = &tree.epochs[0];
        assert_eq!(s.epoch, Epoch(3));
        assert!(s.merged_from.is_empty());
        assert_eq!(s.start, t(100));
        assert_eq!(s.end, t(136));
        assert_eq!(s.phases.len(), 6);
        assert!(tree.check_well_formed().is_ok());
        assert_eq!(tree.horizon, t(136));
    }

    #[test]
    fn coalesced_burst_merges_like_the_critical_path() {
        // Epoch 3 carries detect + close then is superseded; epoch 4
        // settles. One span, attributed to epoch 4, starting at epoch 3's
        // detection.
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
        let mut late = settled(4, 0);
        late.detected = Some(t(14));
        late.closed = None;
        late.closed_by_node.clear();
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![early, late],
        };
        let tree = tl.span_tree();
        assert_eq!(tree.epochs.len(), 1);
        let s = &tree.epochs[0];
        assert_eq!(s.epoch, Epoch(4));
        assert_eq!(s.merged_from, vec![Epoch(3)]);
        assert_eq!(s.start, t(10), "starts at the burst's first detection");
        // Agrees with the backward-walking merge.
        let cp = tl.last_fault_critical_path().expect("burst settles");
        assert_eq!(s.phases, cp.segments);
        assert!(tree.check_well_formed().is_ok());
    }

    #[test]
    fn unsettled_tail_produces_no_span() {
        let open_ended = EpochReport {
            epoch: Epoch(9),
            detected: Some(t(50)),
            closed: Some(t(52)),
            ..EpochReport::default()
        };
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![settled(3, 0), open_ended],
        };
        let tree = tl.span_tree();
        assert_eq!(tree.epochs.len(), 1);
        assert_eq!(tree.epochs[0].epoch, Epoch(3));
    }

    fn report_with_window(w: BlackoutWindow) -> InterruptionReport {
        InterruptionReport {
            config: InterruptionConfig::default(),
            horizon: t(10_000),
            pairs: vec![PairReport {
                pair: w.pair,
                src: 0,
                dst: 1,
                delivered: 10,
                dropped: u64::from(w.probes_lost),
                dead_letters: 0,
                pending: 0,
                windows: vec![w],
            }],
        }
    }

    #[test]
    fn blackout_nests_clamped_into_its_epoch_span() {
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![settled(3, 100)],
        };
        // The raw window trails the reopen (host relearning): the span is
        // clamped into [100, 136] but keeps the raw end.
        let report = report_with_window(BlackoutWindow {
            pair: 0,
            epoch: Some(Epoch(3)),
            start: t(104),
            end: t(500),
            restored: true,
            probes_lost: 7,
        });
        let tree = SpanTree::build(&tl, Some(&report));
        assert_eq!(tree.epochs[0].blackouts.len(), 1);
        let b = &tree.epochs[0].blackouts[0];
        assert_eq!((b.start, b.end), (t(104), t(136)));
        assert_eq!((b.raw_start, b.raw_end), (t(104), t(500)));
        assert!(tree.orphan_blackouts.is_empty());
        assert!(tree.check_well_formed().is_ok());
        let json = tree.to_chrome_trace();
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"raw_end_us\":0.500"));
    }

    #[test]
    fn unexplained_blackout_is_orphaned() {
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![settled(3, 100)],
        };
        let report = report_with_window(BlackoutWindow {
            pair: 2,
            epoch: None,
            start: t(900),
            end: t(950),
            restored: false,
            probes_lost: 3,
        });
        let tree = SpanTree::build(&tl, Some(&report));
        assert!(tree.epochs[0].blackouts.is_empty());
        assert_eq!(tree.orphan_blackouts.len(), 1);
        assert!(tree.check_well_formed().is_ok());
        assert!(tree.to_chrome_trace().contains("blackout (unexplained)"));
        assert_eq!(tree.horizon, t(950));
    }

    #[test]
    fn chrome_export_is_deterministic_and_parseable_shape() {
        let tl = Timeline {
            records: Vec::new(),
            epochs: vec![settled(3, 100), settled(5, 1000)],
        };
        let tree = tl.span_tree();
        let a = tree.to_chrome_trace();
        let b = tree.to_chrome_trace();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(a.ends_with("\n]}\n"));
        // One epoch slice per burst, six phase slices each.
        assert_eq!(a.matches("\"cat\":\"epoch\"").count(), 2);
        assert_eq!(a.matches("\"cat\":\"phase\"").count(), 12);
        assert!(a.contains("\"name\":\"tree-stabilize\""));
    }
}

//! The typed observability spine of the Autonet reproduction.
//!
//! The companion paper (§6.7) calls the merged per-switch event log the
//! project's *primary* debugging tool. This crate is that tool's
//! machine-readable form, shared by every consumer so there is exactly one
//! stream of truth:
//!
//! - [`EventLog`] — the network-wide spine, and the only trace log there
//!   is. Every [`Autopilot`](autonet_core::Autopilot) entry point hands
//!   the typed [`Event`]s it produced to its backend by value, and the
//!   backend moves them into one append-only, timestamped,
//!   node-attributed log. The invariant oracles of `autonet-check` drain
//!   it online; experiments read it whole. (A substitution: the paper's
//!   per-switch circular buffer is not modelled — the merged log is kept,
//!   a retention limit that overwrites old entries is not.)
//! - [`Timeline`] — reconstruction: merges the spine into a per-epoch
//!   phase breakdown (failure detected → closed → tree stable → addresses
//!   assigned → tables installed → reopened) with settle times.
//! - [`CriticalPath`] — the cross-node causal chain of one epoch's
//!   reconfiguration, attributing every nanosecond of trigger→reopen
//!   latency to a named (node, phase) segment.
//! - [`InterruptionReport`] — data-plane service-interruption analysis:
//!   per-pair blackout windows from probe flows, attributed to the
//!   reconfiguration epochs that explain them.
//! - [`SpanTree`] — the profiler view: one span per settled fault burst
//!   with its six phases and its blackouts, exported as a Chrome trace.
//! - [`DamageReport`] — the graded objectives a worst-case schedule
//!   search maximizes, distilled from the two reports above.
//! - [`to_jsonl`] — a canonical, dependency-free JSONL serialization so
//!   traces diff cleanly and golden-trace tests can assert byte equality.

mod critical;
mod interruption;
mod jsonl;
mod objective;
mod spans;
mod timeline;

use autonet_core::Event;
use autonet_sim::SimTime;

pub use critical::{CriticalPath, Segment};
pub use interruption::{BlackoutWindow, InterruptionConfig, InterruptionReport, PairReport};
pub use jsonl::to_jsonl;
pub use objective::DamageReport;
pub use spans::{BlackoutSpan, EpochSpan, SpanTree};
pub use timeline::{EpochReport, Timeline};

/// One spine entry: a typed event, attributed to a node, timestamped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened (simulation time).
    pub time: SimTime,
    /// The node (switch index in the backend's topology) it happened on.
    pub node: usize,
    /// What happened.
    pub event: Event,
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] #{}: {}", self.time, self.node, self.event)
    }
}

/// The network-wide append-only event log.
///
/// It never wraps: it is the complete history of a run (or, for online
/// checkers, of the interval since the last [`drain`](EventLog::drain)).
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    records: Vec<TraceRecord>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends one event.
    pub fn record(&mut self, time: SimTime, node: usize, event: Event) {
        self.records.push(TraceRecord { time, node, event });
    }

    /// All records accumulated since creation (or the last drain).
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Removes and returns everything accumulated since the last drain.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// Number of undrained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Drops every record past the first `len` (a speculative handler run
    /// whose observable effects must be discarded).
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// Whether there is nothing to drain.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Sorts records into the canonical merged order: by time, ties broken by
/// node, preserving each node's internal order (the sort is stable).
pub fn merge_sorted(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| (r.time, r.node));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_core::Epoch;

    #[test]
    fn record_and_drain() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.record(
            SimTime::from_millis(1),
            0,
            Event::NetworkClosed { epoch: Epoch(2) },
        );
        log.record(
            SimTime::from_millis(2),
            1,
            Event::NetworkOpened { epoch: Epoch(2) },
        );
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
        assert_eq!(drained[0].node, 0);
        assert_eq!(drained[0].to_string(), "[1.000ms] #0: closed for e2");
        assert!(matches!(
            drained[1].event,
            Event::NetworkOpened { epoch: Epoch(2) }
        ));
    }

    #[test]
    fn merge_sorted_is_stable_by_time_then_node() {
        let e = |n| Event::NetworkClosed { epoch: Epoch(n) };
        let records = vec![
            TraceRecord {
                time: SimTime::from_nanos(5),
                node: 1,
                event: e(1),
            },
            TraceRecord {
                time: SimTime::from_nanos(5),
                node: 0,
                event: e(2),
            },
            TraceRecord {
                time: SimTime::from_nanos(1),
                node: 2,
                event: e(3),
            },
            TraceRecord {
                time: SimTime::from_nanos(5),
                node: 0,
                event: e(4),
            },
        ];
        let merged = merge_sorted(&records);
        let order: Vec<(u64, usize)> = merged.iter().map(|r| (r.time.as_nanos(), r.node)).collect();
        assert_eq!(order, vec![(1, 2), (5, 0), (5, 0), (5, 1)]);
        // Same (time, node) records keep their original relative order.
        assert!(matches!(merged[1].event, Event::NetworkClosed { epoch } if epoch == Epoch(2)));
        assert!(matches!(merged[2].event, Event::NetworkClosed { epoch } if epoch == Epoch(4)));
    }
}

//! Damage-objective extraction: from a run's observability artifacts to
//! the soft objectives an adversarial schedule search maximizes.
//!
//! The hard oracles of `autonet-check` answer a boolean question — was an
//! invariant violated? A worst-case *schedule search* needs the graded
//! complement: how much did this (legal) run hurt? [`DamageReport`]
//! distills one run's [`InterruptionReport`] and [`Timeline`] into four
//! monotone damage axes:
//!
//! - **total blackout** — the sum of every pair's blackout-window
//!   durations: the aggregate user-visible darkness of the run;
//! - **affected pairs** — how many probed pairs recorded at least one
//!   blackout window: the blast radius;
//! - **skeptic hold** — total time trunk ports spent in a dead episode
//!   (first observed `s.dead` transition to the next `s.switch.good`),
//!   summed over ports: capacity quarantined by the monitoring tower;
//! - **unroutable window** — total time some settled epoch's topology
//!   admitted no legal routes from some switch (an `UnroutableTopology`
//!   epoch, measured until the next epoch settles or the horizon).
//!
//! Each axis is extracted independently and is `0` when its inputs never
//! occurred (no probes, no skeptic episodes, no unroutable epochs), so
//! the report is total over any run.

use autonet_core::{Event, PortState};
use autonet_sim::{SimDuration, SimTime};

use crate::interruption::InterruptionReport;
use crate::timeline::Timeline;

/// The damage objectives of one run: a point in the objective space the
/// worst-case search maximizes, each axis monotone in "worse".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DamageReport {
    /// Sum of all blackout-window durations across all probed pairs.
    pub blackout: SimDuration,
    /// Number of probed pairs with at least one blackout window.
    pub affected_pairs: usize,
    /// Total trunk-port dead-episode time (`s.dead` observed →
    /// `s.switch.good` reached, open episodes clipped at the horizon).
    pub skeptic_hold: SimDuration,
    /// Total time spent in epochs that settled unroutable.
    pub unroutable: SimDuration,
}

impl DamageReport {
    /// Extracts the damage objectives of one run. `interruption` is
    /// `None` when no probes ran (blackout axes stay zero); `timeline`
    /// feeds the skeptic and unroutable axes; `horizon` clips episodes
    /// still open when observation stopped.
    pub fn measure(
        interruption: Option<&InterruptionReport>,
        timeline: &Timeline,
        horizon: SimTime,
    ) -> DamageReport {
        let (blackout, affected_pairs) = interruption
            .map(|r| {
                let mut total = SimDuration::ZERO;
                let mut affected = 0usize;
                for p in &r.pairs {
                    if !p.windows.is_empty() {
                        affected += 1;
                    }
                    for w in &p.windows {
                        total += w.duration();
                    }
                }
                (total, affected)
            })
            .unwrap_or((SimDuration::ZERO, 0));
        DamageReport {
            blackout,
            affected_pairs,
            skeptic_hold: skeptic_hold_total(timeline, horizon),
            unroutable: unroutable_window_total(timeline, horizon),
        }
    }

    /// Pareto dominance: at least as bad on every axis and strictly
    /// worse on one.
    pub fn dominates(&self, other: &DamageReport) -> bool {
        let ge = self.blackout >= other.blackout
            && self.affected_pairs >= other.affected_pairs
            && self.skeptic_hold >= other.skeptic_hold
            && self.unroutable >= other.unroutable;
        ge && self != other
    }

    /// The total order used to crown a champion out of a Pareto front:
    /// blackout first (the headline objective the goldens pin), then
    /// blast radius, then the quarantine and unroutable axes.
    pub fn rank(&self) -> (SimDuration, usize, SimDuration, SimDuration) {
        (
            self.blackout,
            self.affected_pairs,
            self.skeptic_hold,
            self.unroutable,
        )
    }
}

impl std::fmt::Display for DamageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "blackout {} / {} pairs / hold {} / unroutable {}",
            self.blackout, self.affected_pairs, self.skeptic_hold, self.unroutable
        )
    }
}

/// Total trunk-port dead-episode time over the spine: per (node, port),
/// from each `PortTransition` *into* `Dead` until the next transition
/// *into* `SwitchGood` (intermediate states keep the episode open, the
/// way the skeptic oracle counts it); episodes still open at the horizon
/// are clipped there.
fn skeptic_hold_total(timeline: &Timeline, horizon: SimTime) -> SimDuration {
    use std::collections::BTreeMap;
    let mut dead_since: BTreeMap<(usize, u8), SimTime> = BTreeMap::new();
    let mut total = SimDuration::ZERO;
    for rec in &timeline.records {
        if let Event::PortTransition { port, to, .. } = &rec.event {
            let key = (rec.node, *port);
            match to {
                PortState::Dead => {
                    dead_since.entry(key).or_insert(rec.time);
                }
                PortState::SwitchGood => {
                    if let Some(start) = dead_since.remove(&key) {
                        total += rec.time.saturating_since(start);
                    }
                }
                _ => {}
            }
        }
    }
    for (_, start) in dead_since {
        total += horizon.saturating_since(start);
    }
    total
}

/// Total time the network sat in an epoch that settled unroutable: for
/// each epoch with `UnroutableTopology` events, from its first recorded
/// phase until the next epoch settles (`opened`) or the horizon.
fn unroutable_window_total(timeline: &Timeline, horizon: SimTime) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for (i, r) in timeline.epochs.iter().enumerate() {
        if r.unroutable == 0 {
            continue;
        }
        let Some(start) = r
            .detected
            .into_iter()
            .chain(r.closed)
            .chain(r.tree_stable)
            .min()
        else {
            continue;
        };
        let end = timeline.epochs[i + 1..]
            .iter()
            .filter_map(|next| next.opened)
            .find(|&t| t > start)
            .unwrap_or(horizon);
        total += end.saturating_since(start);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interruption::InterruptionConfig;
    use crate::TraceRecord;
    use autonet_core::{Epoch, ProbeRecord, ReconfigCause, TransitionCause};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn transition(node: usize, port: u8, to: PortState, at_ms: u64) -> TraceRecord {
        TraceRecord {
            time: ms(at_ms),
            node,
            event: Event::PortTransition {
                port,
                from: PortState::Checking,
                to,
                cause: TransitionCause::Classified,
            },
        }
    }

    #[test]
    fn empty_inputs_give_zero_damage() {
        let d = DamageReport::measure(None, &Timeline::build(&[]), ms(100));
        assert_eq!(d, DamageReport::default());
    }

    #[test]
    fn blackout_axes_aggregate_across_pairs() {
        let probe = |pair: u32, seq: u64, sent: u64, delivered: Option<u64>| ProbeRecord {
            pair,
            seq,
            sent: ms(sent),
            delivered: delivered.map(ms),
            dead_letter: false,
        };
        // Pair 0 darkens 20..61 (41 ms); pair 1 never loses a probe.
        let probes = vec![
            probe(0, 0, 10, Some(20)),
            probe(0, 1, 20, None),
            probe(0, 2, 30, None),
            probe(0, 3, 60, Some(61)),
            probe(1, 0, 10, Some(11)),
            probe(1, 1, 20, Some(21)),
        ];
        let tl = Timeline::build(&[
            TraceRecord {
                time: ms(15),
                node: 0,
                event: Event::ReconfigTriggered {
                    epoch: Epoch(2),
                    cause: ReconfigCause::PortDied,
                },
            },
            TraceRecord {
                time: ms(70),
                node: 0,
                event: Event::NetworkOpened { epoch: Epoch(2) },
            },
        ]);
        let report = InterruptionReport::build(
            &[(0, 1), (1, 0)],
            &probes,
            &tl,
            ms(100),
            InterruptionConfig {
                interval: SimDuration::from_millis(10),
                min_run: 2,
            },
        );
        let d = DamageReport::measure(Some(&report), &tl, ms(100));
        assert_eq!(d.affected_pairs, 1);
        assert_eq!(d.blackout, SimDuration::from_millis(41));
    }

    #[test]
    fn skeptic_hold_sums_episodes_and_clips_open_ones() {
        let tl = Timeline::build(&[
            transition(0, 1, PortState::Dead, 10),
            transition(0, 1, PortState::Checking, 20), // episode stays open
            transition(0, 1, PortState::SwitchGood, 40), // 30 ms episode
            transition(2, 3, PortState::Dead, 50),     // open at horizon
        ]);
        let d = DamageReport::measure(None, &tl, ms(100));
        assert_eq!(d.skeptic_hold, SimDuration::from_millis(30 + 50));
    }

    #[test]
    fn unroutable_window_runs_to_next_settle_or_horizon() {
        let tl = Timeline::build(&[
            TraceRecord {
                time: ms(10),
                node: 0,
                event: Event::ReconfigTriggered {
                    epoch: Epoch(3),
                    cause: ReconfigCause::PortDied,
                },
            },
            TraceRecord {
                time: ms(12),
                node: 0,
                event: Event::UnroutableTopology { epoch: Epoch(3) },
            },
            TraceRecord {
                time: ms(30),
                node: 0,
                event: Event::NetworkOpened { epoch: Epoch(4) },
            },
        ]);
        let d = DamageReport::measure(None, &tl, ms(100));
        assert_eq!(d.unroutable, SimDuration::from_millis(20));

        // With no later settle, the window runs to the horizon.
        let tl2 = Timeline::build(&tl.records[..2]);
        let d2 = DamageReport::measure(None, &tl2, ms(100));
        assert_eq!(d2.unroutable, SimDuration::from_millis(90));
    }
}

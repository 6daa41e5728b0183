//! Service-interruption analysis: from raw probe records to per-pair
//! blackout windows and an aggregate report.
//!
//! A probe flow sends one tagged frame per [`interval`] between a fixed
//! host pair. The analyzer scans each pair's probe sequence for *runs*
//! of consecutive lost probes (dropped or dead-lettered). A run of at
//! least [`min_run`] probes is a **blackout window**: the service
//! between that pair was observably interrupted. The window spans from
//! the last delivery before the run to the first delivery after it
//! (`restored`), or to the analysis horizon if service never came back.
//!
//! Requiring `min_run >= 2` is what separates the two populations the
//! paper's availability argument cares about: during a reconfiguration
//! *every* switch closes, so every pair can lose one probe that
//! happened to be in flight during the closed span — but only pairs
//! whose route crossed the failed element stay dark from the fault
//! until reopen (plus host address relearning), losing several probes
//! in a row.
//!
//! Each window is attributed to the reconfiguration epoch whose
//! disruption interval (trigger → last reopen, from the [`Timeline`])
//! overlaps it — the latest-starting such interval when several do. A
//! window no interval explains has `epoch: None`; the `autonet-check`
//! blackout oracle treats that as a violation (service loss with no
//! reconfiguration to blame).
//!
//! [`interval`]: InterruptionConfig::interval
//! [`min_run`]: InterruptionConfig::min_run

use std::fmt;
use std::fmt::Write as _;

use autonet_core::{Epoch, ProbeOutcome, ProbeRecord};
use autonet_sim::{SimDuration, SimTime};

use crate::timeline::Timeline;

/// Analyzer parameters; must mirror the probe generator's settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterruptionConfig {
    /// The probe cadence (one probe per pair per interval).
    pub interval: SimDuration,
    /// Minimum consecutive lost probes that constitute a blackout.
    pub min_run: u32,
}

impl Default for InterruptionConfig {
    fn default() -> Self {
        InterruptionConfig {
            interval: SimDuration::from_millis(25),
            min_run: 2,
        }
    }
}

/// One observed service interruption between a host pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlackoutWindow {
    /// Index of the pair (into [`InterruptionReport::pairs`]).
    pub pair: u32,
    /// The reconfiguration epoch whose disruption interval explains
    /// this window; `None` if no interval overlaps it.
    pub epoch: Option<Epoch>,
    /// Window start: last delivery before the loss run (clamped up to
    /// the explaining interval's start when later), or the first lost
    /// probe's send time if nothing was ever delivered before.
    pub start: SimTime,
    /// Window end: first delivery after the run, or the horizon.
    pub end: SimTime,
    /// Whether service came back before the horizon.
    pub restored: bool,
    /// How many consecutive probes the run lost.
    pub probes_lost: u32,
}

impl BlackoutWindow {
    /// The window's length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Per-pair probe accounting plus that pair's blackout windows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairReport {
    /// Index of the pair.
    pub pair: u32,
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Probes delivered.
    pub delivered: u64,
    /// Probes sent but never delivered (lost in the fabric).
    pub dropped: u64,
    /// Probes the sender could not even launch (host down, no address,
    /// unresolvable destination).
    pub dead_letters: u64,
    /// Probes still in flight at the horizon (excluded from runs).
    pub pending: u64,
    /// This pair's blackout windows, in time order.
    pub windows: Vec<BlackoutWindow>,
}

impl PairReport {
    /// This pair's longest blackout, if any.
    pub fn max_blackout(&self) -> Option<SimDuration> {
        self.windows.iter().map(BlackoutWindow::duration).max()
    }
}

/// The aggregate service-interruption report for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterruptionReport {
    /// The analyzer configuration used.
    pub config: InterruptionConfig,
    /// The analysis horizon (end of the observed run).
    pub horizon: SimTime,
    /// One entry per probed pair, in pair-index order.
    pub pairs: Vec<PairReport>,
}

impl InterruptionReport {
    /// Analyzes raw probe records against the reconfiguration timeline.
    ///
    /// `pair_hosts[i]` is the `(src, dst)` host pair that probe records
    /// with `pair == i` belong to; `horizon` is when observation
    /// stopped.
    pub fn build(
        pair_hosts: &[(usize, usize)],
        probes: &[ProbeRecord],
        timeline: &Timeline,
        horizon: SimTime,
        config: InterruptionConfig,
    ) -> InterruptionReport {
        // Disruption intervals (trigger → last reopen, open-ended at the
        // horizon for epochs still closed), ascending by start.
        let mut intervals: Vec<(Epoch, SimTime, SimTime)> = timeline
            .epochs
            .iter()
            .filter_map(|r| {
                let start = r.detected.or(r.closed)?;
                Some((r.epoch, start, r.opened.unwrap_or(horizon)))
            })
            .collect();
        intervals.sort_by_key(|&(_, start, _)| start);

        let mut pairs = Vec::with_capacity(pair_hosts.len());
        for (i, &(src, dst)) in pair_hosts.iter().enumerate() {
            let pair = i as u32;
            let mut records: Vec<&ProbeRecord> = probes.iter().filter(|p| p.pair == pair).collect();
            records.sort_by_key(|p| (p.seq, p.sent));

            let (mut delivered, mut dropped, mut dead_letters, mut pending) = (0, 0, 0, 0);
            let mut windows = Vec::new();
            // Gap scan: `run` accumulates consecutive losses, anchored at
            // the last delivery seen before the run began.
            let mut last_delivery: Option<SimTime> = None;
            let mut run: Option<(SimTime, u32)> = None; // (gap start, lost)
            fn close_run(
                run: &mut Option<(SimTime, u32)>,
                end: SimTime,
                restored: bool,
                pair: u32,
                min_run: u32,
                intervals: &[(Epoch, SimTime, SimTime)],
                windows: &mut Vec<BlackoutWindow>,
            ) {
                if let Some((gap_start, lost)) = run.take() {
                    if lost >= min_run {
                        windows.push(attribute(pair, gap_start, end, restored, lost, intervals));
                    }
                }
            }
            for p in &records {
                match p.outcome(horizon, config.interval) {
                    ProbeOutcome::Delivered => {
                        let at = p.delivered.expect("delivered probes carry a time");
                        delivered += 1;
                        close_run(
                            &mut run,
                            at,
                            true,
                            pair,
                            config.min_run,
                            &intervals,
                            &mut windows,
                        );
                        last_delivery = Some(at);
                    }
                    ProbeOutcome::Pending => {
                        pending += 1;
                        // In flight at the horizon: evidence of neither
                        // delivery nor loss; leave any open run open.
                    }
                    outcome @ (ProbeOutcome::Dropped | ProbeOutcome::DeadLetter) => {
                        if outcome == ProbeOutcome::Dropped {
                            dropped += 1;
                        } else {
                            dead_letters += 1;
                        }
                        match &mut run {
                            Some((_, n)) => *n += 1,
                            None => run = Some((last_delivery.unwrap_or(p.sent), 1)),
                        }
                    }
                }
            }
            close_run(
                &mut run,
                horizon,
                false,
                pair,
                config.min_run,
                &intervals,
                &mut windows,
            );
            pairs.push(PairReport {
                pair,
                src,
                dst,
                delivered,
                dropped,
                dead_letters,
                pending,
                windows,
            });
        }
        InterruptionReport {
            config,
            horizon,
            pairs,
        }
    }

    /// All blackout windows across all pairs, in pair order.
    pub fn windows(&self) -> impl Iterator<Item = &BlackoutWindow> + '_ {
        self.pairs.iter().flat_map(|p| p.windows.iter())
    }

    /// The longest blackout anywhere in the network (the paper's
    /// "service interruption" headline number), if any pair had one.
    pub fn max_blackout(&self) -> Option<SimDuration> {
        self.windows().map(BlackoutWindow::duration).max()
    }

    /// The `q`-quantile of blackout durations: the window duration at
    /// [`nearest_rank`](autonet_sim::nearest_rank), zero when there are
    /// no windows.
    pub fn blackout_quantile(&self, q: f64) -> SimDuration {
        let mut durations: Vec<SimDuration> =
            self.windows().map(BlackoutWindow::duration).collect();
        if durations.is_empty() {
            return SimDuration::ZERO;
        }
        durations.sort_unstable();
        durations[autonet_sim::nearest_rank(q, durations.len() as u64) as usize - 1]
    }

    /// Windows not explained by any reconfiguration interval.
    pub fn unexplained(&self) -> impl Iterator<Item = &BlackoutWindow> + '_ {
        self.windows().filter(|w| w.epoch.is_none())
    }

    /// Canonical JSONL: a header line, one `pair` line per pair, one
    /// `blackout` line per window — fixed key order, sorted, trailing
    /// newline. Deterministic for seeded runs, so golden tests can
    /// assert exact equality.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let n_windows: usize = self.pairs.iter().map(|p| p.windows.len()).sum();
        writeln!(
            out,
            "{{\"type\":\"interruption-report\",\"horizon_ns\":{},\"interval_ns\":{},\"min_run\":{},\"pairs\":{},\"windows\":{},\"max_blackout_ns\":{}}}",
            self.horizon.as_nanos(),
            self.config.interval.as_nanos(),
            self.config.min_run,
            self.pairs.len(),
            n_windows,
            self.max_blackout().unwrap_or(SimDuration::ZERO).as_nanos(),
        )
        .expect("writing to a String cannot fail");
        for p in &self.pairs {
            writeln!(
                out,
                "{{\"type\":\"pair\",\"pair\":{},\"src\":{},\"dst\":{},\"delivered\":{},\"dropped\":{},\"dead_letters\":{},\"pending\":{},\"windows\":{}}}",
                p.pair, p.src, p.dst, p.delivered, p.dropped, p.dead_letters, p.pending,
                p.windows.len(),
            )
            .unwrap();
        }
        for p in &self.pairs {
            for w in &p.windows {
                let epoch = w
                    .epoch
                    .map_or_else(|| "null".to_string(), |e| e.0.to_string());
                writeln!(
                    out,
                    "{{\"type\":\"blackout\",\"pair\":{},\"epoch\":{},\"start_ns\":{},\"end_ns\":{},\"restored\":{},\"probes_lost\":{}}}",
                    w.pair,
                    epoch,
                    w.start.as_nanos(),
                    w.end.as_nanos(),
                    w.restored,
                    w.probes_lost,
                )
                .unwrap();
            }
        }
        out
    }
}

impl fmt::Display for InterruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_windows: usize = self.pairs.iter().map(|p| p.windows.len()).sum();
        writeln!(
            f,
            "interruption report: {} pairs, {} blackout windows, horizon {}",
            self.pairs.len(),
            n_windows,
            self.horizon
        )?;
        for p in &self.pairs {
            writeln!(
                f,
                "  pair {:<3} {:>3} -> {:<3} delivered {:<6} dropped {:<4} dead {:<4} max blackout {}",
                p.pair,
                p.src,
                p.dst,
                p.delivered,
                p.dropped,
                p.dead_letters,
                p.max_blackout()
                    .map_or_else(|| "-".to_string(), |d| d.to_string()),
            )?;
        }
        if n_windows > 0 {
            writeln!(
                f,
                "  blackout p50 {}  p99 {}  max {}",
                self.blackout_quantile(0.5),
                self.blackout_quantile(0.99),
                self.max_blackout().unwrap_or(SimDuration::ZERO),
            )?;
        }
        Ok(())
    }
}

/// Builds a window attributed to the latest-starting disruption
/// interval that overlaps the gap, clamping the window start up to that
/// interval's start when the last delivery predates the disruption.
fn attribute(
    pair: u32,
    gap_start: SimTime,
    end: SimTime,
    restored: bool,
    probes_lost: u32,
    intervals: &[(Epoch, SimTime, SimTime)],
) -> BlackoutWindow {
    // Ascending by start, so the last overlap is the latest-starting.
    let explaining = intervals
        .iter()
        .rfind(|&&(_, istart, iend)| istart <= end && iend >= gap_start);
    let (epoch, start) = match explaining {
        Some(&(e, istart, _)) => (Some(e), gap_start.max(istart).min(end)),
        None => (None, gap_start),
    };
    BlackoutWindow {
        pair,
        epoch,
        start,
        end,
        restored,
        probes_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecord;
    use autonet_core::Event;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn probe(pair: u32, seq: u64, sent_ms: u64, delivered_ms: Option<u64>) -> ProbeRecord {
        ProbeRecord {
            pair,
            seq,
            sent: ms(sent_ms),
            delivered: delivered_ms.map(ms),
            dead_letter: false,
        }
    }

    fn timeline_with_epoch(detected_ms: u64, opened_ms: u64) -> Timeline {
        let e = Epoch(2);
        Timeline::build(&[
            TraceRecord {
                time: ms(detected_ms),
                node: 0,
                event: Event::ReconfigTriggered {
                    epoch: e,
                    cause: autonet_core::ReconfigCause::PortDied,
                },
            },
            TraceRecord {
                time: ms(opened_ms),
                node: 0,
                event: Event::NetworkOpened { epoch: e },
            },
        ])
    }

    fn cfg() -> InterruptionConfig {
        InterruptionConfig {
            interval: SimDuration::from_millis(10),
            min_run: 2,
        }
    }

    #[test]
    fn run_of_losses_becomes_an_attributed_window() {
        // Delivered at 10, 20; lost at 30, 40, 50; delivered at 61.
        let probes = vec![
            probe(0, 0, 10, Some(10)),
            probe(0, 1, 20, Some(20)),
            probe(0, 2, 30, None),
            probe(0, 3, 40, None),
            probe(0, 4, 50, None),
            probe(0, 5, 60, Some(61)),
        ];
        let tl = timeline_with_epoch(25, 55);
        let r = InterruptionReport::build(&[(0, 1)], &probes, &tl, ms(100), cfg());
        let p = &r.pairs[0];
        assert_eq!((p.delivered, p.dropped, p.dead_letters), (3, 3, 0));
        assert_eq!(p.windows.len(), 1);
        let w = p.windows[0];
        assert_eq!(w.epoch, Some(Epoch(2)));
        // Last delivery (20 ms) predates detection (25 ms): clamped up.
        assert_eq!(w.start, ms(25));
        assert_eq!(w.end, ms(61));
        assert!(w.restored);
        assert_eq!(w.probes_lost, 3);
        assert_eq!(r.max_blackout(), Some(SimDuration::from_millis(36)));
        assert!(r.unexplained().next().is_none());
    }

    #[test]
    fn single_loss_is_not_a_window() {
        // One isolated in-flight loss during the closed span: the whole
        // network closes briefly, every pair may drop one probe.
        let probes = vec![
            probe(0, 0, 10, Some(10)),
            probe(0, 1, 20, None),
            probe(0, 2, 30, Some(30)),
        ];
        let tl = timeline_with_epoch(15, 25);
        let r = InterruptionReport::build(&[(0, 1)], &probes, &tl, ms(100), cfg());
        assert!(r.pairs[0].windows.is_empty());
        assert_eq!(r.pairs[0].dropped, 1);
        assert_eq!(r.max_blackout(), None);
    }

    #[test]
    fn unrestored_window_runs_to_horizon_and_unexplained_is_flagged() {
        // Losses with no reconfiguration anywhere near them.
        let probes = vec![
            probe(1, 0, 10, Some(10)),
            probe(1, 1, 20, None),
            probe(1, 2, 30, None),
        ];
        let tl = Timeline::build(&[]);
        let r = InterruptionReport::build(&[(0, 1), (2, 3)], &probes, &tl, ms(90), cfg());
        assert!(r.pairs[0].windows.is_empty(), "pair 0 sent nothing");
        let w = r.pairs[1].windows[0];
        assert_eq!(w.epoch, None);
        assert_eq!((w.start, w.end), (ms(10), ms(90)));
        assert!(!w.restored);
        assert_eq!(r.unexplained().count(), 1);
    }

    #[test]
    fn pending_probes_do_not_close_or_extend_runs() {
        // A probe sent within one interval of the horizon is in flight.
        let probes = vec![
            probe(0, 0, 10, Some(10)),
            probe(0, 1, 95, None), // pending: 95 + 10 > 100
        ];
        let tl = Timeline::build(&[]);
        let r = InterruptionReport::build(&[(0, 1)], &probes, &tl, ms(100), cfg());
        assert_eq!(r.pairs[0].pending, 1);
        assert!(r.pairs[0].windows.is_empty());
    }

    #[test]
    fn dead_letters_count_into_runs() {
        let mut p1 = probe(0, 1, 20, None);
        p1.dead_letter = true;
        let probes = vec![probe(0, 0, 10, Some(10)), p1, probe(0, 2, 30, None)];
        let tl = timeline_with_epoch(15, 60);
        let r = InterruptionReport::build(&[(0, 1)], &probes, &tl, ms(200), cfg());
        let p = &r.pairs[0];
        assert_eq!((p.dead_letters, p.dropped), (1, 1));
        assert_eq!(p.windows.len(), 1);
        assert_eq!(p.windows[0].probes_lost, 2);
    }

    #[test]
    fn quantiles_are_window_durations_bounded_by_the_max() {
        // Three pairs lose 2, 3 and 5 probes: windows of 31, 41 and 61 ms.
        let mut probes = Vec::new();
        for (pair, lost) in [(0u32, 2u64), (1, 3), (2, 5)] {
            probes.push(probe(pair, 0, 10, Some(10)));
            for seq in 1..=lost {
                probes.push(probe(pair, seq, 10 + 10 * seq, None));
            }
            let back = 20 + 10 * lost;
            probes.push(probe(pair, lost + 1, back, Some(back + 1)));
        }
        let tl = timeline_with_epoch(5, 80);
        let r = InterruptionReport::build(&[(0, 1), (2, 3), (4, 5)], &probes, &tl, ms(200), cfg());
        let durations: Vec<SimDuration> = r.windows().map(BlackoutWindow::duration).collect();
        assert_eq!(durations, [31, 41, 61].map(SimDuration::from_millis));
        let max = r.max_blackout().unwrap();
        for q in [-1.0, 0.0, 0.01, 0.34, 0.5, 0.67, 0.99, 1.0, 2.0, f64::NAN] {
            let v = r.blackout_quantile(q);
            assert!(v <= max, "q={q}: {v} above the max {max}");
            assert!(durations.contains(&v), "q={q}: {v} is no window's duration");
        }
        assert_eq!(r.blackout_quantile(0.0), durations[0]);
        assert_eq!(r.blackout_quantile(0.5), durations[1]);
        assert_eq!(r.blackout_quantile(f64::NAN), max);
        assert!(r
            .to_string()
            .contains("blackout p50 41.000ms  p99 61.000ms  max 61.000ms"));
        // No windows: zero for every q.
        let none = InterruptionReport::build(&[(0, 1)], &[], &tl, ms(200), cfg());
        assert_eq!(none.blackout_quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn jsonl_is_canonical() {
        let probes = vec![
            probe(0, 0, 10, Some(10)),
            probe(0, 1, 20, None),
            probe(0, 2, 30, None),
            probe(0, 3, 40, Some(41)),
        ];
        let tl = timeline_with_epoch(15, 35);
        let r = InterruptionReport::build(&[(4, 7)], &probes, &tl, ms(100), cfg());
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"interruption-report\",\"horizon_ns\":100000000,\
             \"interval_ns\":10000000,\"min_run\":2,\"pairs\":1,\"windows\":1,\
             \"max_blackout_ns\":26000000}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"pair\",\"pair\":0,\"src\":4,\"dst\":7,\"delivered\":2,\
             \"dropped\":2,\"dead_letters\":0,\"pending\":0,\"windows\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"blackout\",\"pair\":0,\"epoch\":2,\"start_ns\":15000000,\
             \"end_ns\":41000000,\"restored\":true,\"probes_lost\":2}"
        );
        assert_eq!(jsonl, r.to_jsonl(), "deterministic");
    }
}

//! A lightweight metrics registry: counters, gauges, and mergeable time
//! histograms, with per-epoch snapshots.
//!
//! Everything is keyed by `&'static str` so recording never allocates,
//! and histogram merge is elementwise addition — associative and
//! commutative, so per-node or per-shard registries can be combined in
//! any grouping (property-tested in `tests/properties.rs`).

use std::collections::BTreeMap;
use std::fmt;

use autonet_core::Epoch;
use autonet_sim::SimDuration;

/// Number of power-of-two duration buckets (covers 1 ns to ~584 years).
const BUCKETS: usize = 64;

/// A duration histogram with power-of-two buckets.
///
/// Bucket `i` counts durations `d` with `2^i ns <= d < 2^(i+1) ns`
/// (bucket 0 also absorbs zero).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros()) as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Adds pre-bucketed samples: `counts[i]` durations in bucket `i`
    /// (this type's own power-of-two layout), `sum_ns` their exact total.
    /// For sources that bucket on their own hot path and keep only the
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` has more buckets than the histogram.
    pub fn record_buckets(&mut self, counts: &[u64], sum_ns: u64) {
        for (mine, theirs) in self.buckets[..counts.len()].iter_mut().zip(counts) {
            *mine += theirs;
        }
        self.count += counts.iter().sum::<u64>();
        self.sum_ns += u128::from(sum_ns);
    }

    /// Adds another histogram into this one. Elementwise, so
    /// `a.merge(b)` then `.merge(c)` equals `b.merge(c)` then
    /// `a.merge(that)` — associativity is what lets per-node histograms
    /// be combined in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The arithmetic mean of recorded durations (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / u128::from(self.count)) as u64)
    }

    /// An upper bound on the `q`-quantile (0.0..=1.0): the top edge of the
    /// bucket containing it, by the nearest-rank definition (the smallest
    /// recorded value with at least `⌈q·n⌉` observations at or below it).
    ///
    /// Edge cases are pinned down by unit tests: an empty histogram
    /// answers zero for every `q`; `q` outside `[0, 1]` clamps; `q = 0.0`
    /// is the minimum's bucket and `q = 1.0` the maximum's; `NaN` is
    /// treated as `1.0` (the conservative bound) rather than silently
    /// aliasing to the minimum through float-to-int saturation.
    pub fn quantile_upper_bound(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        // The product can round up past an exact rank (0.57 * 100 is
        // 57.000…01 in f64), so the rank is clamped back into 1..=count —
        // without the upper clamp a sub-1.0 quantile could walk past the
        // last populated bucket.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let edge = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return SimDuration::from_nanos(edge.saturating_sub(1));
            }
        }
        SimDuration::from_nanos(u64::MAX)
    }
}

/// A point-in-time copy of every counter and gauge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values at snapshot time.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values at snapshot time.
    pub gauges: BTreeMap<&'static str, i64>,
}

/// The registry: named counters, gauges and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    epoch_snapshots: Vec<(Epoch, MetricsSnapshot)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    /// Reads a gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records a duration into the named histogram.
    pub fn observe(&mut self, name: &'static str, d: SimDuration) {
        self.histograms.entry(name).or_default().record(d);
    }

    /// Records pre-bucketed samples into the named histogram (see
    /// [`Histogram::record_buckets`]).
    pub fn observe_buckets(&mut self, name: &'static str, counts: &[u64], sum_ns: u64) {
        self.histograms
            .entry(name)
            .or_default()
            .record_buckets(counts, sum_ns);
    }

    /// Reads a histogram, if it has ever been observed into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Captures the current counters and gauges as the snapshot for
    /// `epoch` (appended in call order).
    pub fn snapshot_epoch(&mut self, epoch: Epoch) {
        let snap = MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        };
        self.epoch_snapshots.push((epoch, snap));
    }

    /// The per-epoch snapshots, in capture order.
    pub fn epoch_snapshots(&self) -> &[(Epoch, MetricsSnapshot)] {
        &self.epoch_snapshots
    }

    /// Merges another registry into this one: counters and histograms
    /// add, gauges take the elementwise **max**, snapshots concatenate.
    ///
    /// Gauge-max (not last-write-wins) makes the merge commutative and
    /// associative, so a fold over per-shard registries yields the same
    /// result in any merge order — the property the sharded kernel
    /// relies on when it combines per-shard telemetry, and the reason a
    /// gauge like `kernel.shard_events_max` reads as "the hottest shard"
    /// after the fold. Gauges that need a sum should be counters.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&k, &v) in &other.counters {
            self.count(k, v);
        }
        for (&k, &v) in &other.gauges {
            self.gauges
                .entry(k)
                .and_modify(|e| *e = (*e).max(v))
                .or_insert(v);
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
        self.epoch_snapshots
            .extend(other.epoch_snapshots.iter().cloned());
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, h)| (k, h))
    }

    /// Canonical JSONL export: one line per metric, names in order,
    /// counters then gauges then histograms. Histogram lines carry the
    /// p50/p99/p99.9 upper bounds from
    /// [`Histogram::quantile_upper_bound`] so tail latency reaches the
    /// artifact, not just the mean.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{k}\",\"value\":{v}}}"
            )
            .expect("writing to a String cannot fail");
        }
        for (k, v) in &self.gauges {
            writeln!(out, "{{\"type\":\"gauge\",\"name\":\"{k}\",\"value\":{v}}}")
                .expect("writing to a String cannot fail");
        }
        for (k, h) in &self.histograms {
            writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{k}\",\"count\":{},\"mean_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                h.count(),
                h.mean().as_nanos(),
                h.quantile_upper_bound(0.5).as_nanos(),
                h.quantile_upper_bound(0.99).as_nanos(),
                h.quantile_upper_bound(0.999).as_nanos()
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k}: n={} mean={} p99<={}",
                h.count(),
                h.mean(),
                h.quantile_upper_bound(0.99)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.count("packets", 3);
        m.count("packets", 2);
        m.gauge_set("open", 1);
        assert_eq!(m.counter("packets"), 5);
        assert_eq!(m.gauge("open"), 1);
        assert_eq!(m.counter("absent"), 0);
        m.snapshot_epoch(Epoch(1));
        m.count("packets", 1);
        m.snapshot_epoch(Epoch(2));
        let snaps = m.epoch_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].1.counters["packets"], 5);
        assert_eq!(snaps[1].1.counters["packets"], 6);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(0));
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_millis(3));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean().as_nanos(), (3_000_000 + 1) / 3);
        assert!(h.quantile_upper_bound(1.0) >= SimDuration::from_millis(3));
        assert!(h.quantile_upper_bound(0.1) <= SimDuration::from_nanos(1));
    }

    #[test]
    fn pre_bucketed_samples_equal_recorded_ones() {
        let samples = [0u64, 1, 3, 700, 700, 5_000];
        let mut recorded = Histogram::new();
        let mut counts = [0u64; 32];
        for &ns in &samples {
            recorded.record(SimDuration::from_nanos(ns));
            counts[ns.max(1).ilog2() as usize] += 1;
        }
        let mut bucketed = Histogram::new();
        bucketed.record_buckets(&counts, samples.iter().sum());
        assert_eq!(bucketed, recorded);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: zero for any q, including NaN.
        let empty = Histogram::new();
        assert_eq!(empty.quantile_upper_bound(0.5), SimDuration::ZERO);
        assert_eq!(empty.quantile_upper_bound(f64::NAN), SimDuration::ZERO);

        // Single populated bucket: every quantile answers its top edge.
        let mut one = Histogram::new();
        for _ in 0..10 {
            one.record(SimDuration::from_nanos(700)); // bucket [512, 1024)
        }
        let edge = SimDuration::from_nanos(1023);
        assert_eq!(one.quantile_upper_bound(0.0), edge);
        assert_eq!(one.quantile_upper_bound(0.5), edge);
        assert_eq!(one.quantile_upper_bound(1.0), edge);

        // Two buckets: q = 0.0 is the minimum's bucket, q = 1.0 the
        // maximum's; out-of-range and NaN q clamp instead of panicking or
        // aliasing to the wrong end.
        let mut two = Histogram::new();
        two.record(SimDuration::from_nanos(1));
        two.record(SimDuration::from_secs(1));
        assert_eq!(two.quantile_upper_bound(0.0).as_nanos(), 1);
        assert!(two.quantile_upper_bound(1.0) >= SimDuration::from_secs(1));
        assert_eq!(
            two.quantile_upper_bound(-3.0),
            two.quantile_upper_bound(0.0)
        );
        assert_eq!(two.quantile_upper_bound(7.0), two.quantile_upper_bound(1.0));
        assert_eq!(
            two.quantile_upper_bound(f64::NAN),
            two.quantile_upper_bound(1.0)
        );
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record(SimDuration::from_nanos(i * 37 + 1));
        }
        let mut last = SimDuration::ZERO;
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            let v = h.quantile_upper_bound(q);
            assert!(v >= last, "quantile must be monotone: q={q} gave {v:?}");
            last = v;
        }
        // A sub-1.0 quantile never exceeds the q = 1.0 bound, float
        // rounding notwithstanding.
        assert!(h.quantile_upper_bound(0.999_999) <= h.quantile_upper_bound(1.0));
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(20));
        b.record(SimDuration::from_micros(30));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.mean().as_nanos(), 20_000);
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.count("x", 1);
        b.count("x", 2);
        b.observe("lat", SimDuration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn gauge_merge_takes_the_max() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.gauge_set("hot", 3);
        a.gauge_set("only_a", -7);
        b.gauge_set("hot", 9);
        b.gauge_set("only_b", 4);
        a.merge(&b);
        assert_eq!(a.gauge("hot"), 9);
        assert_eq!(a.gauge("only_a"), -7);
        assert_eq!(a.gauge("only_b"), 4);
        // Max keeps the winner even when the merged-in side is smaller.
        let mut c = MetricsRegistry::new();
        c.gauge_set("hot", 1);
        a.merge(&c);
        assert_eq!(a.gauge("hot"), 9);
    }

    #[test]
    fn gauge_merge_is_order_independent() {
        let mut regs = Vec::new();
        for v in [5i64, 2, 8, 8, 1] {
            let mut r = MetricsRegistry::new();
            r.gauge_set("g", v);
            r.count("c", v as u64);
            regs.push(r);
        }
        let fold = |order: &[usize]| {
            let mut acc = MetricsRegistry::new();
            for &i in order {
                acc.merge(&regs[i]);
            }
            (acc.gauge("g"), acc.counter("c"))
        };
        let forward = fold(&[0, 1, 2, 3, 4]);
        let backward = fold(&[4, 3, 2, 1, 0]);
        let shuffled = fold(&[2, 0, 4, 1, 3]);
        assert_eq!(forward, (8, 24));
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);
    }

    #[test]
    fn jsonl_export_carries_quantiles() {
        let mut m = MetricsRegistry::new();
        m.count("events", 12);
        m.gauge_set("shards", 4);
        for i in 1..=100u64 {
            m.observe("wait", SimDuration::from_nanos(i));
        }
        let jsonl = m.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"events\",\"value\":12}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"gauge\",\"name\":\"shards\",\"value\":4}"
        );
        assert!(lines[2].starts_with("{\"type\":\"histogram\",\"name\":\"wait\",\"count\":100,"));
        assert!(lines[2].contains("\"p50_ns\":"));
        assert!(lines[2].contains("\"p99_ns\":"));
        assert!(lines[2].contains("\"p999_ns\":"));
        // Quantiles are genuine upper bounds in the export too.
        let grab = |key: &str| -> u64 {
            let i = lines[2].find(key).unwrap() + key.len();
            lines[2][i..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        assert!(grab("\"p50_ns\":") >= 50);
        assert!(grab("\"p99_ns\":") >= 99);
        assert!(grab("\"p999_ns\":") >= grab("\"p99_ns\":"));
    }
}

//! A calendar (bucket) pending-event queue.
//!
//! Same contract as [`EventQueue`](crate::EventQueue) — events pop in
//! `(time, scheduling order)` — but backed by a timing wheel instead of a
//! binary heap. The tie-break is a type parameter: the classic
//! [`Simulator`](crate::Simulator) uses the default, a queue-assigned
//! sequence number (FIFO among simultaneous events); the sharded executor
//! supplies its canonical `(src, seq)` stamp through
//! [`push_keyed`](CalendarQueue::push_keyed) so pop order is independent of
//! insertion order. Each pending event lives in the bucket addressed by its
//! *bucket number* `time >> shift` masked into a power-of-two ring; events
//! more than one full rotation past the current minimum wait in a small
//! overflow heap. Pops scan forward from the last minimum's bucket, so the
//! common case (the next event lands in the same or a nearby bucket, as
//! tick-driven simulations overwhelmingly do) touches one short contiguous
//! `Vec` instead of `log n` scattered heap nodes.
//!
//! The queue resizes itself: when the population outgrows the ring (or
//! shrinks well below it), the ring is rebuilt with a bucket count near the
//! population and a bucket width near the average event spacing, keeping
//! expected occupancy around one event per bucket. Every sizing decision
//! is a pure function of the push/pop history, so runs stay bit-for-bit
//! reproducible.
//!
//! Because `(time, key)` is a total order (keys are unique among pending
//! entries), *any* correct priority queue pops in the identical order; the
//! proptest suite in `tests/` checks this queue against the binary-heap
//! reference on adversarial batches.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event; `seq` is the tie-break key among equal times.
#[derive(Clone)]
struct Entry<E, K> {
    time: SimTime,
    seq: K,
    event: E,
}

impl<E, K: Ord> PartialEq for Entry<E, K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E, K: Ord> Eq for Entry<E, K> {}

impl<E, K: Ord> PartialOrd for Entry<E, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E, K: Ord> Ord for Entry<E, K> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) is the
    // overflow top.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, &other.seq).cmp(&(self.time, &self.seq))
    }
}

/// Smallest and largest ring sizes the queue will resize between.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;

/// A time-ordered queue of simulation events on a timing wheel, popping in
/// `(time, K)` order.
#[derive(Clone)]
pub struct CalendarQueue<E, K = u64> {
    /// The ring. An entry with bucket number `b = time >> shift` lives at
    /// physical index `b & mask`.
    buckets: Vec<Vec<Entry<E, K>>>,
    mask: u64,
    shift: u32,
    /// Events at least one full rotation past the minimum at push time.
    overflow: BinaryHeap<Entry<E, K>>,
    /// Entries currently in the ring (excludes overflow).
    wheel_len: usize,
    len: usize,
    /// `(time, seq)` of the earliest entry, maintained eagerly so peeks
    /// are O(1) and pops know where to look.
    min: Option<(SimTime, K)>,
    /// Next queue-assigned key (FIFO queues only).
    next_seq: u64,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty FIFO-tie-break queue.
    pub fn new() -> Self {
        CalendarQueue::keyed()
    }

    /// Schedules `event` for delivery at absolute time `time`, after every
    /// event already scheduled for the same instant.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, event);
    }
}

impl<E, K: Ord + Copy> CalendarQueue<E, K> {
    /// Creates an empty queue whose callers supply the tie-break key.
    pub fn keyed() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            // 1 µs buckets to start; adapts on first resize.
            shift: 10,
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            min: None,
            next_seq: 0,
        }
    }

    fn bnum(&self, time: SimTime) -> u64 {
        time.as_nanos() >> self.shift
    }

    /// Schedules `event` at `time` with an explicit tie-break `key`, which
    /// must be unique among pending entries.
    pub fn push_keyed(&mut self, time: SimTime, key: K, event: E) {
        self.insert(Entry {
            time,
            seq: key,
            event,
        });
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    fn insert(&mut self, e: Entry<E, K>) {
        let key = (e.time, e.seq);
        let b = self.bnum(e.time);
        let horizon = self
            .min
            .map_or(u64::MAX, |(t, _)| self.bnum(t) + self.buckets.len() as u64);
        if b >= horizon {
            self.overflow.push(e);
        } else {
            self.buckets[(b & self.mask) as usize].push(e);
            self.wheel_len += 1;
        }
        if self.min.is_none_or(|m| key < m) {
            self.min = Some(key);
        }
    }

    /// Removes and returns the earliest event together with its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, seq) = self.min?;
        let b0 = self.bnum(time);
        let bucket = &mut self.buckets[(b0 & self.mask) as usize];
        let entry = match bucket.iter().position(|e| e.seq == seq) {
            Some(i) => {
                self.wheel_len -= 1;
                bucket.swap_remove(i)
            }
            // Not in its wheel bucket: the global minimum must be the
            // overflow top.
            None => self.overflow.pop().expect("min entry exists"),
        };
        self.len -= 1;
        // Pull overflow entries whose rotation has come into the ring.
        let horizon = b0 + self.buckets.len() as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|e| self.bnum(e.time) < horizon)
        {
            let e = self.overflow.pop().expect("peeked");
            let b = self.bnum(e.time);
            self.buckets[(b & self.mask) as usize].push(e);
            self.wheel_len += 1;
        }
        self.min = self.search_min(b0);
        if self.len * 2 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.rebuild();
        }
        Some((entry.time, entry.event))
    }

    /// Finds the new `(time, seq)` minimum, scanning the ring forward from
    /// bucket number `b0` (every remaining entry is at `b0` or later).
    fn search_min(&self, b0: u64) -> Option<(SimTime, K)> {
        if self.len == 0 {
            return None;
        }
        let of = self.overflow.peek().map(|e| (e.time, e.seq));
        if self.wheel_len == 0 {
            return of;
        }
        let n = self.buckets.len() as u64;
        for b in b0..b0 + n {
            let best = self.buckets[(b & self.mask) as usize]
                .iter()
                .filter(|e| self.bnum(e.time) == b)
                .map(|e| (e.time, e.seq))
                .min();
            if let Some(best) = best {
                return Some(match of {
                    Some(of) if of < best => of,
                    _ => best,
                });
            }
        }
        // A full rotation without a hit: every ring entry aliases a later
        // rotation (possible after pushes below an old minimum). Direct
        // search.
        let best = self.buckets.iter().flatten().map(|e| (e.time, e.seq)).min();
        match (best, of) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Rebuilds the ring with a bucket count near the population and a
    /// bucket width near the mean event spacing.
    fn rebuild(&mut self) {
        let mut entries: Vec<Entry<E, K>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        entries.extend(std::mem::take(&mut self.overflow));
        let nbuckets = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in &entries {
            lo = lo.min(e.time.as_nanos());
            hi = hi.max(e.time.as_nanos());
        }
        let spacing = ((hi - lo) / entries.len().max(1) as u64).max(1);
        self.shift = 64 - spacing.leading_zeros() - 1;
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.wheel_len = 0;
        self.min = None;
        for e in entries {
            self.insert(e);
        }
    }

    /// Returns the time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min.map(|(t, _)| t)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.wheel_len = 0;
        self.len = 0;
        self.min = None;
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(5), ());
        q.push(SimTime::from_nanos(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_nanos(1), 0u64);
        // Push a spread of events many rotations ahead of the minimum.
        for i in 1..200u64 {
            q.push(SimTime::from_secs(i), i);
        }
        let mut last = None;
        let mut n = 0;
        while let Some((t, v)) = q.pop() {
            assert!(last.is_none_or(|l| l <= t));
            last = Some(t);
            assert_eq!(v, n);
            n += 1;
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Pushes below already-popped times are allowed by the queue itself
        // (the Scheduler enforces causality), so order is only guaranteed
        // within one contiguous drain.
        let mut q = CalendarQueue::new();
        let mut popped = 0usize;
        for round in 0u64..50 {
            for k in 0..20u64 {
                let t = SimTime::from_nanos((round * 7 + k * 131) % 900 + round * 100);
                q.push(t, (round, k));
            }
            if round % 3 == 0 {
                let mut last = None;
                for _ in 0..15 {
                    if let Some((t, _)) = q.pop() {
                        assert!(last.is_none_or(|l| l <= t));
                        last = Some(t);
                        popped += 1;
                    }
                }
            }
        }
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            assert!(last.is_none_or(|l| l <= t));
            last = Some(t);
            popped += 1;
        }
        assert_eq!(popped, 1000);
    }

    #[test]
    fn growth_and_shrink_keep_contents() {
        let mut q = CalendarQueue::new();
        for i in 0..5000u64 {
            q.push(SimTime::from_nanos(i * 37 % 10_000), i);
        }
        assert_eq!(q.len(), 5000);
        let mut seen = 0;
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            assert!(last.is_none_or(|l| l <= t));
            last = Some(t);
            seen += 1;
        }
        assert_eq!(seen, 5000);
    }
}

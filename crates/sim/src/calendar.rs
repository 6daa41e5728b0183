//! The kernel's event calendar: the pending events of both driver loops.
//!
//! Same contract as [`EventQueue`](crate::EventQueue) — events pop in
//! `(time, tie-break)` order — with the tie-break a type parameter: the
//! classic [`Simulator`](crate::Simulator) uses the default, a
//! queue-assigned sequence number (FIFO among simultaneous events); each
//! [`ShardedSimulator`](crate::ShardedSimulator) shard supplies its
//! canonical `(src, seq)` stamp through [`push_keyed`](KeyedHeap::push_keyed)
//! so pop order is independent of insertion order.
//!
//! A monotone radix queue (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).
//! Each pending event owns a slot: its payload waits in a slab whose freed
//! slots a free list hands back, and its `(time, key)` in `stamps`, so the
//! slab stops growing at the peak pending count and moving an entry moves
//! a 4-byte slot. Entries at or below a floor `last` sit in `near`, a small
//! binary heap of `(time, key, slot)`; every later entry's slot sits in
//! the bucket of the highest bit in which its time differs from `last`.
//! When `near` empties, the lowest non-empty bucket's minimum becomes the
//! new `last`, and that bucket's entries move to `near` (the minimum's
//! instant) or to lower buckets, so an entry moves at most 64 times and
//! mostly a few. Simulated time only moves forward, so almost every push
//! lands in a bucket or at the floor's instant; a push below the floor
//! still goes to `near` and pops in order. The cost follows how the times
//! spread, not the pending count, and nothing is tuned.
//!
//! Buckets hold slots, not whole entries, because they keep their
//! capacity: a bring-up storm's pending events pass through many buckets
//! in turn, and 24-byte entries there cost about 10 % more peak RSS on
//! 256- and 576-switch fat trees than the binary heap this queue replaced.
//!
//! Keys are unique among pending entries, so `slot` never decides an order
//! and any correct priority queue pops identically; the proptest suite in
//! `tests/` checks this one against the `EventQueue` reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of simulation events, popping in `(time, K)` order.
///
/// `near` is empty only when the whole queue is, so its top is the
/// earliest pending entry.
#[derive(Clone)]
pub struct KeyedHeap<E, K = u64> {
    /// `(time, key, slot)` of every pending entry at or below `last`.
    near: BinaryHeap<Reverse<(SimTime, K, u32)>>,
    /// `buckets[b]`: the slots of the entries whose time exceeds `last`
    /// and first differs from it in bit `b`. Emptied buckets keep their
    /// capacity, 4 bytes an entry.
    buckets: [Vec<u32>; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    mask: u64,
    /// The floor: the time of the latest refill of `near`.
    last: SimTime,
    /// `(time, key)` by slot, for the entries in `buckets`.
    stamps: Vec<(SimTime, K)>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots, last freed first.
    free: Vec<u32>,
    /// Next queue-assigned key (FIFO queues only).
    next_seq: u64,
}

/// The queue's former name, which the frozen `benchmark/` crate imports.
#[doc(hidden)]
pub type CalendarQueue<E, K = u64> = KeyedHeap<E, K>;

/// The bucket of an entry at `time` above the floor `last`.
fn bucket(time: SimTime, last: SimTime) -> usize {
    63 - (time.as_nanos() ^ last.as_nanos()).leading_zeros() as usize
}

impl<E> KeyedHeap<E> {
    /// Creates an empty FIFO-tie-break queue.
    pub fn new() -> Self {
        KeyedHeap::keyed()
    }

    /// Schedules `event` for delivery at absolute time `time`, after every
    /// event already scheduled for the same instant.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, event);
    }
}

impl<E, K: Ord + Copy> KeyedHeap<E, K> {
    /// Creates an empty queue whose callers supply the tie-break key.
    pub fn keyed() -> Self {
        KeyedHeap {
            near: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
            last: SimTime::ZERO,
            stamps: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time` with an explicit tie-break `key`, which
    /// must be unique among pending entries.
    pub fn push_keyed(&mut self, time: SimTime, key: K, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                self.stamps[slot as usize] = (time, key);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(Some(event));
                self.stamps.push((time, key));
                slot
            }
        };
        if self.near.is_empty() {
            // The queue was empty: the floor may move anywhere.
            self.last = time;
        }
        if time <= self.last {
            self.near.push(Reverse((time, key, slot)));
        } else {
            let b = bucket(time, self.last);
            self.buckets[b].push(slot);
            self.mask |= 1 << b;
        }
    }

    /// Removes and returns the earliest event together with its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, slot)) = self.near.pop()?;
        if self.near.is_empty() && self.mask != 0 {
            self.refill();
        }
        let event = self.slab[slot as usize]
            .take()
            .expect("a pending slot holds its payload");
        self.free.push(slot);
        Some((time, event))
    }

    /// Raises the floor to the minimum of the lowest non-empty bucket and
    /// re-places that bucket's entries: the minimum's instant into `near`,
    /// the rest into lower buckets (they agree with the new floor above
    /// the bucket's bit, and with each other in it).
    fn refill(&mut self) {
        let b = self.mask.trailing_zeros() as usize;
        let (lower, rest) = self.buckets.split_at_mut(b);
        let from = &mut rest[0];
        let stamps = &self.stamps;
        self.last = (from.iter().map(|&slot| stamps[slot as usize].0))
            .min()
            .expect("a marked bucket");
        for slot in from.drain(..) {
            let (time, key) = stamps[slot as usize];
            if time == self.last {
                self.near.push(Reverse((time, key, slot)));
            } else {
                let to = bucket(time, self.last);
                lower[to].push(slot);
                self.mask |= 1 << to;
            }
        }
        self.mask &= !(1 << b);
    }

    /// Returns the time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.near.peek().map(|Reverse((time, _, _))| *time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.near.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
        self.mask = 0;
        self.stamps.clear();
        self.slab.clear();
        self.free.clear();
    }
}

impl<E> Default for KeyedHeap<E> {
    fn default() -> Self {
        KeyedHeap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedHeap::new();
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
        let mut q = KeyedHeap::new();
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
        let mut q = KeyedHeap::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(5), ());
        q.push(SimTime::from_nanos(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = KeyedHeap::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The slab went with the entries.
        q.push(SimTime::ZERO, 3);
        assert_eq!(q.slab.len(), 1);
    }

    #[test]
    fn far_future_events_round_trip() {
        let mut q = KeyedHeap::new();
        q.push(SimTime::from_nanos(1), 0u64);
        // A spread of events seconds ahead of the minimum.
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

    /// At a steady pending count every pop frees the slot the next push
    /// takes: 10⁵ pop + push cycles at 4 096 pending leave 4 096 slots.
    #[test]
    fn the_slab_stops_growing_at_the_peak_pending_count() {
        const PENDING: u64 = 4_096;
        let spread = |i: u64| SimDuration::from_nanos(i.wrapping_mul(0x9E37_79B9) % 2_000_000);
        let mut q = KeyedHeap::new();
        for i in 0..PENDING {
            q.push(SimTime::ZERO + spread(i), i);
        }
        for i in 0..100_000 {
            let (t, e) = q.pop().expect("the queue holds its length");
            q.push(t + spread(i ^ e), e);
        }
        assert_eq!(q.len(), PENDING as usize);
        assert_eq!(q.slab.len(), PENDING as usize);
        assert!(q.free.is_empty());
    }
}

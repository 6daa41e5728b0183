//! The calendar queue must be a drop-in replacement for the binary-heap
//! reference: identical pop order — including FIFO tie-breaking among
//! simultaneous events — on adversarial batches of clustered, spread, and
//! far-future timestamps, under arbitrary push/pop interleavings. The
//! caller-keyed form the sharded executor uses is checked the same way
//! against a heap of full `(time, src, seq)` stamps.

use proptest::prelude::*;

use autonet_sim::{CalendarQueue, EventQueue, SimTime};

/// Strategy: timestamps drawn from several regimes the simulator actually
/// produces — dense clusters (same-instant tick storms), microsecond-scale
/// packet latencies, and far-future timers many wheel rotations out.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Heavy clustering: few distinct instants, many ties.
        (0u64..16).prop_map(|t| t * 1_000),
        // Packet-latency scale.
        0u64..2_000_000,
        // Timer scale (milliseconds to seconds).
        (0u64..5_000).prop_map(|t| t * 1_000_000),
        // Far future: hours of simulated time ahead.
        (0u64..100).prop_map(|t| t * 3_600_000_000_000),
    ]
}

/// One scripted operation: push at a timestamp, or pop.
#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    Pop,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => time_strategy().prop_map(Op::Push),
            1 => Just(Op::Pop),
        ],
        1..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batch fill, then full drain: both queues yield the same (time,
    /// payload) sequence.
    #[test]
    fn full_drain_matches_reference(times in prop::collection::vec(time_strategy(), 1..800)) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            heap.push(SimTime::from_nanos(t), i);
            cal.push(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(heap.len(), cal.len());
        loop {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Arbitrary interleavings of pushes and pops (pops may hit an empty
    /// queue): every pop returns the same thing from both queues, and
    /// peeks agree throughout.
    #[test]
    fn interleaved_ops_match_reference(ops in ops_strategy()) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut payload = 0usize;
        for op in ops {
            match op {
                Op::Push(t) => {
                    heap.push(SimTime::from_nanos(t), payload);
                    cal.push(SimTime::from_nanos(t), payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(heap.pop(), cal.pop());
                }
            }
            prop_assert_eq!(heap.peek_time(), cal.peek_time());
            prop_assert_eq!(heap.len(), cal.len());
        }
        // Drain the remainder.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// A simulator-shaped workload: monotone "now" advancing with each
    /// pop, pushes always at or after now (the Scheduler's contract), with
    /// bursts of simultaneous events.
    #[test]
    fn causal_workload_matches_reference(
        seeds in prop::collection::vec((0u64..50_000, 1u8..8), 1..300)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut payload = 0usize;
        let mut now = 0u64;
        for (delay, burst) in seeds {
            for _ in 0..burst {
                let t = now + delay;
                heap.push(SimTime::from_nanos(t), payload);
                cal.push(SimTime::from_nanos(t), payload);
                payload += 1;
            }
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            if let Some((t, _)) = a {
                now = t.as_nanos();
            }
        }
        loop {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// The sharded executor's queue: ordered by the canonical `(time, src,
/// seq)` stamp supplied by the caller, not by insertion order. Reference:
/// the `BinaryHeap<Reverse<stamp>>` it replaced.
mod stamp_keyed {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    /// One scripted operation: push a stamped event, or pop.
    #[derive(Clone, Debug)]
    enum Op {
        /// (time, src): the per-src sequence number is assigned by the
        /// script so stamps stay unique.
        Push(u64, u32),
        Pop,
    }

    /// Few distinct instants and few sources (including the external
    /// one), so most pushes tie on time and many on `(time, src)`.
    fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
        let src = prop_oneof![0u32..4, Just(u32::MAX)];
        let time = prop_oneof![
            3 => (0u64..6).prop_map(|t| t * 1_000),
            1 => time_strategy(),
        ];
        prop::collection::vec(
            prop_oneof![
                4 => (time, src).prop_map(|(t, s)| Op::Push(t, s)),
                1 => Just(Op::Pop),
            ],
            1..600,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Equal-time batches pushed in an order unrelated to their
        /// stamps (the cross-shard mailbox's arrival order is racy): every
        /// pop and every peek agrees with the heap's.
        #[test]
        fn pops_in_stamp_order(ops in ops_strategy()) {
            let mut heap: BinaryHeap<Reverse<(SimTime, u32, u64, usize)>> = BinaryHeap::new();
            let mut cal: CalendarQueue<usize, (u32, u64)> = CalendarQueue::keyed();
            for (payload, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Push(t, src) => {
                        // A bijection of the op index: unique per stamp,
                        // and not monotone in insertion order.
                        let seq = (payload as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let time = SimTime::from_nanos(t);
                        heap.push(Reverse((time, src, seq, payload)));
                        cal.push_keyed(time, (src, seq), payload);
                    }
                    Op::Pop => {
                        let expect = heap.pop().map(|Reverse((t, _, _, p))| (t, p));
                        prop_assert_eq!(cal.pop(), expect);
                    }
                }
                prop_assert_eq!(cal.peek_time(), heap.peek().map(|Reverse(e)| e.0));
                prop_assert_eq!(cal.len(), heap.len());
            }
            while let Some(Reverse((t, _, _, p))) = heap.pop() {
                prop_assert_eq!(cal.pop(), Some((t, p)));
            }
            prop_assert!(cal.is_empty());
        }
    }
}

//! The calendar queue must be a drop-in replacement for the binary-heap
//! reference: identical pop order — including FIFO tie-breaking among
//! simultaneous events — on adversarial batches of clustered, spread, and
//! far-future timestamps, under arbitrary push/pop interleavings. The
//! caller-keyed form the sharded executor uses is checked the same way
//! against a heap of full `(time, src, seq)` stamps.
//!
//! Both forms, and the `Simulator` built on the first, are `Clone`: a
//! clone taken at any point is an independent queue (kernel) that goes on
//! exactly as the original does, which is what lets a campaign boot a
//! network once and fork it per candidate.

use proptest::prelude::*;

use autonet_sim::{CalendarQueue, EventQueue, Scheduler, SimDuration, SimTime, Simulator, World};

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

/// Grows `cal` past its first ring rebuilds (more than twice the 16
/// initial buckets) with a few entries hours ahead of the rest — beyond
/// any ring rotation, so in the overflow heap — runs `prefix` on it
/// (`Some(t)` pushes at `t`, `None` pops), clones it, and runs `suffix` on
/// both: every pop, peek and length must agree, down to the last entry.
fn clone_pops_like_the_original<K: Ord + Copy>(
    mut cal: CalendarQueue<usize, K>,
    push: impl Fn(&mut CalendarQueue<usize, K>, SimTime, usize),
    prefix: impl Iterator<Item = Option<u64>>,
    suffix: impl Iterator<Item = Option<u64>>,
) -> TestCaseResult {
    let near = (0..80u64).map(|i| i * 37 % 1_000);
    let far = (2..10u64).map(|h| h * 3_600_000_000_000);
    let mut payload = 0usize;
    for op in near.chain(far).map(Some).chain(prefix) {
        match op {
            Some(t) => push(&mut cal, SimTime::from_nanos(t), payload),
            None => drop(cal.pop()),
        }
        payload += 1;
    }
    let mut fork = cal.clone();
    for op in suffix {
        match op {
            Some(t) => {
                push(&mut cal, SimTime::from_nanos(t), payload);
                push(&mut fork, SimTime::from_nanos(t), payload);
            }
            None => prop_assert_eq!(cal.pop(), fork.pop()),
        }
        payload += 1;
        prop_assert_eq!(cal.peek_time(), fork.peek_time());
        prop_assert_eq!(cal.len(), fork.len());
    }
    while let Some(next) = cal.pop() {
        prop_assert_eq!(fork.pop(), Some(next));
    }
    prop_assert!(fork.is_empty());
    Ok(())
}

/// A world whose whole state is a running digest of its history, and
/// whose follow-up events depend on that digest: any divergence between
/// two runs snowballs into different clocks and counts.
#[derive(Clone)]
struct Digest {
    digest: u64,
    budget: u32,
}

impl World for Digest {
    type Event = u64;

    fn handle(&mut self, now: SimTime, ev: u64, sched: &mut Scheduler<'_, u64>) {
        self.digest =
            (self.digest.rotate_left(7) ^ ev ^ now.as_nanos()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for k in 0..self.digest % 3 {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            // Mostly near-term, ties included; now and then a timer far
            // enough out to land in the queue's overflow heap.
            let delay = match (self.digest >> (8 * k)) % 16 {
                0 => 0,
                15 => 3_600_000_000_000,
                d => d * 1_000,
            };
            sched.after(SimDuration::from_nanos(delay), self.digest ^ k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A FIFO queue cloned after rebuilds, with entries in the overflow
    /// heap and a used sequence counter, answers every later push, pop
    /// and peek exactly as the original does.
    #[test]
    fn fifo_clone_pops_like_the_original(prefix in ops_strategy(), suffix in ops_strategy()) {
        let script = |ops: Vec<Op>| ops.into_iter().map(|op| match op {
            Op::Push(t) => Some(t),
            Op::Pop => None,
        });
        clone_pops_like_the_original(
            CalendarQueue::new(),
            |q, t, payload| q.push(t, payload),
            script(prefix),
            script(suffix),
        )?;
    }

    /// A kernel cloned mid-run and its original reach the same clock,
    /// event count and world, and both match a run that never cloned.
    #[test]
    fn simulator_clone_continues_like_the_original(
        seeds in prop::collection::vec((0u64..2_000_000, 0u64..1_000), 1..40),
        before in 0u64..400,
        after in 0u64..400,
    ) {
        let start = || {
            let mut sim = Simulator::new(Digest { digest: 1991, budget: 600 });
            for &(t, ev) in &seeds {
                sim.schedule_at(SimTime::from_nanos(t), ev);
            }
            sim
        };
        let mut straight = start();
        straight.run_events(before);
        straight.run_events(after);

        let mut original = start();
        original.run_events(before);
        let mut fork = original.clone();
        for sim in [&mut original, &mut fork] {
            sim.run_events(after);
            prop_assert_eq!(sim.now(), straight.now());
            prop_assert_eq!(sim.events_processed(), straight.events_processed());
            prop_assert_eq!(sim.pending_events(), straight.pending_events());
            prop_assert_eq!(sim.world().digest, straight.world().digest);
        }
        // And they keep agreeing to the end of the schedule.
        original.run();
        fork.run();
        prop_assert_eq!(original.now(), fork.now());
        prop_assert_eq!(original.world().digest, fork.world().digest);
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

        /// The keyed form likewise: the same `(time, key, event)` sequence
        /// from the clone as from the original (the payload is the op
        /// index, which the key is a bijection of).
        #[test]
        fn keyed_clone_pops_like_the_original(prefix in ops_strategy(), suffix in ops_strategy()) {
            let script = |ops: Vec<Op>| ops.into_iter().map(|op| match op {
                Op::Push(t, _) => Some(t),
                Op::Pop => None,
            });
            clone_pops_like_the_original(
                CalendarQueue::keyed(),
                |q, t, payload| {
                    let seq = (payload as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    q.push_keyed(t, ((payload % 5) as u32, seq), payload);
                },
                script(prefix),
                script(suffix),
            )?;
        }
    }
}

//! The kernel's queue, `KeyedHeap`, must be a drop-in replacement for the
//! binary-heap reference: identical pop order — including FIFO
//! tie-breaking among simultaneous events — on adversarial batches of
//! clustered, spread, and far-future timestamps, under arbitrary push/pop
//! interleavings, and on a simulator-shaped population. The caller-keyed
//! form the sharded executor uses is checked the same way against a heap
//! of full `(time, src, seq)` stamps.
//!
//! Both forms, and the `Simulator` built on the first, are `Clone`: a
//! clone taken at any point is an independent queue (kernel) that goes on
//! exactly as the original does, which is what lets a campaign boot a
//! network once and fork it per candidate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use autonet_sim::{
    EventQueue, KeyedHeap, Scheduler, SimDuration, SimRng, SimTime, Simulator, World,
};

/// Strategy: timestamps drawn from several regimes the simulator actually
/// produces — dense clusters (same-instant tick storms), microsecond-scale
/// packet latencies, timers, and far-future faults hours out.
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
        let mut q = KeyedHeap::new();
        for (i, &t) in times.iter().enumerate() {
            heap.push(SimTime::from_nanos(t), i);
            q.push(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(heap.len(), q.len());
        loop {
            let a = heap.pop();
            let b = q.pop();
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
        let mut q = KeyedHeap::new();
        let mut payload = 0usize;
        for op in ops {
            match op {
                Op::Push(t) => {
                    heap.push(SimTime::from_nanos(t), payload);
                    q.push(SimTime::from_nanos(t), payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(heap.pop(), q.pop());
                }
            }
            prop_assert_eq!(heap.peek_time(), q.peek_time());
            prop_assert_eq!(heap.len(), q.len());
        }
        // Drain the remainder.
        loop {
            let a = heap.pop();
            let b = q.pop();
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
        let mut q = KeyedHeap::new();
        let mut payload = 0usize;
        let mut now = 0u64;
        for (delay, burst) in seeds {
            for _ in 0..burst {
                let t = now + delay;
                heap.push(SimTime::from_nanos(t), payload);
                q.push(SimTime::from_nanos(t), payload);
                payload += 1;
            }
            let a = heap.pop();
            let b = q.pop();
            prop_assert_eq!(a, b);
            if let Some((t, _)) = a {
                now = t.as_nanos();
            }
        }
        loop {
            let a = heap.pop();
            let b = q.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Fills `q` with 80 near entries and a few hours ahead of them, runs
/// `prefix` on it (`Some(t)` pushes at `t`, `None` pops, freeing slab
/// slots that later pushes reuse), clones it, and runs `suffix` on both:
/// every pop, peek and length must agree, down to the last entry.
fn clone_pops_like_the_original<K: Ord + Copy>(
    mut q: KeyedHeap<usize, K>,
    push: impl Fn(&mut KeyedHeap<usize, K>, SimTime, usize),
    prefix: impl Iterator<Item = Option<u64>>,
    suffix: impl Iterator<Item = Option<u64>>,
) -> TestCaseResult {
    let near = (0..80u64).map(|i| i * 37 % 1_000);
    let far = (2..10u64).map(|h| h * 3_600_000_000_000);
    let mut payload = 0usize;
    for op in near.chain(far).map(Some).chain(prefix) {
        match op {
            Some(t) => push(&mut q, SimTime::from_nanos(t), payload),
            None => drop(q.pop()),
        }
        payload += 1;
    }
    let mut fork = q.clone();
    for op in suffix {
        match op {
            Some(t) => {
                push(&mut q, SimTime::from_nanos(t), payload);
                push(&mut fork, SimTime::from_nanos(t), payload);
            }
            None => prop_assert_eq!(q.pop(), fork.pop()),
        }
        payload += 1;
        prop_assert_eq!(q.peek_time(), fork.peek_time());
        prop_assert_eq!(q.len(), fork.len());
    }
    while let Some(next) = q.pop() {
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
            // Mostly near-term, ties included; now and then a timer an
            // hour out.
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

    /// A FIFO queue cloned with free slab slots, entries hours ahead and
    /// a used sequence counter answers every later push, pop and peek
    /// exactly as the original does.
    #[test]
    fn fifo_clone_pops_like_the_original(prefix in ops_strategy(), suffix in ops_strategy()) {
        let script = |ops: Vec<Op>| ops.into_iter().map(|op| match op {
            Op::Push(t) => Some(t),
            Op::Pop => None,
        });
        clone_pops_like_the_original(
            KeyedHeap::new(),
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
            let mut q: KeyedHeap<usize, (u32, u64)> = KeyedHeap::keyed();
            for (payload, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Push(t, src) => {
                        // A bijection of the op index: unique per stamp,
                        // and not monotone in insertion order.
                        let seq = (payload as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let time = SimTime::from_nanos(t);
                        heap.push(Reverse((time, src, seq, payload)));
                        q.push_keyed(time, (src, seq), payload);
                    }
                    Op::Pop => {
                        let expect = heap.pop().map(|Reverse((t, _, _, p))| (t, p));
                        prop_assert_eq!(q.pop(), expect);
                    }
                }
                prop_assert_eq!(q.peek_time(), heap.peek().map(|Reverse(e)| e.0));
                prop_assert_eq!(q.len(), heap.len());
            }
            while let Some(Reverse((t, _, _, p))) = heap.pop() {
                prop_assert_eq!(q.pop(), Some((t, p)));
            }
            prop_assert!(q.is_empty());
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
                KeyedHeap::keyed(),
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

/// A queue under test and its reference, driven in lockstep.
trait Pair {
    /// Pushes `payload` at `time`, emitted by node `src`, onto both.
    fn push(&mut self, time: SimTime, src: u32, payload: usize);
    /// Pops both, asserting they agree.
    fn pop(&mut self) -> Option<(SimTime, usize)>;
}

/// The classic kernel's FIFO queue against `EventQueue`.
#[derive(Default)]
struct Fifo(KeyedHeap<usize>, EventQueue<usize>);

impl Pair for Fifo {
    fn push(&mut self, time: SimTime, _src: u32, payload: usize) {
        self.0.push(time, payload);
        self.1.push(time, payload);
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let next = self.1.pop();
        assert_eq!(self.0.pop(), next);
        assert_eq!(self.0.len(), self.1.len());
        next
    }
}

/// A shard's stamp-keyed queue against a heap of whole stamps; the
/// per-source counters play the shard's `seqs`.
struct Stamped {
    queue: KeyedHeap<usize, (u32, u64)>,
    reference: BinaryHeap<Reverse<(SimTime, u32, u64, usize)>>,
    seqs: Vec<u64>,
}

impl Pair for Stamped {
    fn push(&mut self, time: SimTime, src: u32, payload: usize) {
        let seq = &mut self.seqs[src as usize];
        *seq += 1;
        self.queue.push_keyed(time, (src, *seq), payload);
        self.reference.push(Reverse((time, src, *seq, payload)));
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let next = self.reference.pop().map(|Reverse((t, _, _, p))| (t, p));
        assert_eq!(self.queue.pop(), next);
        assert_eq!(
            self.queue.peek_time(),
            self.reference.peek().map(|Reverse(e)| e.0)
        );
        next
    }
}

/// What a pending payload stands for in [`simulator_shaped`].
#[derive(Clone, Copy)]
enum Kind {
    Tick,
    Sample,
    Packet,
    Fault,
}

const NODES: u32 = 64;
/// The source of the pushes made before the run (the sharded kernel's
/// external source, renumbered to index `Stamped::seqs`).
const EXTERNAL: u32 = NODES;
/// Pops after which [`simulator_shaped`] stops emitting and drains.
const POPS: usize = 400_000;

/// Pushes a payload standing for `kind` at `node`, emitted by `src`.
fn emit(
    pair: &mut impl Pair,
    kinds: &mut Vec<(u32, Kind)>,
    at: SimTime,
    src: u32,
    node_kind: (u32, Kind),
) {
    pair.push(at, src, kinds.len());
    kinds.push(node_kind);
}

/// The population a network simulation keeps: every node has a 1.2 ms tick
/// and a 5 ms sample timer on a grid shared by a quarter of the nodes
/// (ties); each timer firing sends a packet 1–50 µs ahead, and 45 % of the
/// deliveries send another; four faults wait 1–2 s ahead, each a burst of
/// one packet per node. Most pushes land in the µs cluster: a bucket ring
/// sized from the mean spacing of this population piles that cluster into
/// the few buckets every pop scans. Runs `POPS` pops, then drains.
fn simulator_shaped(pair: &mut impl Pair) {
    let mut rng = SimRng::new(1991);
    // Node and kind of every payload pushed so far, by payload.
    let mut kinds = Vec::new();
    for n in 0..NODES {
        let at = SimTime::from_micros(u64::from(n % 4) * 300);
        emit(pair, &mut kinds, at, EXTERNAL, (n, Kind::Tick));
        emit(pair, &mut kinds, at, EXTERNAL, (n, Kind::Sample));
    }
    for _ in 0..4 {
        let at = SimTime::from_secs(1) + SimDuration::from_nanos(rng.below(1_000_000_000));
        emit(pair, &mut kinds, at, EXTERNAL, (0, Kind::Fault));
    }
    let (mut popped, mut bursts) = (0, 0);
    while let Some((now, payload)) = pair.pop() {
        popped += 1;
        let (node, kind) = kinds[payload];
        let packets = match kind {
            _ if popped > POPS => 0,
            Kind::Tick | Kind::Sample => {
                let period = match kind {
                    Kind::Tick => SimDuration::from_micros(1_200),
                    _ => SimDuration::from_millis(5),
                };
                emit(pair, &mut kinds, now + period, node, (node, kind));
                1
            }
            Kind::Packet => u32::from(rng.chance(0.45)),
            Kind::Fault => {
                bursts += 1;
                NODES
            }
        };
        for _ in 0..packets {
            let at = now + SimDuration::from_nanos(rng.range(1_000, 50_001));
            let to = rng.below(u64::from(NODES)) as u32;
            emit(pair, &mut kinds, at, node, (to, Kind::Packet));
        }
    }
    assert!(popped > POPS, "the run drained early: {popped} pops");
    assert_eq!(bursts, 4, "every fault fires before the drain");
}

#[test]
fn fifo_matches_reference_on_a_simulator_shaped_population() {
    simulator_shaped(&mut Fifo::default());
}

#[test]
fn keyed_matches_reference_on_a_simulator_shaped_population() {
    simulator_shaped(&mut Stamped {
        queue: KeyedHeap::keyed(),
        reference: BinaryHeap::new(),
        seqs: vec![0; NODES as usize + 1],
    });
}

/// Pops one event per script entry and pushes the entry's delays after
/// it, so the pending count drifts and the free list fills and drains;
/// returns what was popped.
fn churn(
    q: &mut KeyedHeap<usize>,
    script: &[Vec<u64>],
    payload: &mut usize,
) -> Vec<(SimTime, usize)> {
    let mut popped = Vec::new();
    for delays in script {
        let (t, e) = q.pop().expect("the queue never drains");
        popped.push((t, e));
        for &d in delays {
            q.push(t + SimDuration::from_nanos(d), *payload);
            *payload += 1;
        }
    }
    popped
}

/// A clone taken mid-churn — slab slots reused many times over, some on
/// the free list — pops exactly what the original pops, to the last entry.
#[test]
fn a_clone_taken_mid_churn_pops_identically() {
    let mut rng = SimRng::new(2718);
    let mut script = |n: usize| -> Vec<Vec<u64>> {
        (0..n)
            .map(|_| (0..rng.below(3)).map(|_| rng.below(2_000_000)).collect())
            .collect()
    };
    let (warm, rest) = (script(20_000), script(20_000));
    let mut q = KeyedHeap::new();
    for i in 0..2_000 {
        q.push(SimTime::from_nanos(i as u64 * 997 % 2_000_000), i);
    }
    let mut payload = 2_000;
    churn(&mut q, &warm, &mut payload);
    let mut fork = q.clone();
    let mut fork_payload = payload;
    assert_eq!(
        churn(&mut q, &rest, &mut payload),
        churn(&mut fork, &rest, &mut fork_payload)
    );
    let drain = |q: &mut KeyedHeap<usize>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
    assert_eq!(drain(&mut q), drain(&mut fork));
}

//! Conservative parallel (sharded) event execution.
//!
//! The classic [`Simulator`](crate::Simulator) drives one world through one
//! queue. At the scale tier (1024 switches) the event loop itself becomes
//! the bottleneck, so this module partitions the world's *nodes* across
//! shards and runs the shards on real threads, synchronized by the oldest
//! trick in conservative parallel discrete-event simulation: a lookahead
//! window. If every cross-node event is scheduled at least `window` after
//! its cause (for a network simulation, the minimum link latency plus the
//! minimum serialization time), then events in `[T, T + window)` at one
//! shard cannot affect any other shard inside the same window — each shard
//! may process its window without communicating, and cross-shard events are
//! exchanged at the barrier between windows.
//!
//! # Determinism
//!
//! The executor is bit-for-bit deterministic **and partition-independent**:
//! the same world produces the same per-node event history at 1, 2 or 8
//! shards. Three mechanisms combine to guarantee that:
//!
//! - Every event carries a canonical stamp `(time, src, seq)` — the dense
//!   id of the node whose handler emitted it and a per-node emission
//!   counter (externally scheduled events use [`EXTERNAL_SOURCE`] and a
//!   driver-wide counter). Shard queues pop by that total order, so the
//!   interleaving inside a shard never depends on insertion order, and
//!   therefore not on which nodes happen to share the shard.
//! - Cross-shard mailboxes feed the same ordered queues, so exchange
//!   timing (which *is* thread-racy) cannot reorder anything.
//! - Reads of another node's latched state go through a [`Mirror`]
//!   snapshot refreshed at every window barrier — at *every* shard count,
//!   including one — so observation latency is a property of the window
//!   grid, not of the partitioning.
//!
//! The window grid itself is canonical: window base is the global next
//! event time rounded down to a multiple of `window`, clamped by the
//! caller's deadline.
//!
//! # One rendezvous per window
//!
//! A threaded round costs a single barrier. A shard runs its window, then
//! moves what it staged for shard *d* into mailbox slot `(me, d)`, its
//! mirror slice into mirror slot `me`, and `next = min(own queue head,
//! earliest time staged for anyone)` into the buffer set selected by the
//! window's parity. After the barrier every shard drains the slots
//! addressed to it, latches every mirror, and computes the same next
//! window from the same `next` values, while the next window writes the
//! *other* set: nobody writes set `w & 1` again before passing barrier
//! `w + 1`, which every reader of window `w`'s buffers attends only after
//! reading them. DESIGN.md ("sim kernel at scale") has the full argument.
//!
//! # World contract
//!
//! [`ShardWorld::handle_sharded`] may emit events for the node it is
//! handling at any time `>= now`, but events for *other* nodes must be at
//! least `window` in the future (violations panic). State shared between
//! nodes must be either owned per-node, replicated deterministically
//! (e.g. fault events broadcast to every shard with identical stamps), or
//! read through the latched mirror. At every window boundary the executor
//! calls `export_mirror` once and then `apply_mirror` once per shard.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as MemOrder};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::calendar::CalendarQueue;
use crate::time::{SimDuration, SimTime};

/// Stamp source for events scheduled from outside the event loop.
pub const EXTERNAL_SOURCE: u32 = u32::MAX;

/// Buckets in the per-window wall histograms of [`ShardTelemetry`].
const TELEMETRY_BUCKETS: usize = 32;

/// Per-shard execution telemetry, accumulated while the loop runs.
///
/// Opt-in via [`ShardedSimulator::enable_telemetry`]; when disabled the
/// loop takes no wall-clock timestamps at all. Wall time is measurement
/// only — simulation behavior is a pure function of virtual time, so
/// enabling telemetry cannot perturb determinism (the ring tests assert
/// it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Events this shard's worker processed.
    pub events: u64,
    /// Lookahead windows the shard participated in.
    pub windows: u64,
    /// Windows in which this shard processed at least one event — the
    /// utilization numerator (`busy_windows / windows`): a shard that
    /// mostly idles through windows is along for the barrier ride.
    pub busy_windows: u64,
    /// Wall time spent on windows: draining the mailbox and latching the
    /// mirrors, `run_window`, and the window's publish step.
    pub work_ns: u64,
    /// Wall time blocked on the round barrier (always zero on the
    /// thread-free single-shard path).
    pub barrier_wait_ns: u64,
    /// Cross-shard events this shard staged into other shards' mailboxes.
    pub mailbox_out: u64,
    /// Cross-shard events this shard drained from its own mailbox.
    pub mailbox_in: u64,
    /// Per-window barrier waits, one sample per window: bucket `i` counts
    /// waits of `2^i ns <= d < 2^(i+1) ns` (bucket 0 also absorbs zero,
    /// the last bucket everything longer).
    pub barrier_wait_buckets: [u64; TELEMETRY_BUCKETS],
    /// Per-window work, bucketed like `barrier_wait_buckets`.
    pub work_buckets: [u64; TELEMETRY_BUCKETS],
}

/// The power-of-two bucket of a wall duration.
fn bucket_of(ns: u64) -> usize {
    (ns.max(1).ilog2() as usize).min(TELEMETRY_BUCKETS - 1)
}

/// The nearest rank of the `q`-quantile (`q` in 0.0..=1.0) among `count`
/// sorted samples: the 1-based position of the smallest sample with at
/// least `⌈q·count⌉` samples at or below it. Always in `1..=count` for
/// `count >= 1`: `q` outside `[0, 1]` clamps, and `NaN` reads as 1.0 (the
/// top) instead of aliasing to the minimum through float-to-int
/// saturation.
pub fn nearest_rank(q: f64, count: u64) -> u64 {
    let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
    // The product can round up past an exact rank (0.57 * 100 is
    // 57.000…01 in f64), hence the clamp from above as well.
    ((q * count as f64).ceil() as u64).clamp(1, count.max(1))
}

/// The `q`-quantile (by [`nearest_rank`]) of the samples in
/// [`ShardTelemetry`] bucket arrays, summed elementwise — pass one array
/// for a shard's own distribution, every shard's for the kernel's. The
/// answer is the containing bucket's upper edge, `2^(i+1) - 1` ns: an
/// upper bound on the quantile, except in the last bucket, which also
/// holds everything longer. No samples answers zero.
pub fn bucket_quantile<'a>(
    buckets: impl IntoIterator<Item = &'a [u64; TELEMETRY_BUCKETS]>,
    q: f64,
) -> Duration {
    let mut sum = [0u64; TELEMETRY_BUCKETS];
    for shard in buckets {
        for (total, n) in sum.iter_mut().zip(shard) {
            *total += n;
        }
    }
    let count: u64 = sum.iter().sum();
    if count == 0 {
        return Duration::ZERO;
    }
    let rank = nearest_rank(q, count);
    let mut seen = 0;
    let top = sum.iter().position(|&n| {
        seen += n;
        seen >= rank
    });
    let i = top.expect("rank <= count, so some bucket reaches it");
    Duration::from_nanos((1u64 << (i + 1)) - 1)
}

impl ShardTelemetry {
    fn note_window(&mut self, events: u64, work: Duration) {
        let ns = work.as_nanos() as u64;
        self.windows += 1;
        self.events += events;
        if events > 0 {
            self.busy_windows += 1;
        }
        self.work_ns += ns;
        self.work_buckets[bucket_of(ns)] += 1;
    }

    fn note_wait(&mut self, wait: Duration) {
        let ns = wait.as_nanos() as u64;
        self.barrier_wait_ns += ns;
        self.barrier_wait_buckets[bucket_of(ns)] += 1;
    }

    /// Fraction of windows in which the shard had any event to process.
    pub fn utilization(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.busy_windows as f64 / self.windows as f64
    }
}

/// A cross-shard event in flight with its canonical stamp; the tie-break
/// `(src, seq)` is the key of the destination's queue.
struct Stamped<E> {
    time: SimTime,
    key: (u32, u64),
    event: E,
}

/// A model that can be partitioned across shards.
///
/// Each shard holds one complete instance of the world; the executor
/// delivers a node's events only to the shard that owns the node, so a
/// shard's instance is authoritative for its own nodes and a latched
/// replica for everyone else's.
pub trait ShardWorld: Send {
    /// The event payload type.
    type Event: Send;
    /// The latched cross-shard state snapshot exchanged at every barrier.
    type Mirror: Default + Send;

    /// The dense id of the node an event is addressed to. Must be a pure
    /// function of the event (it keys both routing and the canonical
    /// stamp, so it has to agree across shards).
    fn node_of(&self, event: &Self::Event) -> u32;

    /// Processes one event at `now`, pushing follow-up events into `out`.
    fn handle_sharded(
        &mut self,
        now: SimTime,
        event: Self::Event,
        out: &mut Vec<(SimTime, Self::Event)>,
    );

    /// Writes this shard's authoritative slice of the latched state into
    /// `into`, replacing what it holds (some earlier export of this
    /// shard, kept for its storage).
    fn export_mirror(&self, into: &mut Self::Mirror);

    /// Folds a shard's export (possibly this shard's own) into the local
    /// latched view. Exports cover disjoint nodes, and the executor applies
    /// them in no particular order.
    fn apply_mirror(&mut self, from: &Self::Mirror);
}

struct Shard<W: ShardWorld> {
    world: W,
    queue: CalendarQueue<W::Event, (u32, u64)>,
    /// Per-node emission counters; only the owner shard ever advances a
    /// node's counter, so counters stay canonical under any partitioning.
    seqs: Vec<u64>,
    /// Scratch buffer handed to `handle_sharded`.
    emitted: Vec<(SimTime, W::Event)>,
    /// Cross-shard emissions staged per destination during a window.
    staged: Vec<Vec<Stamped<W::Event>>>,
    /// Earliest time staged for any other shard in the current window.
    staged_min_ns: u64,
    processed: u64,
    /// `Some` once telemetry is enabled; the loop timestamps nothing
    /// while this is `None`.
    telemetry: Option<ShardTelemetry>,
}

impl<W: ShardWorld> Shard<W> {
    fn peek_ns(&self) -> u64 {
        self.queue.peek_time().map_or(u64::MAX, SimTime::as_nanos)
    }

    /// Processes every pending event with `time < end` in canonical stamp
    /// order; same-shard emissions join the live queue, cross-shard ones
    /// are staged for the barrier exchange.
    fn run_window(&mut self, owner: &[u32], me: u32, end: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t < end) {
            let (time, event) = self.queue.pop().expect("peeked");
            let node = self.world.node_of(&event) as usize;
            self.emitted.clear();
            self.world.handle_sharded(time, event, &mut self.emitted);
            self.processed += 1;
            for (at, ev) in self.emitted.drain(..) {
                debug_assert!(at >= time, "emission into the past");
                self.seqs[node] += 1;
                let key = (node as u32, self.seqs[node]);
                let dst = owner[self.world.node_of(&ev) as usize];
                if dst == me {
                    self.queue.push_keyed(at, key, ev);
                } else {
                    assert!(
                        at >= end,
                        "lookahead violation: cross-shard event at {at} inside window ending {end}"
                    );
                    self.staged_min_ns = self.staged_min_ns.min(at.as_nanos());
                    self.staged[dst as usize].push(Stamped {
                        time: at,
                        key,
                        event: ev,
                    });
                }
            }
        }
    }
}

/// Rendezvous polls before a waiter starts yielding its time slice, and
/// yields before it parks. With a core per shard the straggler is usually
/// a window's work (~1 µs) behind, so the spin catches most rounds; with
/// more shards than cores the spin is a bounded loss, the yields hand the
/// core to a shard that has not arrived yet, and parking guarantees
/// progress however the scheduler treats `yield_now`.
///
/// The spin stays short because it is what an oversubscribed waiter burns
/// per window while its straggler is descheduled (two 2-shard runs at once
/// on 2 cores: 6x slower at 4 096 polls, 24x at 16 384). The yield phase is
/// long (~1 ms when nothing else wants the core, a `yield_now` costing
/// ~0.25 µs) because parking is the expensive and the erratic exit: on
/// fat_tree-256 one wait in six outlasts the spin (a burst of events, a
/// route build), and a parked waiter pays a futex sleep and wake — on a
/// virtual CPU a halt and a reschedule by the host — whose cost swings
/// with whatever else the host is doing. Yielding costs a waiter with a
/// core of its own no more than spinning, and hands the core over at once
/// when something else wants it. DESIGN.md ("The barrier") has the sweep.
const SPIN_POLLS: u32 = 256;
const YIELD_POLLS: u32 = 4096;

/// A reusable sense-reversing barrier on atomics: the low bit of
/// `generation` is the sense, flipped by the last arrival of each round.
/// Waiters spin, then yield, then park on a condvar.
struct Rendezvous {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Waiters parked (or about to park) on `wake`; the releaser skips the
    /// lock entirely while this is zero.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Rendezvous {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all parties have called `wait` for this round.
    /// Everything any party wrote before its call is visible to every
    /// party after it returns: each arrival's `fetch_add` releases into
    /// the last arrival's (an acquire), whose generation store releases
    /// into every waiter's acquire load.
    fn wait(&self) {
        // The round cannot complete without this caller, so the generation
        // read here is the round's.
        let round = self.generation.load(MemOrder::Acquire);
        if self.arrived.fetch_add(1, MemOrder::AcqRel) + 1 == self.parties {
            // Nobody re-arrives before the generation moves.
            self.arrived.store(0, MemOrder::Relaxed);
            self.generation
                .store(round.wrapping_add(1), MemOrder::SeqCst);
            // SeqCst pairs with the sleeper's increment-then-recheck: either
            // we see the sleeper and notify under the lock it rechecks
            // under, or it sees the new generation and never sleeps.
            if self.sleepers.load(MemOrder::SeqCst) > 0 {
                let _guard = self.lock.lock().expect("rendezvous lock");
                self.wake.notify_all();
            }
            return;
        }
        let released = || self.generation.load(MemOrder::Acquire) != round;
        for _ in 0..SPIN_POLLS {
            if released() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELD_POLLS {
            if released() {
                return;
            }
            std::thread::yield_now();
        }
        self.sleepers.fetch_add(1, MemOrder::SeqCst);
        let mut guard = self.lock.lock().expect("rendezvous lock");
        while self.generation.load(MemOrder::SeqCst) == round {
            guard = self.wake.wait(guard).expect("rendezvous lock");
        }
        drop(guard);
        self.sleepers.fetch_sub(1, MemOrder::SeqCst);
    }
}

/// What one shard staged for one other shard in one window.
type Slot<E> = Mutex<Vec<Stamped<E>>>;

/// One of the two buffer sets a threaded run alternates between. Each
/// entry is written by its `src` alone before a barrier and read only
/// after it, so the locks are never contended between writer and reader.
struct Buffers<W: ShardWorld> {
    /// `slots[src][dst]`: what `src` staged for `dst`.
    slots: Vec<Vec<Slot<W::Event>>>,
    /// `src`'s mirror export (a mutex, not a reader-writer lock, because
    /// `Mirror` is only `Send`; readers start at their own entry so they
    /// rarely meet).
    mirrors: Vec<Mutex<W::Mirror>>,
    /// Earliest pending time `src` knows of.
    next: Vec<AtomicU64>,
}

/// What the workers of one threaded run share.
struct Exchange<'a, W: ShardWorld> {
    owner: &'a [u32],
    window_ns: u64,
    deadline: SimTime,
    /// End of the first window, computed before the workers start.
    first_end: SimTime,
    /// Window `w` writes `sets[w & 1]` and reads `sets[!w & 1]`.
    sets: [Buffers<W>; 2],
    barrier: Rendezvous,
    /// A panic inside a worker (a world handler, or the lookahead assert)
    /// must not strand the others at the barrier: the panicking thread
    /// records its window here, *still attends that window's barrier*, and
    /// only then unwinds; everyone else sees the mark after the same
    /// barrier and exits cleanly, so the join propagates the original
    /// panic. A window number, not a flag: a shard still leaving barrier
    /// `w` may read it after a faster one has panicked in window `w + 1`,
    /// and must then still attend barrier `w + 1`. `usize::MAX` = healthy.
    poisoned_at: AtomicUsize,
}

impl<W: ShardWorld> Buffers<W> {
    fn new(nsh: usize) -> Self {
        Buffers {
            slots: (0..nsh)
                .map(|_| (0..nsh).map(|_| Mutex::default()).collect())
                .collect(),
            mirrors: (0..nsh).map(|_| Mutex::default()).collect(),
            next: (0..nsh).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }
}

impl<W: ShardWorld> Shard<W> {
    /// Moves this window's staged events, mirror slice and `next` into
    /// `set`.
    fn publish(&mut self, me: usize, set: &Buffers<W>) {
        let mut staged_out = 0u64;
        for (staged, slot) in self.staged.iter_mut().zip(&set.slots[me]) {
            if !staged.is_empty() {
                staged_out += staged.len() as u64;
                // The slot was drained two windows ago; swapping hands its
                // spare capacity back to the stager.
                let mut slot = slot.lock().expect("slot lock");
                debug_assert!(slot.is_empty(), "slot reused before it was drained");
                std::mem::swap(staged, &mut *slot);
            }
        }
        self.world
            .export_mirror(&mut set.mirrors[me].lock().expect("mirror lock"));
        let next = self.peek_ns().min(self.staged_min_ns);
        self.staged_min_ns = u64::MAX;
        // Relaxed: written before and read after the rendezvous, which
        // orders them.
        set.next[me].store(next, MemOrder::Relaxed);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.mailbox_out += staged_out;
        }
    }

    /// Drains the slots addressed to this shard (arrival order is racy;
    /// the keyed queue restores canonical order) and latches every
    /// shard's mirror, from `set`.
    fn collect(&mut self, me: usize, set: &Buffers<W>) {
        let mut drained = 0u64;
        for (src, row) in set.slots.iter().enumerate() {
            if src == me {
                continue;
            }
            let mut slot = row[me].lock().expect("slot lock");
            drained += slot.len() as u64;
            for st in slot.drain(..) {
                self.queue.push_keyed(st.time, st.key, st.event);
            }
        }
        for mirror in set.mirrors[me..].iter().chain(&set.mirrors[..me]) {
            self.world
                .apply_mirror(&mirror.lock().expect("mirror lock"));
        }
        if let Some(tel) = self.telemetry.as_mut() {
            tel.mailbox_in += drained;
        }
    }

    /// One shard's side of a threaded run: window, publish, meet, collect.
    fn work(&mut self, me: usize, x: &Exchange<'_, W>) {
        let mut end = Some(x.first_end);
        // Windows completed so far; its parity selects the buffer set the
        // current window writes, the other one is what the last one wrote.
        let mut window = 0usize;
        let mut mark = self.telemetry.map(|_| Instant::now());
        loop {
            let cur = window & 1;
            let before = self.processed;
            let step = catch_unwind(AssertUnwindSafe(|| {
                if window > 0 {
                    self.collect(me, &x.sets[cur ^ 1]);
                }
                if let Some(end) = end {
                    self.run_window(x.owner, me as u32, end);
                    self.publish(me, &x.sets[cur]);
                }
            }));
            if end.is_none() {
                // Every shard computed the same `None` from the same
                // published values: nobody attends another barrier.
                return step.unwrap_or_else(|payload| resume_unwind(payload));
            }
            if step.is_err() {
                x.poisoned_at.fetch_min(window, MemOrder::SeqCst);
            }
            if let Some((tel, work)) = self.telemetry.as_mut().zip(lap(&mut mark)) {
                tel.note_window(self.processed - before, work);
            }
            x.barrier.wait();
            // Barrier stalls are accounted to the waiting shard: a shard
            // that arrives early is waiting on the round's straggler.
            if let Some((tel, wait)) = self.telemetry.as_mut().zip(lap(&mut mark)) {
                tel.note_wait(wait);
            }
            if x.poisoned_at.load(MemOrder::SeqCst) <= window {
                return step.unwrap_or_else(|payload| resume_unwind(payload));
            }
            end = x.sets[cur]
                .next
                .iter()
                .map(|n| n.load(MemOrder::Relaxed))
                .min()
                .filter(|&m| m != u64::MAX)
                .and_then(|m| next_end(m, x.window_ns, x.deadline));
            window += 1;
        }
    }
}

/// Time since `mark`, which moves to now; no clock is read while it is
/// `None` (telemetry off).
fn lap(mark: &mut Option<Instant>) -> Option<Duration> {
    let since = (*mark)?;
    let now = Instant::now();
    *mark = Some(now);
    Some(now - since)
}

/// Drives a partitioned [`ShardWorld`] with conservative lookahead
/// windows; one thread per shard when there is more than one.
pub struct ShardedSimulator<W: ShardWorld> {
    shards: Vec<Shard<W>>,
    /// Node dense id → owning shard.
    owner: Vec<u32>,
    /// Lookahead window in nanoseconds.
    window_ns: u64,
    now: SimTime,
    ext_seq: u64,
    scratch_mirror: W::Mirror,
}

impl<W: ShardWorld> ShardedSimulator<W> {
    /// Builds an executor over one world instance per shard.
    ///
    /// `owner[node]` names the shard whose instance is authoritative for
    /// `node`; `window` is the conservative lookahead bound (the minimum
    /// cross-node event delay the world guarantees).
    ///
    /// # Panics
    ///
    /// Panics if there are no worlds, an owner entry is out of range, or
    /// the window is zero.
    pub fn new(worlds: Vec<W>, owner: Vec<u32>, window: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard");
        assert!(window > SimDuration::ZERO, "zero lookahead window");
        let nsh = worlds.len() as u32;
        assert!(
            owner.iter().all(|&o| o < nsh),
            "owner entry out of shard range"
        );
        let nodes = owner.len();
        let shards = worlds
            .into_iter()
            .map(|world| Shard {
                world,
                queue: CalendarQueue::keyed(),
                seqs: vec![0; nodes],
                emitted: Vec::new(),
                staged: (0..nsh).map(|_| Vec::new()).collect(),
                staged_min_ns: u64::MAX,
                processed: 0,
                telemetry: None,
            })
            .collect();
        ShardedSimulator {
            shards,
            owner,
            window_ns: window.as_nanos().max(1),
            now: SimTime::ZERO,
            ext_seq: 0,
            scratch_mirror: W::Mirror::default(),
        }
    }

    /// Current simulation time (the last `run_until` deadline reached).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `node`.
    pub fn owner_of(&self, node: usize) -> usize {
        self.owner[node] as usize
    }

    /// Shard `i`'s world instance (authoritative only for its own nodes).
    pub fn world(&self, i: usize) -> &W {
        &self.shards[i].world
    }

    /// Shard `i`'s world instance, mutably (between runs only).
    pub fn world_mut(&mut self, i: usize) -> &mut W {
        &mut self.shards[i].world
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Turns on per-shard telemetry for all subsequent runs. Counters
    /// start from zero; calling again resets them.
    pub fn enable_telemetry(&mut self) {
        for shard in &mut self.shards {
            shard.telemetry = Some(ShardTelemetry::default());
        }
    }

    /// The per-shard telemetry, one entry per shard; `None` unless
    /// [`enable_telemetry`](ShardedSimulator::enable_telemetry) was
    /// called.
    pub fn telemetry(&self) -> Option<Vec<ShardTelemetry>> {
        self.shards[0].telemetry?;
        Some(
            self.shards
                .iter()
                .map(|s| s.telemetry.unwrap_or_default())
                .collect(),
        )
    }

    /// Schedules an event from outside the loop, routed to the owner of
    /// its target node.
    pub fn schedule_external(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        let node = self.shards[0].world.node_of(&event) as usize;
        let dst = self.owner[node] as usize;
        let seq = self.ext_seq;
        self.ext_seq += 1;
        self.shards[dst]
            .queue
            .push_keyed(at, (EXTERNAL_SOURCE, seq), event);
    }

    /// Schedules one logical event into *every* shard (replicated plant
    /// mutations such as fault injections). All copies carry the same
    /// stamp, so each shard orders the mutation identically.
    pub fn schedule_external_all(&mut self, at: SimTime, mut make: impl FnMut() -> W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.ext_seq;
        self.ext_seq += 1;
        for shard in &mut self.shards {
            shard.queue.push_keyed(at, (EXTERNAL_SOURCE, seq), make());
        }
    }

    /// The window `[base, end)` containing the globally earliest pending
    /// event, aligned to the window grid and clamped to process events at
    /// `deadline` inclusively. `None` once nothing is pending by the
    /// deadline.
    fn next_window_end(&self, deadline: SimTime) -> Option<SimTime> {
        let min = self.shards.iter().map(|s| s.peek_ns()).min()?;
        next_end(min, self.window_ns, deadline)
    }

    /// Runs until every event at or before `deadline` is processed, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.shards.len() == 1 {
            self.run_until_single(deadline);
        } else {
            self.run_until_threaded(deadline);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.now + span);
    }

    /// One shard: the same window/latch schedule, no threads. Kept
    /// separate so single-shard runs are the determinism baseline rather
    /// than a degenerate barrier dance.
    fn run_until_single(&mut self, deadline: SimTime) {
        while let Some(end) = self.next_window_end(deadline) {
            let shard = &mut self.shards[0];
            let t0 = shard.telemetry.map(|_| Instant::now());
            let before = shard.processed;
            shard.run_window(&self.owner, 0, end);
            debug_assert!(shard.staged.iter().all(Vec::is_empty));
            shard.world.export_mirror(&mut self.scratch_mirror);
            shard.world.apply_mirror(&self.scratch_mirror);
            if let Some(t0) = t0 {
                let delta = shard.processed - before;
                let tel = shard.telemetry.as_mut().expect("telemetry enabled");
                tel.note_window(delta, t0.elapsed());
                tel.note_wait(Duration::ZERO);
            }
        }
    }

    /// One thread per shard (the caller's is shard 0's), one rendezvous
    /// per window; see the module docs for the buffer-parity protocol.
    fn run_until_threaded(&mut self, deadline: SimTime) {
        // Nothing pending by the deadline: no threads, no barrier.
        let Some(first_end) = self.next_window_end(deadline) else {
            return;
        };
        let nsh = self.shards.len();
        let run = &Exchange {
            owner: &self.owner,
            window_ns: self.window_ns,
            deadline,
            first_end,
            sets: [Buffers::new(nsh), Buffers::new(nsh)],
            barrier: Rendezvous::new(nsh),
            poisoned_at: AtomicUsize::new(usize::MAX),
        };
        let (shard0, rest) = self.shards.split_first_mut().expect("at least one shard");
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, shard)| scope.spawn(move || shard.work(i + 1, run)))
                .collect();
            let mut outcome = catch_unwind(AssertUnwindSafe(|| shard0.work(0, run)));
            // Join explicitly so the *original* panic payload (not the
            // scope's generic one) reaches the caller.
            for handle in handles {
                outcome = outcome.and(handle.join());
            }
            if let Err(payload) = outcome {
                resume_unwind(payload);
            }
        });
    }
}

/// End of the grid-aligned window containing an event at `min_ns`, clamped
/// so events at the deadline itself are still processed; `None` if the
/// earliest event lies beyond the deadline.
fn next_end(min_ns: u64, window_ns: u64, deadline: SimTime) -> Option<SimTime> {
    if min_ns > deadline.as_nanos() {
        return None;
    }
    let base = min_ns / window_ns * window_ns;
    let end = (base + window_ns).min(deadline.as_nanos().saturating_add(1));
    Some(SimTime::from_nanos(end))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: usize = 12;
    const HOP: u64 = 1_000; // cross-node delay ≥ window

    /// Token passes between nodes; every hop also spawns a zero-delay
    /// local bookkeeping event. Each world logs what its *own* nodes saw.
    struct Ring {
        mine: Vec<bool>,
        log: Vec<(u64, u32, u64)>,
        counters: Vec<u64>,
        latched_sum: u64,
        mirror_counts: Vec<u64>,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Token { node: u32, hops: u64 },
        Local { node: u32 },
    }

    #[derive(Default)]
    struct Counts(Vec<(u32, u64)>);

    impl ShardWorld for Ring {
        type Event = Ev;
        type Mirror = Counts;

        fn node_of(&self, ev: &Ev) -> u32 {
            match *ev {
                Ev::Token { node, .. } | Ev::Local { node } => node,
            }
        }

        fn handle_sharded(&mut self, now: SimTime, ev: Ev, out: &mut Vec<(SimTime, Ev)>) {
            match ev {
                Ev::Token { node, hops } => {
                    // Read latched foreign state so staleness is part of
                    // what determinism must reproduce.
                    self.latched_sum = self
                        .latched_sum
                        .wrapping_add(self.mirror_counts.iter().sum::<u64>());
                    self.log.push((now.as_nanos(), node, hops));
                    self.counters[node as usize] += 1;
                    if hops > 0 {
                        let next = (node + 1) % NODES as u32;
                        let jitter = (hops * 37) % 5 * 100;
                        out.push((
                            now + SimDuration::from_nanos(HOP + jitter),
                            Ev::Token {
                                node: next,
                                hops: hops - 1,
                            },
                        ));
                        out.push((now, Ev::Local { node }));
                    }
                }
                Ev::Local { node } => {
                    self.counters[node as usize] += 10;
                }
            }
        }

        fn export_mirror(&self, into: &mut Counts) {
            into.0.clear();
            for (n, &c) in self.counters.iter().enumerate() {
                if self.mine[n] {
                    into.0.push((n as u32, c));
                }
            }
        }

        fn apply_mirror(&mut self, from: &Counts) {
            for &(n, c) in &from.0 {
                self.mirror_counts[n as usize] = c;
            }
        }
    }

    /// Merged token log, per-node counters, latched-read checksum.
    type RingHistory = (Vec<(u64, u32, u64)>, Vec<u64>, u64);

    fn run(nshards: usize) -> RingHistory {
        run_with_telemetry(nshards, false).0
    }

    fn run_with_telemetry(
        nshards: usize,
        telemetry: bool,
    ) -> (RingHistory, Option<Vec<ShardTelemetry>>, u64) {
        run_ring(nshards, telemetry, 200)
    }

    /// Four tokens of `hops` hops each around the ring, to completion.
    fn run_ring(
        nshards: usize,
        telemetry: bool,
        hops: u64,
    ) -> (RingHistory, Option<Vec<ShardTelemetry>>, u64) {
        let owner: Vec<u32> = (0..NODES).map(|n| (n * nshards / NODES) as u32).collect();
        let worlds: Vec<Ring> = (0..nshards as u32)
            .map(|k| Ring {
                mine: owner.iter().map(|&o| o == k).collect(),
                log: Vec::new(),
                counters: vec![0; NODES],
                latched_sum: 0,
                mirror_counts: vec![0; NODES],
            })
            .collect();
        let mut sim = ShardedSimulator::new(worlds, owner.clone(), SimDuration::from_nanos(HOP));
        if telemetry {
            sim.enable_telemetry();
        }
        for n in 0..4u32 {
            sim.schedule_external(
                SimTime::from_nanos(u64::from(n) * 250),
                Ev::Token {
                    node: n * 3 % NODES as u32,
                    hops,
                },
            );
        }
        // Long enough for every token to die (a hop is at most 1.4 µs).
        sim.run_until(SimTime::from_nanos((hops + 1) * 2 * HOP));
        // Merge the shard logs canonically: by (time, node), each node's
        // own order preserved.
        let mut log: Vec<(u64, u32, u64)> = sim
            .shards
            .iter()
            .flat_map(|s| s.world.log.iter().copied())
            .collect();
        log.sort_by_key(|&(t, n, _)| (t, n));
        let counters: Vec<u64> = (0..NODES)
            .map(|n| sim.shards[owner[n] as usize].world.counters[n])
            .collect();
        let latched: u64 = sim
            .shards
            .iter()
            .map(|s| s.world.latched_sum)
            .fold(0, u64::wrapping_add);
        let tel = sim.telemetry();
        let processed = sim.events_processed();
        ((log, counters, latched), tel, processed)
    }

    #[test]
    fn shard_counts_agree_bit_for_bit() {
        let base = run(1);
        for nshards in [2, 3, 4, 8] {
            let other = run(nshards);
            assert_eq!(base, other, "divergence at {nshards} shards");
        }
    }

    #[test]
    fn events_are_conserved() {
        let (log, counters, _) = run(4);
        // 4 tokens × 201 token deliveries each.
        assert_eq!(log.len(), 4 * 201);
        // Every delivery with hops > 0 also fired a local event (+10).
        let total: u64 = counters.iter().sum();
        assert_eq!(total, 4 * 201 + 10 * 4 * 200);
    }

    #[test]
    fn bucket_quantile_edge_cases() {
        let ns = |buckets: &[u64; TELEMETRY_BUCKETS], q| bucket_quantile([buckets], q).as_nanos();
        let empty = [0u64; TELEMETRY_BUCKETS];
        assert_eq!(ns(&empty, 0.5), 0);
        assert_eq!(ns(&empty, f64::NAN), 0);
        assert_eq!(bucket_quantile([], 0.5), Duration::ZERO);

        // One populated bucket: every quantile answers its top edge.
        let mut one = empty;
        one[bucket_of(700)] = 10; // [512, 1024)
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(ns(&one, q), 1023);
        }

        // Two buckets: q = 0 is the minimum's, q = 1 the maximum's, and
        // out-of-range or NaN q clamps to one of those.
        let mut two = empty;
        two[bucket_of(0)] = 1;
        two[bucket_of(1_000_000_000)] = 1;
        assert_eq!(ns(&two, 0.0), 1);
        assert!(ns(&two, 1.0) >= 1_000_000_000);
        assert_eq!(ns(&two, -3.0), ns(&two, 0.0));
        assert_eq!(ns(&two, 7.0), ns(&two, 1.0));
        assert_eq!(ns(&two, f64::NAN), ns(&two, 1.0));

        // Arrays sum before the rank is taken: 100 samples, one per
        // nanosecond count 1..=100, split across two shards.
        let (mut a, mut b) = (empty, empty);
        for i in 1..=100u64 {
            let shard = if i % 2 == 0 { &mut a } else { &mut b };
            shard[bucket_of(i)] += 1;
        }
        let both = |q| bucket_quantile([&a, &b], q).as_nanos();
        assert_eq!(both(0.5), 63, "rank 50 lies in [32, 64)");
        assert_eq!(both(1.0), 127);
        let qs: Vec<u128> = (0..=100).map(|i| both(f64::from(i) / 100.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "monotone in q: {qs:?}");
        // The last bucket's edge does not overflow.
        let mut last = empty;
        last[TELEMETRY_BUCKETS - 1] = 1;
        assert_eq!(ns(&last, 1.0), u128::from(u32::MAX));
    }

    #[test]
    fn telemetry_accounts_without_perturbing_the_run() {
        let base = run(4);
        for nshards in [1usize, 4] {
            let (result, tel, processed) = run_with_telemetry(nshards, true);
            assert_eq!(result, base, "telemetry changed the simulation");
            let tel = tel.expect("telemetry enabled");
            assert_eq!(tel.len(), nshards);
            for t in &tel {
                // One wait sample and one work sample per window, and the
                // buckets account for exactly the totals' windows.
                assert_eq!(t.barrier_wait_buckets.iter().sum::<u64>(), t.windows);
                assert_eq!(t.work_buckets.iter().sum::<u64>(), t.windows);
            }
            let events: u64 = tel.iter().map(|t| t.events).sum();
            assert_eq!(events, processed, "every processed event is counted");
            let mail_out: u64 = tel.iter().map(|t| t.mailbox_out).sum();
            let mail_in: u64 = tel.iter().map(|t| t.mailbox_in).sum();
            assert_eq!(mail_out, mail_in, "staged events all get drained");
            for t in &tel {
                assert!(t.windows > 0);
                assert!(t.busy_windows <= t.windows);
                assert!(t.utilization() > 0.0 && t.utilization() <= 1.0);
            }
            if nshards == 1 {
                assert_eq!(mail_out, 0, "single shard never crosses");
                assert_eq!(tel[0].barrier_wait_ns, 0, "no barriers on one shard");
                assert_eq!(tel[0].barrier_wait_buckets[0], tel[0].windows);
            } else {
                assert!(mail_out > 0, "the ring token must cross shards");
            }
        }
        // Telemetry stays off (and unallocated) unless requested.
        let (_, tel, _) = run_with_telemetry(2, false);
        assert!(tel.is_none());
    }

    #[test]
    fn deadline_is_inclusive_and_advances_clock() {
        let owner = vec![0u32];
        let worlds = vec![Ring {
            mine: vec![true; NODES],
            log: Vec::new(),
            counters: vec![0; NODES],
            latched_sum: 0,
            mirror_counts: vec![0; NODES],
        }];
        let mut sim = ShardedSimulator::new(worlds, owner, SimDuration::from_nanos(HOP));
        sim.schedule_external(SimTime::from_nanos(500), Ev::Token { node: 0, hops: 0 });
        sim.schedule_external(SimTime::from_nanos(501), Ev::Token { node: 0, hops: 0 });
        sim.run_until(SimTime::from_nanos(500));
        assert_eq!(sim.world(0).log.len(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(500));
        sim.run_until(SimTime::from_nanos(600));
        assert_eq!(sim.world(0).log.len(), 2);
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned (or panicked) within `budget`: a hung rendezvous must fail
    /// a test, not wedge the suite. A panic inside `f` is re-raised with
    /// its original payload.
    fn within<T: Send + 'static>(budget: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(budget) {
            Ok(value) => value,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("still running after {budget:?}")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                resume_unwind(worker.join().expect_err("sender dropped without sending"))
            }
        }
    }

    /// Nobody leaves a round before everybody has arrived, with more
    /// parties than cores (waits end in the spin or the yields, and in a
    /// park when a descheduled straggler outlasts them).
    #[test]
    fn rendezvous_releases_only_full_rounds() {
        const PARTIES: usize = 8;
        const ROUNDS: usize = 2_000;
        let barrier = Rendezvous::new(PARTIES);
        let arrivals = AtomicUsize::new(0);
        within(Duration::from_secs(60), move || {
            std::thread::scope(|scope| {
                for _ in 0..PARTIES {
                    scope.spawn(|| {
                        for round in 1..=ROUNDS {
                            arrivals.fetch_add(1, MemOrder::Relaxed);
                            barrier.wait();
                            let seen = arrivals.load(MemOrder::Relaxed);
                            // The fastest party can be one round ahead.
                            assert!(
                                (PARTIES * round..=PARTIES * (round + 1)).contains(&seen),
                                "round {round}: {seen} arrivals"
                            );
                        }
                    });
                }
            });
        });
    }

    /// The park phase, entered for certain: the last party holds back until
    /// it sees the other one registered as a sleeper, so every round is
    /// released through the lock-and-notify path.
    #[test]
    fn a_late_party_wakes_a_parked_one() {
        const ROUNDS: usize = 5;
        let barrier = Rendezvous::new(2);
        within(Duration::from_secs(60), move || {
            let left = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        left.fetch_add(1, MemOrder::SeqCst);
                    }
                });
                for round in 0..ROUNDS {
                    while barrier.sleepers.load(MemOrder::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    barrier.wait();
                    assert_eq!(barrier.generation.load(MemOrder::SeqCst), round + 1);
                    // Let the sleeper leave this round's wait (and so
                    // deregister) before looking for the next round's. A
                    // count, not `sleepers == 0`: a descheduled observer
                    // can miss that window and wait for it forever.
                    while left.load(MemOrder::SeqCst) <= round {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }

    /// More shards than cores, twice over: two concurrent 8-shard runs
    /// (the reference box has 2 cores; a parallel `cargo test` adds more
    /// load) must still get through ~7 000 windows each. Measured there:
    /// ~0.8 s, against ~0.9 s for the three-`std::sync::Barrier` loop this
    /// replaced; with the park phase removed (spin only) it does not
    /// finish in two minutes, because every waiter burns its whole time
    /// slice while the shard it waits for is descheduled.
    #[test]
    fn oversubscribed_shards_degrade_gracefully() {
        const HOPS: u64 = 6_000;
        let reference = run_ring(1, false, HOPS).0;
        let started = Instant::now();
        let runs: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(|| run_ring(8, false, HOPS).0))
            .collect();
        for run in runs {
            assert_eq!(run.join().expect("run completes"), reference);
        }
        let wall = started.elapsed();
        assert!(
            wall < Duration::from_secs(30),
            "two concurrent 8-shard runs took {wall:?} (budget 30 s)"
        );
    }

    /// A token that hops half-way round the ring (always to another shard
    /// at 2 and 8 shards) exactly one window later, so every hop is
    /// stamped exactly at its window's `end`.
    struct Relay {
        mine: Vec<bool>,
        /// (time, node, hops handled in earlier windows as latched).
        log: Vec<(u64, u32, u64)>,
        handled: Vec<u64>,
        latched: Vec<u64>,
    }

    const RELAY_NODES: u32 = 8;

    impl ShardWorld for Relay {
        type Event = u32;
        type Mirror = Counts;

        fn node_of(&self, node: &u32) -> u32 {
            *node
        }

        fn handle_sharded(&mut self, now: SimTime, node: u32, out: &mut Vec<(SimTime, u32)>) {
            self.log
                .push((now.as_nanos(), node, self.latched.iter().sum()));
            self.handled[node as usize] += 1;
            out.push((
                now + SimDuration::from_nanos(HOP),
                (node + RELAY_NODES / 2) % RELAY_NODES,
            ));
        }

        fn export_mirror(&self, into: &mut Counts) {
            into.0.clear();
            for (n, &c) in self.handled.iter().enumerate() {
                if self.mine[n] {
                    into.0.push((n as u32, c));
                }
            }
        }

        fn apply_mirror(&mut self, from: &Counts) {
            for &(n, c) in &from.0 {
                self.latched[n as usize] = c;
            }
        }
    }

    /// A cross-shard event stamped exactly at a window's `end` belongs to
    /// the next window, and one stamped exactly at the deadline is still
    /// processed by this run — at every shard count, in the same window
    /// (the latched count an event sees names its window).
    #[test]
    fn events_at_window_end_and_at_the_deadline_land_in_the_same_window() {
        let relay = |nshards: usize| {
            let owner: Vec<u32> = (0..RELAY_NODES)
                .map(|n| n * nshards as u32 / RELAY_NODES)
                .collect();
            let worlds = (0..nshards as u32)
                .map(|k| Relay {
                    mine: owner.iter().map(|&o| o == k).collect(),
                    log: Vec::new(),
                    handled: vec![0; RELAY_NODES as usize],
                    latched: vec![0; RELAY_NODES as usize],
                })
                .collect();
            let mut sim = ShardedSimulator::new(worlds, owner, SimDuration::from_nanos(HOP));
            // Token A rides the grid (every hop lands exactly on an `end`);
            // token B rides half a window off it.
            sim.schedule_external(SimTime::ZERO, 0);
            sim.schedule_external(SimTime::from_nanos(HOP / 2), 1);
            let logs = |sim: &ShardedSimulator<Relay>| {
                let mut log: Vec<_> = sim
                    .shards
                    .iter()
                    .flat_map(|s| s.world.log.iter().copied())
                    .collect();
                log.sort_unstable();
                log
            };
            // B's third hop is stamped exactly at this deadline.
            sim.run_until(SimTime::from_nanos(2 * HOP + HOP / 2));
            let first = logs(&sim);
            assert_eq!(sim.now(), SimTime::from_nanos(2 * HOP + HOP / 2));
            // A's hop at 3·HOP waited; this deadline is exactly on the grid.
            sim.run_until(SimTime::from_nanos(4 * HOP));
            (first, logs(&sim))
        };
        let (first, second) = relay(1);
        // Window k holds A at k·HOP and B at (k + ½)·HOP, and both see the
        // 2k hops of the windows before it.
        let hop = |k: u64, half: bool| {
            let node = (u64::from(half) + k * u64::from(RELAY_NODES / 2)) % u64::from(RELAY_NODES);
            (k * HOP + if half { HOP / 2 } else { 0 }, node as u32, 2 * k)
        };
        let expect = |windows: u64, last_half: bool| {
            let mut log: Vec<_> = (0..windows)
                .flat_map(|k| [hop(k, false), hop(k, true)])
                .collect();
            if !last_half {
                log.pop();
            }
            log
        };
        assert_eq!(first, expect(3, true));
        assert_eq!(second, expect(5, false));
        for nshards in [2, 8] {
            assert_eq!(
                relay(nshards),
                (first.clone(), second.clone()),
                "{nshards} shards"
            );
        }
    }

    /// Misbehaves when node `trip` handles its token: either an illegal
    /// zero-delay cross-node emission or a plain handler panic. Every
    /// other node keeps a token circulating so the other workers are
    /// mid-round when it happens.
    struct Bad {
        trip: u32,
        violate: bool,
    }

    impl ShardWorld for Bad {
        type Event = u32;
        type Mirror = ();

        fn node_of(&self, ev: &u32) -> u32 {
            *ev
        }

        fn handle_sharded(&mut self, now: SimTime, ev: u32, out: &mut Vec<(SimTime, u32)>) {
            if ev == self.trip && now >= SimTime::from_nanos(500) {
                if self.violate {
                    out.push((now, (ev + 1) % 8)); // zero-delay cross-node: illegal
                } else {
                    panic!("handler of node {ev} gave up");
                }
            }
            out.push((now + SimDuration::from_nanos(100), ev));
        }

        fn export_mirror(&self, _into: &mut ()) {}

        fn apply_mirror(&mut self, _from: &()) {}
    }

    /// The panic message of running `Bad` on `nshards` shards with node
    /// `trip` misbehaving.
    fn bad_run(nshards: u32, trip: u32, violate: bool) -> String {
        let payload = within(Duration::from_secs(20), move || {
            let worlds = (0..nshards).map(|_| Bad { trip, violate }).collect();
            let owner = (0..8).map(|n| n * nshards / 8).collect();
            let mut sim = ShardedSimulator::new(worlds, owner, SimDuration::from_nanos(100));
            for node in 0..8 {
                sim.schedule_external(SimTime::ZERO, node);
            }
            catch_unwind(AssertUnwindSafe(|| sim.run_until(SimTime::from_micros(5))))
                .expect_err("the run must panic")
        });
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(_) => panic!("payload is not the original message"),
        }
    }

    /// A worker that panics — in the caller's thread (node 0) or a spawned
    /// one (node 7) — surfaces its *own* payload through `run_until`, and
    /// the other workers leave the rendezvous instead of waiting forever.
    #[test]
    fn worker_panics_surface_the_original_payload_without_hanging() {
        for nshards in [1, 2, 8] {
            for trip in [0, 7] {
                let message = bad_run(nshards, trip, false);
                assert_eq!(message, format!("handler of node {trip} gave up"));
                // Node `trip`'s illegal emission targets `trip + 1`: legal
                // (same shard) unless the partition separates them.
                if nshards == 8 || (nshards == 2 && trip == 7) {
                    let message = bad_run(nshards, trip, true);
                    assert!(
                        message.starts_with("lookahead violation"),
                        "{nshards} shards, node {trip}: {message}"
                    );
                }
            }
        }
    }
}

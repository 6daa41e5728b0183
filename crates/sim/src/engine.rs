//! The simulation driver loop.

use crate::calendar::KeyedHeap;
use crate::time::{SimDuration, SimTime};

/// The model being simulated.
///
/// A world owns all simulated state (switches, links, hosts, ...) and reacts
/// to one event at a time. New events are scheduled through the
/// [`Scheduler`] handed to [`World::handle`]; the driver never lets the world
/// touch the queue directly, so the world cannot violate time ordering.
pub trait World {
    /// The event payload type delivered to this world.
    type Event;

    /// Processes one event occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Where a [`Scheduler`] deposits the events a handler emits: straight
/// into the driver's queue (the classic single-threaded loop), or into a
/// plain list for a caller that routes them itself (the sharded executor
/// stamps and distributes emissions across partition queues).
enum Sink<'a, E> {
    Queue(&'a mut KeyedHeap<E>),
    Collect(&'a mut Vec<(SimTime, E)>),
}

/// Handle used by a [`World`] to schedule follow-up events.
pub struct Scheduler<'a, E> {
    sink: Sink<'a, E>,
    now: SimTime,
}

impl<'a, E> Scheduler<'a, E> {
    /// A scheduler that records emissions as `(time, event)` pairs instead
    /// of queueing them, for drivers that order and route events
    /// themselves (see [`ShardedSimulator`](crate::ShardedSimulator)).
    pub fn collecting(now: SimTime, out: &'a mut Vec<(SimTime, E)>) -> Self {
        Scheduler {
            sink: Sink::Collect(out),
            now,
        }
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, at: SimTime, event: E) {
        match &mut self.sink {
            Sink::Queue(q) => q.push(at, event),
            Sink::Collect(v) => v.push((at, event)),
        }
    }

    /// Schedules `event` to fire `delay` after the current instant.
    ///
    /// # Panics
    ///
    /// Panics if `now + delay` overflows the clock.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        let at = not_before(self.now, self.now.checked_add(delay));
        self.push(at, event);
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past: delivering an event before the current
    /// instant would silently reorder history.
    pub fn at(&mut self, at: SimTime, event: E) {
        let at = not_before(self.now, Some(at));
        self.push(at, event);
    }
}

/// The one check every scheduling call passes: the instant exists (an
/// `after` whose delay overflows the clock has none; wrapping would land
/// it before `now`) and does not precede `now`.
fn not_before(now: SimTime, at: Option<SimTime>) -> SimTime {
    match at {
        Some(at) if at >= now => at,
        Some(at) => panic!("cannot schedule into the past: {at} < {now}"),
        None => panic!("cannot schedule into the past: the delay overflows the clock at {now}"),
    }
}

/// Drives a [`World`] through its event queue in virtual time.
///
/// A clone is an independent fork: same clock, same pending events in
/// the same order, its own copy of the world.
#[derive(Clone)]
pub struct Simulator<W: World> {
    world: W,
    queue: KeyedHeap<W::Event>,
    now: SimTime,
    events_processed: u64,
}

impl<W: World> Simulator<W> {
    /// Creates a simulator at t = 0 with an empty queue.
    pub fn new(world: W) -> Self {
        Simulator {
            world,
            queue: KeyedHeap::new(),
            now: SimTime::ZERO,
            events_processed: 0,
        }
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Returns a shared reference to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Returns an exclusive reference to the world.
    ///
    /// Mutating the world from outside the event loop is how experiments
    /// inject faults and inspect state between phases.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Returns the number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire `delay` after the current instant.
    ///
    /// # Panics
    ///
    /// Panics if `now + delay` overflows the clock.
    pub fn schedule_after(&mut self, delay: SimDuration, event: W::Event) {
        let at = not_before(self.now, self.now.checked_add(delay));
        self.queue.push(at, event);
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        let at = not_before(self.now, Some(at));
        self.queue.push(at, event);
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            time >= self.now,
            "event queue yielded an event from the past"
        );
        self.now = time;
        self.events_processed += 1;
        let mut sched = Scheduler {
            sink: Sink::Queue(&mut self.queue),
            now: self.now,
        };
        self.world.handle(time, event, &mut sched);
        true
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock would pass `deadline`; events at exactly
    /// `deadline` are processed. The clock is advanced to `deadline` even if
    /// the queue drains early, so repeated phase-by-phase runs stay aligned.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Runs at most `limit` further events; returns how many were processed.
    pub fn run_events(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;

        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now, ev));
            match ev {
                7 => sched.after(SimDuration::from_nanos(5), 8),
                9 => sched.after(SimDuration::MAX, 10),
                _ => {}
            }
        }
    }

    fn sim() -> Simulator<Recorder> {
        Simulator::new(Recorder { seen: Vec::new() })
    }

    #[test]
    fn events_fire_in_order_and_cascade() {
        let mut s = sim();
        s.schedule_at(SimTime::from_nanos(10), 7);
        s.schedule_at(SimTime::from_nanos(12), 1);
        s.run();
        assert_eq!(
            s.world().seen,
            vec![
                (SimTime::from_nanos(10), 7),
                (SimTime::from_nanos(12), 1),
                (SimTime::from_nanos(15), 8),
            ]
        );
        assert_eq!(s.events_processed(), 3);
    }

    #[test]
    fn run_until_is_inclusive_and_advances_clock() {
        let mut s = sim();
        s.schedule_at(SimTime::from_nanos(10), 1);
        s.schedule_at(SimTime::from_nanos(20), 2);
        s.schedule_at(SimTime::from_nanos(21), 3);
        s.run_until(SimTime::from_nanos(20));
        assert_eq!(s.world().seen.len(), 2);
        assert_eq!(s.now(), SimTime::from_nanos(20));
        s.run_until(SimTime::from_nanos(100));
        assert_eq!(s.world().seen.len(), 3);
        assert_eq!(s.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn run_events_limits_work() {
        let mut s = sim();
        for i in 0..10 {
            s.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        assert_eq!(s.run_events(4), 4);
        assert_eq!(s.world().seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s = sim();
        s.schedule_at(SimTime::from_nanos(10), 1);
        s.run();
        s.schedule_at(SimTime::from_nanos(5), 2);
    }

    /// A handler's delay that overflows the clock would wrap to an instant
    /// before `now`.
    #[test]
    #[should_panic(expected = "cannot schedule into the past: the delay overflows")]
    fn an_overflowing_handler_delay_panics() {
        let mut s = sim();
        s.schedule_at(SimTime::from_nanos(10), 9);
        s.run();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past: the delay overflows")]
    fn an_overflowing_schedule_after_panics() {
        let mut s = sim();
        s.run_until(SimTime::from_nanos(10));
        s.schedule_after(SimDuration::MAX, 1);
    }
}

//! The skeptic hysteresis algorithm.
//!
//! Two instances of this algorithm keep intermittent hardware from
//! thrashing the network (companion paper §6.5.5): the *status skeptic*
//! controls how long a port must be error-free before leaving `s.dead`,
//! and the *connectivity skeptic* controls how long good probe responses
//! must continue before a port is promoted to `s.switch.good`.
//!
//! The policy: every relapse (a transition back to the bad state) doubles
//! the required holding period up to a cap; time spent in a good state
//! pays the period back down toward the minimum. A healthy port therefore
//! re-enters service after one minimum period, while a flapping port is
//! quarantined for progressively longer — responsiveness *and* stability.

use autonet_sim::{SimDuration, SimTime};

/// Exponential-backoff hysteresis controller.
///
/// # Examples
///
/// ```
/// use autonet_core::Skeptic;
/// use autonet_sim::{SimDuration, SimTime};
///
/// let mut skeptic = Skeptic::new(
///     SimDuration::from_millis(100),
///     SimDuration::from_secs(60),
///     SimDuration::from_secs(10),
/// );
/// assert_eq!(skeptic.required_hold(), SimDuration::from_millis(100));
/// // Two relapses double the quarantine twice.
/// skeptic.on_bad(SimTime::from_secs(1));
/// skeptic.on_bad(SimTime::from_secs(2));
/// assert_eq!(skeptic.required_hold(), SimDuration::from_millis(400));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Skeptic {
    min_hold: SimDuration,
    max_hold: SimDuration,
    /// Good time needed to halve the current hold.
    decay_interval: SimDuration,
    current_hold: SimDuration,
    /// Start of the current good streak, if one is in progress.
    good_since: Option<SimTime>,
}

impl Skeptic {
    /// Creates a skeptic with the given bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min_hold` is zero or exceeds `max_hold`.
    pub fn new(min_hold: SimDuration, max_hold: SimDuration, decay_interval: SimDuration) -> Self {
        assert!(
            min_hold > SimDuration::ZERO,
            "minimum hold must be positive"
        );
        assert!(min_hold <= max_hold, "min hold exceeds max");
        Skeptic {
            min_hold,
            max_hold,
            decay_interval,
            current_hold: min_hold,
            good_since: None,
        }
    }

    /// The holding period currently required before re-admission.
    pub fn required_hold(&self) -> SimDuration {
        self.current_hold
    }

    /// Records a relapse at `now`: the port misbehaved (again). Doubles
    /// the required hold, capped at the maximum, after first crediting any
    /// good streak.
    pub fn on_bad(&mut self, now: SimTime) {
        self.credit_good_time(now);
        self.good_since = None;
        self.current_hold = (self.current_hold * 2).min(self.max_hold);
    }

    /// Records that the port entered a good state at `now` (it is in
    /// service and behaving).
    pub fn on_good_start(&mut self, now: SimTime) {
        if self.good_since.is_none() {
            self.good_since = Some(now);
        }
    }

    /// Applies the decay earned by good time up to `now`.
    fn credit_good_time(&mut self, now: SimTime) {
        let Some(since) = self.good_since else {
            return;
        };
        if self.decay_interval == SimDuration::ZERO {
            self.current_hold = self.min_hold;
            self.good_since = Some(now);
            return;
        }
        let good = now.saturating_since(since);
        let halvings = good / self.decay_interval;
        for _ in 0..halvings.min(64) {
            self.current_hold = (self.current_hold / 2).max(self.min_hold);
        }
        // Keep the remainder of the streak for future credit.
        self.good_since = Some(since + self.decay_interval.saturating_mul(halvings));
    }

    /// Reads the currently required hold after crediting good time.
    pub fn current_hold_at(&mut self, now: SimTime) -> SimDuration {
        self.credit_good_time(now);
        self.current_hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn skeptic() -> Skeptic {
        Skeptic::new(ms(100), ms(6400), SimDuration::from_secs(10))
    }

    #[test]
    fn starts_at_minimum() {
        assert_eq!(skeptic().required_hold(), ms(100));
    }

    #[test]
    fn relapses_double_up_to_cap() {
        let mut s = skeptic();
        let expected = [200u64, 400, 800, 1600, 3200, 6400, 6400, 6400];
        for (i, &e) in expected.iter().enumerate() {
            s.on_bad(at(i as u64));
            assert_eq!(s.required_hold(), ms(e), "after relapse {}", i + 1);
        }
    }

    #[test]
    fn good_time_pays_back_down() {
        let mut s = skeptic();
        for i in 0..4 {
            s.on_bad(at(i));
        }
        assert_eq!(s.required_hold(), ms(1600));
        s.on_good_start(at(1000));
        // 20 s of good time = two halvings.
        assert_eq!(s.current_hold_at(at(21_000)), ms(400));
        // Another 20 s reaches and clamps at the minimum.
        assert_eq!(s.current_hold_at(at(41_000)), ms(100));
        assert_eq!(s.current_hold_at(at(410_000)), ms(100));
    }

    #[test]
    fn relapse_after_good_streak_credits_first() {
        let mut s = skeptic();
        s.on_bad(at(0)); // 200
        s.on_bad(at(1)); // 400
        s.on_good_start(at(10));
        // 10s good halves to 200; the relapse then doubles to 400.
        s.on_bad(at(10_010));
        assert_eq!(s.required_hold(), ms(400));
    }

    #[test]
    fn zero_decay_interval_resets_instantly() {
        let mut s = Skeptic::new(ms(100), ms(6400), SimDuration::ZERO);
        s.on_bad(at(0));
        s.on_bad(at(1));
        s.on_good_start(at(2));
        assert_eq!(s.current_hold_at(at(3)), ms(100));
    }

    #[test]
    #[should_panic(expected = "minimum hold must be positive")]
    fn zero_min_rejected() {
        let _ = Skeptic::new(SimDuration::ZERO, ms(1), ms(1));
    }
}

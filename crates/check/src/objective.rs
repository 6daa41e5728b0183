//! Soft damage objectives and the Pareto archive of the worst-case
//! search.
//!
//! The hard oracles answer "was an invariant violated?"; the worst-case
//! search (`crate::worst_case`) instead *maximizes* graded damage. Its
//! objective space is a run's [`DamageReport`], with a total dominance
//! order per axis; this module is [`ParetoFront`], the archive of
//! mutually non-dominated candidates the search breeds from.
//!
//! Keeping a *front* instead of a single best matters because the axes
//! trade off: a clean bisection maximizes affected pairs but settles
//! fast, while a flapping cable near the root maximizes skeptic hold
//! with few pairs darkened. Mutating from every non-dominated corner
//! keeps the search from collapsing into one damage mode.

use autonet_trace::DamageReport;

/// The archive of mutually non-dominated candidates.
#[derive(Clone, Debug, Default)]
pub struct ParetoFront<T> {
    entries: Vec<(DamageReport, T)>,
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront {
            entries: Vec::new(),
        }
    }

    /// Offers a candidate: rejected if some archived point dominates it
    /// (or duplicates its objective), otherwise inserted, evicting every
    /// point it dominates. Returns whether it was admitted.
    pub fn offer(&mut self, v: DamageReport, item: T) -> bool {
        if self
            .entries
            .iter()
            .any(|(have, _)| have.dominates(&v) || *have == v)
        {
            return false;
        }
        self.entries.retain(|(have, _)| !v.dominates(have));
        self.entries.push((v, item));
        true
    }

    /// The archived candidates.
    pub fn entries(&self) -> &[(DamageReport, T)] {
        &self.entries
    }

    /// The champion: the entry maximal under [`DamageReport::rank`].
    pub fn champion(&self) -> Option<&(DamageReport, T)> {
        self.entries.iter().max_by_key(|(v, _)| v.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(blackout_ms: u64, pairs: usize, hold_ms: u64, unroutable_ms: u64) -> DamageReport {
        use autonet_sim::SimDuration;
        DamageReport {
            blackout: SimDuration::from_millis(blackout_ms),
            affected_pairs: pairs,
            skeptic_hold: SimDuration::from_millis(hold_ms),
            unroutable: SimDuration::from_millis(unroutable_ms),
        }
    }

    #[test]
    fn dominance_is_strict_and_partial() {
        assert!(v(10, 2, 0, 0).dominates(&v(5, 2, 0, 0)));
        assert!(!v(10, 2, 0, 0).dominates(&v(10, 2, 0, 0))); // equal
                                                             // Trade-off: neither dominates.
        assert!(!v(10, 1, 0, 0).dominates(&v(5, 3, 0, 0)));
        assert!(!v(5, 3, 0, 0).dominates(&v(10, 1, 0, 0)));
    }

    #[test]
    fn front_keeps_only_non_dominated() {
        let mut front = ParetoFront::new();
        assert!(front.offer(v(5, 1, 0, 0), "a"));
        assert!(front.offer(v(3, 4, 0, 0), "b")); // trade-off, kept
        assert!(!front.offer(v(2, 1, 0, 0), "c")); // dominated by a
        assert!(!front.offer(v(5, 1, 0, 0), "dup")); // duplicate point
        assert!(front.offer(v(6, 4, 0, 0), "d")); // dominates both
        assert_eq!(front.entries().len(), 1);
        assert_eq!(front.champion().unwrap().1, "d");
    }

    #[test]
    fn champion_ranks_blackout_first() {
        let mut front = ParetoFront::new();
        front.offer(v(5, 9, 9, 9), "wide");
        front.offer(v(6, 1, 0, 0), "dark");
        assert_eq!(front.champion().unwrap().1, "dark");
    }
}

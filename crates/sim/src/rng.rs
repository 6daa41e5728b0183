//! A self-contained deterministic random number generator.
//!
//! Experiments must reproduce bit-for-bit from a seed, across platforms and
//! across dependency upgrades, so the simulator carries its own generator:
//! xoshiro256++ seeded through SplitMix64 (the construction recommended by
//! the xoshiro authors). This is not a cryptographic generator and must not
//! be used for security purposes; it is a simulation workhorse.

/// A seeded xoshiro256++ pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of state are expanded from the seed with SplitMix64,
    /// which guarantees a non-zero state for every seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's method: reject the small biased region.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.f64() < p
    }

    /// Returns a uniformly distributed float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits give every representable step in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns an exponentially distributed duration with the given mean, in
    /// nanoseconds (used for Poisson packet arrivals).
    pub fn exp_nanos(&mut self, mean_nanos: f64) -> u64 {
        // Inverse-CDF sampling; clamp the uniform away from 0 so ln is finite.
        let u = self.f64().max(1e-18);
        (-mean_nanos * u.ln()).round() as u64
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.index(items.len())]
    }

    /// Derives an independent generator, e.g. one per simulated node.
    ///
    /// Streams derived with different `stream` values from the same parent
    /// state are statistically independent for simulation purposes.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(11);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn exp_nanos_has_requested_mean() {
        let mut rng = SimRng::new(21);
        let mean = 1_000_000.0;
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.exp_nanos(mean) as f64).sum();
        let measured = total / n as f64;
        assert!(
            (measured - mean).abs() / mean < 0.05,
            "measured mean {measured} vs requested {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut rng = SimRng::new(0);
        // SplitMix64 expansion guarantees a usable state even for seed 0.
        let v: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }
}

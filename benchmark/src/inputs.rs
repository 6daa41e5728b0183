//! Inputs generated from `--seed`. Topology sizes are constants of the
//! workloads; the seed picks simulation seeds, host attachment and the
//! order in which links are cut. The program under test receives only
//! these values, never the seed's meaning.

/// SplitMix64: the benchmark's own generator, so that its inputs do not
/// move when the simulator's `SimRng` does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is far below anything a
    /// benchmark input cares about).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// An independent value derived from `seed` for purpose `stream`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `0..n` in a seeded order (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(shuffled(56, 7), shuffled(56, 7));
        assert_ne!(shuffled(56, 7), shuffled(56, 8));
        let mut sorted = shuffled(56, 7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..56).collect::<Vec<_>>());
        assert_eq!(derive(1991, 3), derive(1991, 3));
        assert_ne!(derive(1991, 3), derive(1991, 4));
        assert_ne!(derive(1991, 3), derive(1992, 3));
    }
}

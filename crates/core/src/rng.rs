//! A tiny deterministic RNG (SplitMix64) used for data splits.
//!
//! `upskill-core` deliberately avoids a `rand` dependency; the only
//! randomness the library itself needs is the 90/10 train/test split of the
//! model-selection procedure, for which SplitMix64 is more than adequate
//! and keeps splits bit-reproducible across platforms.

/// SplitMix64 PRNG (Steele, Lea & Flood 2014). Not cryptographic.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..bound` (`bound > 0`), via rejection-free
    /// multiply-shift; bias is negligible for the bounds used here.
    pub(crate) fn next_below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SplitMix64::new(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let k = rng.next_below(5);
            assert!(k < 5);
            seen[k] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
    }
}

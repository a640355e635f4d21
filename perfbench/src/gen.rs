//! The seeded job generator.
//!
//! A workload's jobs come in passes. Every pass holds the same multiset
//! of jobs (each corpus program equally often); only the order differs,
//! and it comes from a Fisher–Yates shuffle driven by SplitMix64 over
//! the benchmark seed and the pass number. The same seed therefore
//! gives the same job sequence, and a different seed a different order
//! of the same multiset.

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so no index is favoured.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }
}

/// Shuffle `items` in place from `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The generator state for one pass.
pub fn pass_rng(seed: u64, pass: u64) -> SplitMix64 {
    let mut base = SplitMix64::new(seed ^ 0x5EED_0000_0000_0000);
    let mixed = base.next_u64() ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::new(mixed)
}

/// Pass `pass` of a workload whose per-pass multiset is `multiset`.
pub fn pass_order<T: Clone>(multiset: &[T], seed: u64, pass: u64) -> Vec<T> {
    let mut order = multiset.to_vec();
    shuffle(&mut order, &mut pass_rng(seed, pass));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, passes: u64) -> Vec<usize> {
        let multiset: Vec<usize> = (0..22).collect();
        (0..passes)
            .flat_map(|p| pass_order(&multiset, seed, p))
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_sequence() {
        assert_eq!(sequence(7, 5), sequence(7, 5));
    }

    #[test]
    fn other_seed_reorders_the_same_multiset() {
        let a = sequence(7, 5);
        let b = sequence(8, 5);
        assert_ne!(a, b, "a different seed must change the order");
        for pass in 0..5 {
            let mut pa = a[pass * 22..(pass + 1) * 22].to_vec();
            let mut pb = b[pass * 22..(pass + 1) * 22].to_vec();
            pa.sort_unstable();
            pb.sort_unstable();
            assert_eq!(pa, pb, "every pass holds the same multiset");
            assert_eq!(pa, (0..22).collect::<Vec<_>>());
        }
    }

    #[test]
    fn passes_differ_within_one_seed() {
        let s = sequence(3, 2);
        assert_ne!(s[..22], s[22..]);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}

//! Seeded input generation: everything a workload draws comes from here, so
//! equal `--seed` values give equal inputs and nothing else does.

/// SplitMix64, the same ten-line generator the topology synthesiser uses;
/// the benchmark needs reproducible uniform draws and no more.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Every ordered pair `(src, dst)`, `src != dst`, of indices below `n`, in a
/// seeded order: a prefix of any length is a set of distinct pairs.
pub fn pair_pool(n: usize, seed: u64) -> Vec<(u16, u16)> {
    let mut pairs: Vec<(u16, u16)> = (0..n as u16)
        .flat_map(|s| (0..n as u16).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect();
    SplitMix64::new(seed).shuffle(&mut pairs);
    pairs
}

/// Round-robin over a seeded permutation of `candidates`: every candidate
/// is drawn once before any repeats, so equal-length stretches of a run see
/// the same mix.
pub struct LinkChoice {
    order: Vec<usize>,
    next: usize,
}

impl LinkChoice {
    pub fn new(mut candidates: Vec<usize>, seed: u64) -> Self {
        SplitMix64::new(seed ^ 0x11CC).shuffle(&mut candidates);
        LinkChoice {
            order: candidates,
            next: 0,
        }
    }

    /// The next link to fail. Panics on an empty candidate list, which
    /// set-up rules out.
    pub fn draw(&mut self) -> usize {
        let l = self.order[self.next % self.order.len()];
        self.next += 1;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_pool_is_seeded_and_distinct() {
        let a = pair_pool(20, 71);
        let b = pair_pool(20, 71);
        let c = pair_pool(20, 72);
        assert_eq!(a, b, "same seed, same sequence");
        assert_ne!(a, c, "another seed, another sequence");
        assert_eq!(a.len(), 20 * 19);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "pairs are distinct");
        assert!(a.iter().all(|(s, d)| s != d));
    }

    #[test]
    fn link_choice_is_seeded_and_covers_candidates() {
        let cands: Vec<usize> = (100..117).collect();
        let draw = |seed| {
            let mut c = LinkChoice::new(cands.clone(), seed);
            (0..34).map(|_| c.draw()).collect::<Vec<_>>()
        };
        assert_eq!(draw(71), draw(71));
        assert_ne!(draw(71), draw(72));
        let seq = draw(71);
        let mut first: Vec<usize> = seq[..17].to_vec();
        first.sort_unstable();
        assert_eq!(first, cands, "one pass draws every candidate once");
        assert_eq!(seq[..17], seq[17..], "and then repeats the same order");
    }
}

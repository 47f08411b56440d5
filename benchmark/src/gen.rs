//! Seeded input generators: every input of every workload is a
//! function of `--seed` alone.

/// splitmix64: the one random stream of the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, decorrelated per `salt` so two generators
    /// of one run never share draws.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(mix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The splitmix64 finalizer: a stateless hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(s = 1) over `n` ranks: rank `r` (1-based) has weight `1 / r`.
/// Sampling is a binary search of the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Cumulative weights for `n >= 1` ranks.
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n.max(1))
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw a 0-based rank.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let total = self.cdf[self.cdf.len() - 1];
        let u = rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Share of the weight held by the `k` heaviest ranks.
    pub fn top_share(&self, k: usize) -> f64 {
        let k = k.clamp(1, self.cdf.len());
        self.cdf[k - 1] / self.cdf[self.cdf.len() - 1]
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates), so the heavy ranks
/// are spread over the path table instead of sitting at its start.
pub fn permutation(n: usize, rng: &mut SplitMix) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// Seeded Bernoulli loss: is packet `index` of pass `pass` dropped at
/// rate `rate`? A pure function, so the oracle can recount the drops.
pub fn lost(seed: u64, pass: u64, index: u64, rate: f64) -> bool {
    let h = mix(seed ^ mix(pass.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ index));
    ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seed_deterministic_and_heavy_headed() {
        let z = Zipf::new(100_000);
        let draw = |seed| {
            let mut rng = SplitMix::new(seed, 1);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let (a, b, c) = (draw(7), draw(7), draw(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Top-200 of 100k ranks hold ~49% of Zipf(1) traffic.
        assert!(
            (z.top_share(200) - 0.486).abs() < 0.01,
            "{}",
            z.top_share(200)
        );
        let head = a.iter().filter(|&&r| r < 200).count() as f64 / a.len() as f64;
        assert!((head - z.top_share(200)).abs() < 0.02, "{head}");
        assert!(a.iter().all(|&r| r < 100_000));
    }

    #[test]
    fn loss_is_seed_deterministic_and_near_its_rate() {
        let count = |seed, pass| (0..200_000).filter(|&i| lost(seed, pass, i, 0.01)).count();
        assert_eq!(count(3, 0), count(3, 0));
        assert_ne!(count(3, 0), count(3, 1));
        assert_ne!(count(3, 0), count(4, 0));
        let n = count(3, 0) as f64;
        assert!((n - 2000.0).abs() < 200.0, "{n}");
        assert!(!(0..1000).any(|i| lost(3, 0, i, 0.0)));
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(1000, &mut SplitMix::new(5, 2));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert_eq!(p, permutation(1000, &mut SplitMix::new(5, 2)));
        assert_ne!(p, permutation(1000, &mut SplitMix::new(6, 2)));
    }
}

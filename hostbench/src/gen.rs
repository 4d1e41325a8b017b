//! Seeded input generation.
//!
//! Every workload draws its op pool from `--seed` alone. Draws are
//! stratified: a parameter drawn for `n` pool entries takes one value from
//! each of `n` equal slices of its range, in seeded order. Different seeds
//! therefore give different inputs with the same overall mix, which keeps
//! the spread of the end-to-end figures across seeds small.

/// splitmix64: small, deterministic and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_b0a7_d00d_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }

    /// `n` stratified draws from `[lo, hi]`: one from each of `n` equal
    /// slices, in seeded order.
    pub fn stratified(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let width = (hi - lo) as f64;
        self.permutation(n)
            .into_iter()
            .map(|slice| {
                let x = (slice as f64 + self.unit()) / n as f64;
                lo + (x * width).round() as u64
            })
            .collect()
    }
}

//! Deterministic pseudo-random generation.
//!
//! The reproduction synthesizes model weights and datasets; everything must be
//! bit-for-bit reproducible across runs and platforms, so we use our own
//! xoshiro256** generator seeded through SplitMix64 instead of relying on a
//! crate whose stream might change between versions.

use crate::math;

/// A deterministic xoshiro256** pseudo-random generator.
///
/// ```
/// use sti_tensor::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_gaussian: Option<f32>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { state, spare_gaussian: None }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 high bits -> uniform float with full mantissa coverage.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Standard Gaussian sample via the Box–Muller transform.
    pub fn next_gaussian(&mut self) -> f32 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        // Avoid ln(0).
        let mut u1 = self.next_f32();
        if u1 < 1e-12 {
            u1 = 1e-12;
        }
        let u2 = self.next_f32();
        let r = (-2.0 * math::ln(u1)).sqrt();
        let (sin, cos) = math::sin_cos(2.0 * std::f32::consts::PI * u2);
        self.spare_gaussian = Some(r * sin);
        r * cos
    }

    /// Gaussian sample with the given mean and standard deviation.
    pub fn next_gaussian_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.next_gaussian()
    }

    /// Fills `out` with i.i.d. Gaussian samples.
    pub fn fill_gaussian(&mut self, out: &mut [f32], mean: f32, std: f32) {
        for x in out {
            *x = self.next_gaussian_with(mean, std);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = Rng::new(11);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Rng::new(13);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }
}

//! Seeded random tensor initialisation.
//!
//! Every stochastic component of the reproduction (weight init, dropout,
//! data generation, shuffling) goes through a seeded RNG so experiments are
//! exactly repeatable.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random number generator used across the workspace.
///
/// Thin wrapper over [`StdRng`] that adds the normal-distribution sampling
/// the allowed crate set lacks (Box–Muller transform instead of pulling in
/// `rand_distr`).
///
/// ```
/// use pelican_tensor::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.normal(), b.normal());
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
    /// Spare value from the last Box–Muller draw.
    cached_normal: Option<f32>,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            cached_normal: None,
        }
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer sample in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires n > 0");
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.cached_normal.take() {
            return v;
        }
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        for i in (1..values.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            values.swap(i, j);
        }
    }

    /// Draws an index from a discrete distribution given by `weights`
    /// (need not be normalised; non-positive total falls back to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "weighted_index() requires weights");
        let total: f32 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Access to the raw [`rand::Rng`] for callers that need other
    /// distributions.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

/// Weight-initialisation schemes for neural-network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// All zeros (biases).
    Zeros,
    /// All ones (batch-norm gains).
    Ones,
    /// Glorot/Xavier uniform: `U(-L, L)` with `L = sqrt(6 / (fan_in + fan_out))`.
    GlorotUniform,
    /// He normal: `N(0, sqrt(2 / fan_in))`, suited to ReLU stacks.
    HeNormal,
    /// Uniform in `[-0.05, 0.05]` (Keras' default `RandomUniform`).
    SmallUniform,
}

impl Init {
    /// Materialises a tensor of `shape` with fan sizes `(fan_in, fan_out)`.
    pub fn tensor(self, shape: Vec<usize>, fan: (usize, usize), rng: &mut SeededRng) -> Tensor {
        let len: usize = shape.iter().product();
        let data: Vec<f32> = match self {
            Init::Zeros => vec![0.0; len],
            Init::Ones => vec![1.0; len],
            Init::GlorotUniform => {
                let limit = (6.0 / (fan.0 + fan.1).max(1) as f32).sqrt();
                (0..len).map(|_| rng.uniform_range(-limit, limit)).collect()
            }
            Init::HeNormal => {
                let std = (2.0 / fan.0.max(1) as f32).sqrt();
                (0..len).map(|_| rng.normal_with(0.0, std)).collect()
            }
            Init::SmallUniform => (0..len).map(|_| rng.uniform_range(-0.05, 0.05)).collect(),
        };
        Tensor::from_vec(shape, data).expect("init length matches shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(8);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SeededRng::new(123);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SeededRng::new(1);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut rng = SeededRng::new(5);
        for _ in 0..200 {
            let i = rng.weighted_index(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_index_degenerate_total_is_uniform() {
        let mut rng = SeededRng::new(5);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[rng.weighted_index(&[0.0, 0.0, 0.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn glorot_respects_limit() {
        let mut rng = SeededRng::new(2);
        let t = Init::GlorotUniform.tensor(vec![64, 64], (64, 64), &mut rng);
        let limit = (6.0f32 / 128.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= limit));
        // Not degenerate.
        assert!(t.as_slice().iter().any(|v| v.abs() > limit * 0.5));
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let mut rng = SeededRng::new(3);
        let t = Init::HeNormal.tensor(vec![10_000], (200, 1), &mut rng);
        let var: f32 = t.as_slice().iter().map(|v| v * v).sum::<f32>() / t.len() as f32;
        assert!((var - 0.01).abs() < 0.003, "var {var}");
    }

    #[test]
    fn zeros_and_ones() {
        let mut rng = SeededRng::new(0);
        assert!(Init::Zeros
            .tensor(vec![4], (1, 1), &mut rng)
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
        assert!(Init::Ones
            .tensor(vec![4], (1, 1), &mut rng)
            .as_slice()
            .iter()
            .all(|&v| v == 1.0));
    }
}

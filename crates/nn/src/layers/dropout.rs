//! Inverted dropout.

use crate::{Layer, Mode};
use pelican_tensor::{SeededRng, Tensor};

/// Inverted dropout: during training each element is zeroed with
/// probability `rate` and survivors are scaled by `1/(1-rate)`, so
/// evaluation mode is a pure identity.
///
/// The paper sets `rate = 0.6` in every block (Table I) to fight the
/// overfitting caused by small training sets (Section V-G).
///
/// ```
/// use pelican_nn::{Dropout, Layer, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut d = Dropout::new(0.5, 42);
/// let x = Tensor::ones(vec![4, 4]);
/// // Identity at evaluation time.
/// assert_eq!(d.forward(&x, Mode::Eval), x);
/// ```
#[derive(Debug)]
pub struct Dropout {
    rate: f32,
    rng: SeededRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with the given drop probability and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        Self {
            rate,
            rng: SeededRng::new(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval || self.rate == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        // One uniform per element in row-major order, as ever. The mask is
        // `(u >= rate) · scale`: 0.0 or `scale`, the bits a branch would
        // pick, without a branch that mispredicts on about half the
        // elements. Mask and output are written in the same pass.
        let x = input.as_slice();
        let mut mask = vec![0.0f32; x.len()];
        let mut out = vec![0.0f32; x.len()];
        for ((m, o), &v) in mask.iter_mut().zip(&mut out).zip(x) {
            *m = (self.rng.uniform() >= self.rate) as u32 as f32 * scale;
            *o = v * *m;
        }
        let shape = input.shape().to_vec();
        self.mask = Some(Tensor::from_vec(shape.clone(), mask).expect("mask shape"));
        Tensor::from_vec(shape, out).expect("mask shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_out.zip_map(mask, |g, m| g * m).expect("mask shape"),
            None => grad_out.clone(),
        }
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn param_layer_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.6, 1);
        let x = Tensor::ones(vec![8, 8]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn rate_zero_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::ones(vec![8, 8]);
        assert_eq!(d.forward(&x, Mode::Train), x);
    }

    #[test]
    fn train_mode_zeros_roughly_rate_fraction() {
        let mut d = Dropout::new(0.6, 2);
        let x = Tensor::ones(vec![100, 100]);
        let y = d.forward(&x, Mode::Train);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / y.len() as f32;
        assert!((frac - 0.6).abs() < 0.03, "dropped fraction {frac}");
        // Survivors are scaled to preserve the expectation.
        let survivor = y.as_slice().iter().find(|&&v| v != 0.0).unwrap();
        assert!((survivor - 1.0 / 0.4).abs() < 1e-5);
        // E[y] ≈ E[x].
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(vec![10, 10]);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::ones(vec![10, 10]));
        // Gradient flows exactly where the forward pass let values through.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rejects_rate_one() {
        Dropout::new(1.0, 0);
    }

    // At rate > 0 the internal RNG advances every forward call, so the
    // finite-difference repeatability precondition only holds on the
    // rate-0 identity path; that still verifies backward's mask plumbing
    // (mask = None ⇒ pass-through gradient).
    #[test]
    fn gradcheck_rate_zero() {
        crate::gradcheck::check_layer(Dropout::new(0.0, 7), &[4, 5], 11, 1e-3);
    }

    #[test]
    fn gradcheck_rate_zero_pooled() {
        crate::gradcheck::check_layer_pooled(|| Dropout::new(0.0, 7), &[4, 5], 11, 1e-3);
    }
}

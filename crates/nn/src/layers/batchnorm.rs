//! Batch normalisation.

use crate::{Layer, Mode, Param};
use pelican_tensor::Tensor;

/// Per-channel batch normalisation over the batch (and time) axes.
///
/// The paper places BN before both the convolution and the GRU of every
/// block: "BN reduces the internal covariate shift during training by
/// scaling weights to unit norms … BN helps fine-tune the learning rate to
/// accelerate network training" (Section IV, item 1). In the residual block
/// the output of the *first* BN also feeds the shortcut.
///
/// Accepts `[batch, channels]` or `[batch, time, channels]` input and
/// normalises each channel over all batch×time positions. Training mode
/// uses batch statistics and updates exponential running statistics;
/// evaluation mode uses the running statistics.
///
/// ```
/// use pelican_nn::{BatchNorm, Layer, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut bn = BatchNorm::new(3);
/// let x = Tensor::from_vec(vec![2, 3], vec![0., 10., -5., 2., 30., 5.])?;
/// let y = bn.forward(&x, Mode::Train);
/// // Each column is standardised: mean ~0.
/// assert!(y.sum_axis0()?.as_slice().iter().all(|v| v.abs() < 1e-4));
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<Cache>,
}

#[derive(Debug)]
struct Cache {
    /// `[b·t, c]` normalised input.
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
    input_shape: Vec<usize>,
}

impl BatchNorm {
    /// Default exponential-moving-average momentum for running statistics.
    pub const DEFAULT_MOMENTUM: f32 = 0.9;
    /// Default variance epsilon.
    pub const DEFAULT_EPS: f32 = 1e-5;

    /// Creates a batch-norm layer over `channels` with default
    /// momentum/epsilon.
    pub fn new(channels: usize) -> Self {
        Self::with_options(channels, Self::DEFAULT_MOMENTUM, Self::DEFAULT_EPS)
    }

    /// Creates a batch-norm layer with explicit momentum and epsilon.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1` and `eps > 0`.
    pub fn with_options(channels: usize, momentum: f32, eps: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(eps > 0.0, "eps must be positive");
        Self {
            gamma: Param::new(Tensor::ones(vec![channels])),
            beta: Param::new(Tensor::zeros(vec![channels])),
            running_mean: Tensor::zeros(vec![channels]),
            running_var: Tensor::ones(vec![channels]),
            momentum,
            eps,
            cache: None,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// Running mean used in evaluation mode.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance used in evaluation mode.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm {
    /// Train mode makes three passes over the `[b·t, c]` input: the column
    /// sums for the mean, the squared deviations for the variance, and one
    /// that writes `xhat` and `y` together. Each keeps the operands and
    /// order of `mean_axis0` (sum, then `× 1/m`), `var_axis0` (sum of
    /// `d·d`, then `/ m`) and the per-element formulas, so every bit is as
    /// before. Eval mode is one pass with `√(var + eps)` taken once per
    /// channel.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let c = self.channels();
        assert!(
            matches!(input.shape(), [_, w] | [_, _, w] if *w == c),
            "batchnorm channel mismatch: {:?} for {c} channels",
            input.shape()
        );
        let x = input.as_slice();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        let mut y = vec![0.0f32; x.len()];

        match mode {
            Mode::Train => {
                let m = (x.len() / c).max(1) as f32;
                let mut mean = vec![0.0f32; c];
                for row in x.chunks_exact(c) {
                    for (s, &v) in mean.iter_mut().zip(row) {
                        *s += v;
                    }
                }
                let inv_m = 1.0 / m;
                mean.iter_mut().for_each(|s| *s *= inv_m);
                let mut var = vec![0.0f32; c];
                for row in x.chunks_exact(c) {
                    for ((o, &v), &mu) in var.iter_mut().zip(row).zip(&mean) {
                        let d = v - mu;
                        *o += d * d;
                    }
                }
                var.iter_mut().for_each(|v| *v /= m);
                let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();

                let mut xhat = vec![0.0f32; x.len()];
                for ((xrow, hrow), yrow) in x
                    .chunks_exact(c)
                    .zip(xhat.chunks_exact_mut(c))
                    .zip(y.chunks_exact_mut(c))
                {
                    for (((((&v, h), o), &mu), &is), (&g, &be)) in xrow
                        .iter()
                        .zip(hrow)
                        .zip(yrow)
                        .zip(&mean)
                        .zip(&inv_std)
                        .zip(gamma.iter().zip(beta))
                    {
                        *h = (v - mu) * is;
                        *o = *h * g + be;
                    }
                }

                // Update running statistics (biased batch var, matching the
                // normalisation used here; the distinction only matters for
                // tiny batches).
                let mom = self.momentum;
                for (r, &bm) in self.running_mean.as_mut_slice().iter_mut().zip(&mean) {
                    *r = mom * *r + (1.0 - mom) * bm;
                }
                for (r, &bv) in self.running_var.as_mut_slice().iter_mut().zip(&var) {
                    *r = mom * *r + (1.0 - mom) * bv;
                }
                self.cache = Some(Cache {
                    xhat,
                    inv_std,
                    input_shape: input.shape().to_vec(),
                });
            }
            Mode::Eval => {
                let sd: Vec<f32> = self
                    .running_var
                    .as_slice()
                    .iter()
                    .map(|var| (var + self.eps).sqrt())
                    .collect();
                let mu = self.running_mean.as_slice();
                for (xrow, yrow) in x.chunks_exact(c).zip(y.chunks_exact_mut(c)) {
                    for (((&v, o), (&mu, &sd)), (&g, &be)) in xrow
                        .iter()
                        .zip(yrow)
                        .zip(mu.iter().zip(&sd))
                        .zip(gamma.iter().zip(beta))
                    {
                        *o = (v - mu) / sd * g + be;
                    }
                }
                self.cache = None;
            }
        }
        Tensor::from_vec(input.shape().to_vec(), y).expect("bn output shape")
    }

    /// One reduction pass for `Σdy` and `Σdy·xhat`, then one `dx` pass with
    /// the per-channel factor `(gamma · inv_std) / m` hoisted: the value
    /// the old per-element `gamma · inv_std / m · (…)` formed first.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batchnorm backward requires a training-mode forward");
        let c = self.channels();
        let m = (cache.xhat.len() / c) as f32;
        let dy = grad_out.as_slice();
        assert_eq!(dy.len(), cache.xhat.len(), "bn grad length");

        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for (row, xrow) in dy.chunks_exact(c).zip(cache.xhat.chunks_exact(c)) {
            for (((s, sx), &d), &h) in sum_dy.iter_mut().zip(&mut sum_dy_xhat).zip(row).zip(xrow) {
                *s += d;
                *sx += d * h;
            }
        }

        // Parameter gradients.
        for (g, &s) in self.gamma.grad_mut(..).iter_mut().zip(&sum_dy_xhat) {
            *g += s;
        }
        for (g, &s) in self.beta.grad_mut(..).iter_mut().zip(&sum_dy) {
            *g += s;
        }

        // dx = (gamma * inv_std / m) * (m*dy - sum_dy - xhat * sum_dy_xhat)
        let k: Vec<f32> = self
            .gamma
            .value
            .as_slice()
            .iter()
            .zip(&cache.inv_std)
            .map(|(&g, &is)| g * is / m)
            .collect();
        let mut dx = vec![0.0f32; dy.len()];
        for ((dxrow, dyrow), xrow) in dx
            .chunks_exact_mut(c)
            .zip(dy.chunks_exact(c))
            .zip(cache.xhat.chunks_exact(c))
        {
            for ((((o, &d), &h), &k), (&s, &sx)) in dxrow
                .iter_mut()
                .zip(dyrow)
                .zip(xrow)
                .zip(&k)
                .zip(sum_dy.iter().zip(&sum_dy_xhat))
            {
                *o = k * (m * d - s - h * sx);
            }
        }
        Tensor::from_vec(cache.input_shape.clone(), dx).expect("bn grad shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn param_layer_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn train_output_is_standardised() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(vec![4, 2], vec![1., 10., 2., 20., 3., 30., 4., 40.]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        let mean = y.mean_axis0().unwrap();
        let var = y.var_axis0().unwrap();
        for &m in mean.as_slice() {
            assert!(m.abs() < 1e-5);
        }
        for &v in var.as_slice() {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gamma_beta_shift_and_scale() {
        let mut bn = BatchNorm::new(1);
        bn.gamma.value = Tensor::full(vec![1], 3.0);
        bn.beta.value = Tensor::full(vec![1], -1.0);
        let x = Tensor::from_vec(vec![2, 1], vec![0., 2.]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        // xhat = [-1, 1]; y = 3*xhat - 1 = [-4, 2].
        assert!((y.as_slice()[0] + 4.0).abs() < 1e-3);
        assert!((y.as_slice()[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm::new(1);
        let x = Tensor::from_vec(vec![4, 1], vec![10., 10., 10., 10.]).unwrap();
        // Warm up the running stats toward mean 10, var 0.
        for _ in 0..200 {
            bn.forward(&x, Mode::Train);
        }
        let y = bn.forward(&x, Mode::Eval);
        // (10 - ~10)/sqrt(~0+eps) ≈ 0.
        assert!(y.as_slice().iter().all(|v| v.abs() < 0.1), "{y:?}");
    }

    #[test]
    fn handles_rank3_per_channel() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(vec![2, 2, 2], vec![1., 0., 3., 0., 5., 0., 7., 0.]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 2, 2]);
        // Channel 1 is constant zero → normalised to 0.
        for i in 0..4 {
            assert!(y.as_slice()[i * 2 + 1].abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_batchnorm_rank2() {
        check_layer(BatchNorm::new(4), &[6, 4], 31, 3e-2);
    }

    #[test]
    fn gradcheck_batchnorm_rank3() {
        check_layer(BatchNorm::new(3), &[2, 4, 3], 33, 3e-2);
    }

    #[test]
    #[should_panic(expected = "training-mode forward")]
    fn backward_after_eval_panics() {
        let mut bn = BatchNorm::new(2);
        bn.forward(&Tensor::ones(vec![2, 2]), Mode::Eval);
        bn.backward(&Tensor::ones(vec![2, 2]));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_width_panics() {
        let mut bn = BatchNorm::new(3);
        bn.forward(&Tensor::ones(vec![2, 2]), Mode::Train);
    }
}

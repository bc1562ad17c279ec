//! Pooling layers: max pooling over time and global average pooling.

use super::btc;
use crate::{Layer, Mode};
use pelican_tensor::Tensor;

/// Non-overlapping max pooling over the time axis of `[batch, time,
/// channels]` input.
///
/// "This layer selects most active neurons based on the maximum
/// probabilities in nearby features to facilitate the next stage learning"
/// (Section IV, item 3). With the paper's sequence length of 1 the pool size
/// is 1 and the layer is an identity; the general implementation supports
/// any pool size dividing into the sequence (a ragged tail is truncated,
/// matching Keras' `MaxPooling1D` default).
///
/// ```
/// use pelican_nn::{Layer, MaxPool1d, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut pool = MaxPool1d::new(2);
/// let x = Tensor::from_vec(vec![1, 4, 1], vec![1., 5., 2., 3.])?;
/// assert_eq!(pool.forward(&x, Mode::Eval).as_slice(), &[5., 3.]);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug)]
pub struct MaxPool1d {
    pool: usize,
    /// Flat input index of each selected maximum, per output element;
    /// empty at `pool == 1`, where each window is its own element.
    argmax: Vec<usize>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool1d {
    /// Creates a pool of the given size (also the stride).
    ///
    /// # Panics
    ///
    /// Panics if `pool == 0`.
    pub fn new(pool: usize) -> Self {
        assert!(pool > 0, "pool size must be positive");
        Self {
            pool,
            argmax: Vec::new(),
            input_shape: None,
        }
    }
}

impl Layer for MaxPool1d {
    /// At `pool == 1` (the paper's sequence length) each window is one
    /// element, so the `>` scan from −∞ reduces to `v.max(−∞)`: the same
    /// value, with NaN mapped to −∞ as the scan maps it, in one pass.
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert!(
            t >= self.pool,
            "sequence length {t} shorter than pool size {}",
            self.pool
        );
        self.input_shape = Some(input.shape().to_vec());
        let t_out = t / self.pool;
        let x = input.as_slice();
        if self.pool == 1 {
            let out = x.iter().map(|v| v.max(f32::NEG_INFINITY)).collect();
            return Tensor::from_vec(vec![b, t_out, c], out).expect("pool out shape");
        }
        let mut out = vec![0.0f32; b * t_out * c];
        let mut argmax = vec![0usize; b * t_out * c];
        for bi in 0..b {
            for to in 0..t_out {
                for ci in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    // A window with nothing above −∞ (all NaN or −∞) keeps
                    // its first element, so its gradient stays inside it.
                    let mut best_idx = (bi * t + to * self.pool) * c + ci;
                    for p in 0..self.pool {
                        let ti = to * self.pool + p;
                        let idx = (bi * t + ti) * c + ci;
                        if x[idx] > best {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                    let o = (bi * t_out + to) * c + ci;
                    out[o] = best;
                    argmax[o] = best_idx;
                }
            }
        }
        self.argmax = argmax;
        Tensor::from_vec(vec![b, t_out, c], out).expect("pool out shape")
    }

    /// At `pool == 1` every element routes its own gradient: `0.0 + g`,
    /// which is the zeroed scatter-add's value and turns −0.0 into +0.0
    /// as it does.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("maxpool backward before forward");
        if self.pool == 1 {
            let dx = grad_out.as_slice().iter().map(|g| 0.0 + g).collect();
            return Tensor::from_vec(shape, dx).expect("pool grad shape");
        }
        let mut dx = Tensor::zeros(shape);
        let dxs = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&self.argmax) {
            dxs[idx] += g;
        }
        dx
    }

    fn name(&self) -> &'static str {
        "maxpool1d"
    }

    fn param_layer_count(&self) -> usize {
        0
    }
}

/// Global average pooling: `[batch, time, channels] → [batch, channels]`.
///
/// Replaces the flatten+dense bottleneck at the top of the paper's networks
/// ("one global average pooling layer + one dense layer", Section V-C).
///
/// ```
/// use pelican_nn::{GlobalAvgPool1d, Layer, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut gap = GlobalAvgPool1d::new();
/// let x = Tensor::from_vec(vec![1, 2, 2], vec![1., 2., 3., 4.])?;
/// assert_eq!(gap.forward(&x, Mode::Eval).as_slice(), &[2., 3.]);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug, Default)]
pub struct GlobalAvgPool1d {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool1d {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool1d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        let x = input.as_slice();
        let mut out = vec![0.0f32; b * c];
        for bi in 0..b {
            for ti in 0..t {
                let row = &x[(bi * t + ti) * c..(bi * t + ti + 1) * c];
                let dst = &mut out[bi * c..(bi + 1) * c];
                for (d, &s) in dst.iter_mut().zip(row) {
                    *d += s;
                }
            }
        }
        let scale = 1.0 / t as f32;
        out.iter_mut().for_each(|v| *v *= scale);
        self.input_shape = Some(vec![b, t, c]);
        Tensor::from_vec(vec![b, c], out).expect("gap shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("gap backward before forward");
        let (b, t, c) = (shape[0], shape[1], shape[2]);
        let scale = 1.0 / t as f32;
        let mut dx = Tensor::zeros(vec![b, t, c]);
        for bi in 0..b {
            let src = &grad_out.as_slice()[bi * c..(bi + 1) * c];
            for ti in 0..t {
                let dst = &mut dx.as_mut_slice()[(bi * t + ti) * c..(bi * t + ti + 1) * c];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s * scale;
                }
            }
        }
        dx
    }

    fn name(&self) -> &'static str {
        "global_avg_pool1d"
    }

    fn param_layer_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn maxpool_selects_maxima_per_channel() {
        let mut pool = MaxPool1d::new(2);
        // b=1, t=4, c=2
        let x = Tensor::from_vec(vec![1, 4, 2], vec![1., 8., 5., 2., 3., 9., 7., 4.]).unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[5., 8., 7., 9.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1, 4, 1], vec![1., 5., 2., 3.]).unwrap();
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::from_vec(vec![1, 2, 1], vec![10., 20.]).unwrap());
        assert_eq!(dx.as_slice(), &[0., 10., 0., 20.]);
    }

    #[test]
    fn pool_size_one_is_identity() {
        let mut pool = MaxPool1d::new(1);
        let x = Tensor::from_vec(vec![2, 1, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(pool.forward(&x, Mode::Eval).as_slice(), x.as_slice());
        let dx = pool.backward(&x);
        assert_eq!(dx.as_slice(), x.as_slice());
    }

    /// A window with nothing above −∞ sends its gradient to its own first
    /// element, not to element 0 of the batch.
    #[test]
    fn all_nan_window_keeps_its_gradient() {
        let mut pool = MaxPool1d::new(2);
        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![2, 2, 1], vec![1., 5., nan, nan]).unwrap();
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[5., f32::NEG_INFINITY]);
        let dx = pool.backward(&Tensor::from_vec(vec![2, 1, 1], vec![10., 20.]).unwrap());
        assert_eq!(dx.as_slice(), &[0., 10., 20., 0.]);
    }

    #[test]
    fn ragged_tail_is_truncated() {
        let mut pool = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1, 5, 1], vec![1., 2., 3., 4., 9.]).unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 1]);
        assert_eq!(y.as_slice(), &[2., 4.]);
    }

    #[test]
    #[should_panic(expected = "shorter than pool")]
    fn pool_larger_than_seq_panics() {
        let mut pool = MaxPool1d::new(4);
        pool.forward(&Tensor::ones(vec![1, 2, 1]), Mode::Eval);
    }

    #[test]
    fn gradcheck_maxpool() {
        check_layer(MaxPool1d::new(2), &[2, 6, 3], 51, 2e-2);
    }

    #[test]
    fn gap_averages_over_time() {
        let mut gap = GlobalAvgPool1d::new();
        let x = Tensor::from_vec(vec![2, 2, 1], vec![2., 4., 10., 20.]).unwrap();
        let y = gap.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.as_slice(), &[3., 15.]);
    }

    #[test]
    fn gap_backward_distributes_evenly() {
        let mut gap = GlobalAvgPool1d::new();
        gap.forward(&Tensor::ones(vec![1, 4, 2]), Mode::Train);
        let dx = gap.backward(&Tensor::from_vec(vec![1, 2], vec![4., 8.]).unwrap());
        assert_eq!(dx.shape(), &[1, 4, 2]);
        for chunk in dx.as_slice().chunks(2) {
            assert_eq!(chunk, &[1., 2.]);
        }
    }

    #[test]
    fn gradcheck_gap() {
        check_layer(GlobalAvgPool1d::new(), &[3, 4, 2], 53, 1e-2);
    }

    #[test]
    fn gap_handles_rank2() {
        let mut gap = GlobalAvgPool1d::new();
        let y = gap.forward(&Tensor::ones(vec![2, 3]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
    }
}

//! Pooling layers: max pooling over time and global average pooling.

use super::seq1;
use crate::{Layer, Mode};
use pelican_tensor::Tensor;

/// Max pooling over the time axis of `[batch, 1, channels]` (or `[batch,
/// channels]`) input, pool size 1.
///
/// "This layer selects most active neurons based on the maximum
/// probabilities in nearby features to facilitate the next stage learning"
/// (Section IV, item 3). With the paper's sequence length of 1 the pool
/// size is 1, so each window is one element: the forward is `v.max(−∞)`,
/// the value itself with NaN mapped to −∞ as a `>` scan from −∞ maps it,
/// and the backward `0.0 + g`, which turns −0.0 into +0.0 as a zeroed
/// scatter-add does.
///
/// ```
/// use pelican_nn::{Layer, MaxPool1d, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut pool = MaxPool1d::new(1);
/// let x = Tensor::from_vec(vec![2, 1, 2], vec![1., f32::NAN, -0.5, 3.])?;
/// let y = pool.forward(&x, Mode::Eval);
/// assert_eq!(y.as_slice(), &[1., f32::NEG_INFINITY, -0.5, 3.]);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug)]
pub struct MaxPool1d {
    input_shape: Option<Vec<usize>>,
}

impl MaxPool1d {
    /// Creates a pool of the given size (also the stride).
    ///
    /// # Panics
    ///
    /// Panics if `pool != 1`: the paper's one-step sequence holds one
    /// window of one element.
    pub fn new(pool: usize) -> Self {
        assert!(
            pool == 1,
            "pool size {pool} is longer than the paper's length-1 sequence"
        );
        Self { input_shape: None }
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, c) = seq1(input.shape());
        self.input_shape = Some(input.shape().to_vec());
        let out = input
            .as_slice()
            .iter()
            .map(|v| v.max(f32::NEG_INFINITY))
            .collect();
        Tensor::from_vec(vec![b, 1, c], out).expect("pool out shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("maxpool backward before forward");
        let dx = grad_out.as_slice().iter().map(|g| 0.0 + g).collect();
        Tensor::from_vec(shape, dx).expect("pool grad shape")
    }

    fn name(&self) -> &'static str {
        "maxpool1d"
    }

    fn param_layer_count(&self) -> usize {
        0
    }
}

/// Global average pooling: `[batch, 1, channels] → [batch, channels]`.
///
/// Replaces the flatten+dense bottleneck at the top of the paper's networks
/// ("one global average pooling layer + one dense layer", Section V-C).
/// The average over the paper's one time step is the step itself, as
/// `0.0 + v`: a summation into zeroed sums turns −0.0 into +0.0.
///
/// ```
/// use pelican_nn::{GlobalAvgPool1d, Layer, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut gap = GlobalAvgPool1d::new();
/// let x = Tensor::from_vec(vec![2, 1, 2], vec![1., 2., -0.0, 4.])?;
/// let y = gap.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 2]);
/// assert_eq!(y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
///            [1.0f32, 2., 0.0, 4.].map(f32::to_bits));
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
        let (b, c) = seq1(input.shape());
        self.input_shape = Some(vec![b, 1, c]);
        let out = input.as_slice().iter().map(|v| 0.0 + v).collect();
        Tensor::from_vec(vec![b, c], out).expect("gap shape")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("gap backward before forward");
        grad_out.reshape(shape).expect("gap grad shape")
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
    fn pool_size_one_is_identity() {
        let mut pool = MaxPool1d::new(1);
        let x = Tensor::from_vec(vec![2, 1, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(pool.forward(&x, Mode::Eval).as_slice(), x.as_slice());
        let dx = pool.backward(&x);
        assert_eq!(dx.as_slice(), x.as_slice());
    }

    /// Each channel's one-element window is its own maximum, with NaN
    /// read as nothing above −∞.
    #[test]
    fn maxpool_selects_maxima_per_channel() {
        let mut pool = MaxPool1d::new(1);
        let x = vec![7., f32::NAN, f32::NEG_INFINITY, -0.0];
        let y = pool.forward(&Tensor::from_vec(vec![1, 1, 4], x).unwrap(), Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 4]);
        let bits: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
        let want = [7., f32::NEG_INFINITY, f32::NEG_INFINITY, -0.0f32].map(f32::to_bits);
        assert_eq!(bits, want);
    }

    /// A window with nothing above −∞ keeps its own gradient; a −0.0
    /// gradient comes back as +0.0.
    #[test]
    fn all_nan_window_keeps_its_gradient() {
        let mut pool = MaxPool1d::new(1);
        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![2, 1, 2], vec![1., 5., nan, nan]).unwrap();
        pool.forward(&x, Mode::Train);
        let g = Tensor::from_vec(vec![2, 1, 2], vec![10., -0.0, 20., 30.]).unwrap();
        let dx = pool.backward(&g);
        assert_eq!(dx.as_slice(), &[10., 0., 20., 30.]);
        assert_eq!(dx.as_slice()[1].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    #[should_panic(expected = "longer than the paper's length-1 sequence")]
    fn pool_larger_than_seq_panics() {
        MaxPool1d::new(2);
    }

    #[test]
    fn gradcheck_maxpool() {
        check_layer(MaxPool1d::new(1), &[2, 1, 3], 51, 2e-2);
    }

    /// The average over one time step is the step itself, with −0.0 as
    /// +0.0.
    #[test]
    fn gap_averages_over_time() {
        let mut gap = GlobalAvgPool1d::new();
        let x = Tensor::from_vec(vec![2, 1, 1], vec![2., -0.0]).unwrap();
        let y = gap.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.as_slice()[0], 2.);
        assert_eq!(y.as_slice()[1].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn gap_backward_distributes_evenly() {
        let mut gap = GlobalAvgPool1d::new();
        gap.forward(&Tensor::ones(vec![1, 1, 2]), Mode::Train);
        let dx = gap.backward(&Tensor::from_vec(vec![1, 2], vec![4., 8.]).unwrap());
        assert_eq!(dx.shape(), &[1, 1, 2]);
        assert_eq!(dx.as_slice(), &[4., 8.]);
    }

    #[test]
    fn gradcheck_gap() {
        check_layer(GlobalAvgPool1d::new(), &[3, 1, 2], 53, 1e-2);
    }

    #[test]
    fn gap_handles_rank2() {
        let mut gap = GlobalAvgPool1d::new();
        let y = gap.forward(&Tensor::ones(vec![2, 3]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
    }
}

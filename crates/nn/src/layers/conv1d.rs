//! 1-D convolution with "same" padding.

use super::{add_col_sums, seq1};
use crate::{Layer, Mode, Param};
use pelican_tensor::{pack, workspace, Init, SeededRng, Tensor};
use std::ops::Range;

/// 1-D convolution over `[batch, 1, channels]` (or `[batch, channels]`),
/// stride 1, zero-padded so the output length equals the input length
/// (Keras' `padding="same"`).
///
/// This is the spatial-feature extractor of every Pelican block: "the
/// convolution operation in this layer extracts the spatial features from
/// the input data and produces a feature map at the output" (Section IV,
/// item 2). The paper uses kernel size 10 with as many filters as input
/// features so the residual add stays shape-compatible.
///
/// Weights are `[kernel, in_channels, out_channels]`, Glorot-initialised.
/// Padding follows Keras: `(kernel − 1) / 2` taps on the left, the rest on
/// the right. On the paper's one-step input only tap `(kernel − 1) / 2`
/// reads data; every other tap reads padding, so the layer is one product
/// with that tap's `[in, out]` slab plus the bias. The other taps' weights
/// are still drawn, stored and checkpointed, as in the paper's layer.
///
/// ```
/// use pelican_nn::{Conv1d, Layer, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut conv = Conv1d::new(4, 4, 10, &mut rng);
/// let y = conv.forward(&Tensor::zeros(vec![2, 1, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 1, 4]);
/// ```
#[derive(Debug)]
pub struct Conv1d {
    weight: Param, // [k, c_in, c_out]
    bias: Param,   // [c_out]
    kernel: usize,
    in_channels: usize,
    out_channels: usize,
    /// Shape of the last [`Mode::Train`] forward's input; `None` after an
    /// Eval forward, which keeps nothing for a backward.
    input_shape: Option<Vec<usize>>,
    /// That input's data, in a buffer retained across calls so
    /// steady-state training does not allocate it.
    input: Vec<f32>,
}

impl Conv1d {
    /// Creates a same-padded conv layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        let fan_in = kernel * in_channels;
        let fan_out = kernel * out_channels;
        let weight = Init::GlorotUniform.tensor(
            vec![kernel, in_channels, out_channels],
            (fan_in, fan_out),
            rng,
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_channels])),
            kernel,
            in_channels,
            out_channels,
            input_shape: None,
            input: Vec::new(),
        }
    }

    /// The flat range of the `[c_in, c_out]` weight slab of tap
    /// `(kernel − 1) / 2`, the one tap that reads data.
    fn live_slab(&self) -> Range<usize> {
        let size = self.in_channels * self.out_channels;
        let pad = (self.kernel - 1) / 2;
        pad * size..(pad + 1) * size
    }
}

impl Layer for Conv1d {
    /// `x · W[pad]` written straight into the output, then the bias: the
    /// seed's `0 + product` for the one live tap, since [`pack::dot_seg`]
    /// never returns `-0.0`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, c) = seq1(input.shape());
        assert_eq!(c, self.in_channels, "conv1d channel mismatch");
        let co = self.out_channels;
        let x = input.as_slice();
        pelican_observe::counter_add("tensor.conv_calls", 1);
        // The executed product, not the nominal `kernel` taps: this is the
        // conv share of `tensor.matmul_flops`, not an addition.
        pelican_observe::counter_add("tensor.conv_flops", 2 * (b * c * co) as u64);
        // Refilled every call: the optimizer moves the weights.
        let w = &self.weight.value.as_slice()[self.live_slab()];
        let mut wt = workspace::take(c * co);
        pack::pack_transpose(w, c, co, &mut wt);
        let mut out = vec![0.0f32; b * co];
        pack::gemm_bt(x, &wt, b, c, co, c, &mut out);
        let mut out = Tensor::from_vec(vec![b, co], out).expect("conv out shape");
        out.add_row_bias(&self.bias.value).expect("conv bias");
        self.input_shape = match mode {
            Mode::Train => {
                self.input.clear();
                self.input.extend_from_slice(x);
                Some(input.shape().to_vec())
            }
            Mode::Eval => None,
        };
        out.into_shape(vec![b, 1, co]).expect("conv out")
    }

    /// The bias column sums, `dW[pad] += xᵀ · dy` through the live slab's
    /// `grad_mut`, and `dx = dy · W[pad]ᵀ` written straight into `dx`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("conv1d backward before forward");
        let (b, c) = seq1(&shape);
        let co = self.out_channels;
        let dy = grad_out.as_slice();
        assert_eq!(dy.len(), b * co, "conv grad length");

        add_col_sums(dy, co, 0, self.bias.grad_mut(..));

        let mut dw = workspace::take(c * co);
        pack::matmul_at_into(&self.input, dy, b, c, co, &mut dw);
        let slab = self.live_slab();
        for (d, &s) in self.weight.grad_mut(slab.clone()).iter_mut().zip(dw.iter()) {
            *d += s;
        }

        // The `[c_in, c_out]` slab is already the panel layout `dy · Wᵀ`
        // consumes.
        let w = &self.weight.value.as_slice()[slab];
        let mut dx = vec![0.0f32; b * c];
        pack::gemm_bt(dy, w, b, co, c, co, &mut dx);
        Tensor::from_vec(shape, dx).expect("conv dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv1d"
    }

    fn param_layer_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    /// A conv with kernel 1 and identity weights must be the identity.
    #[test]
    fn kernel1_identity_weights() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv1d::new(3, 3, 1, &mut rng);
        conv.weight.value = Tensor::eye(3).reshape(vec![1, 3, 3]).unwrap();
        let x = Tensor::from_vec(vec![2, 1, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    /// Known values: with kernel 3 the one live tap is tap 1, and the
    /// other two read only padding.
    #[test]
    fn kernel3_known_values() {
        let mut conv = Conv1d::new(1, 1, 3, &mut SeededRng::new(0));
        conv.weight.value = Tensor::from_vec(vec![3, 1, 1], vec![10.0, 2.0, 30.0]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![1], vec![0.5]).unwrap();
        let x = Tensor::from_vec(vec![3, 1, 1], vec![1., -2., 3.]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.5, -3.5, 6.5]);
    }

    /// An even kernel (like the paper's k = 10) pads `(k − 1)/2` taps
    /// left, so kernel 2 reads its data with tap 0, and the output keeps
    /// the input's length.
    #[test]
    fn even_kernel_same_length() {
        let mut conv = Conv1d::new(1, 1, 2, &mut SeededRng::new(1));
        conv.weight.value = Tensor::from_vec(vec![2, 1, 1], vec![3.0, 5.0]).unwrap();
        let y = conv.forward(&Tensor::ones(vec![2, 1, 1]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 1, 1]);
        assert_eq!(y.as_slice(), &[3., 3.]);
    }

    /// The paper's configuration: sequence length 1, only the centre tap
    /// ever touches data.
    #[test]
    fn seq_len_one_uses_centre_tap() {
        let mut rng = SeededRng::new(2);
        let mut conv = Conv1d::new(4, 4, 10, &mut rng);
        let x = Tensor::ones(vec![2, 1, 4]);
        let y = conv.forward(&x, Mode::Eval);
        // Expected: x · W[pad_left] + b with pad_left = 4.
        let tap = conv.weight.value.as_slice()[4 * 16..5 * 16].to_vec();
        let tap = Tensor::from_vec(vec![4, 4], tap).unwrap();
        let expect = Tensor::ones(vec![2, 4]).matmul(&tap).unwrap();
        for (a, e) in y.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    /// `tensor.conv_flops` counts the executed live-tap GEMM (one of ten
    /// taps at sequence length 1), which is the forward's whole
    /// `tensor.matmul_flops`.
    #[test]
    fn conv_flops_count_executed_live_taps() {
        let rec = std::sync::Arc::new(pelican_observe::InMemoryRecorder::new());
        let mut conv = Conv1d::new(4, 3, 10, &mut SeededRng::new(2));
        pelican_observe::with_recorder(rec.clone(), || {
            conv.forward(&Tensor::ones(vec![2, 1, 4]), Mode::Eval);
        });
        assert_eq!(rec.counter("tensor.conv_flops"), 2 * (2 * 4 * 3));
        assert_eq!(
            rec.counter("tensor.conv_flops"),
            rec.counter("tensor.matmul_flops")
        );
    }

    /// With kernel 3 the two padded taps do no work: `tensor.conv_flops`
    /// counts the live tap's one row per sequence, and a Train step runs
    /// one product forward and two backward.
    #[test]
    fn conv_flops_skip_padding_and_products_follow_live_taps() {
        let rec = std::sync::Arc::new(pelican_observe::InMemoryRecorder::new());
        let mut conv = Conv1d::new(4, 3, 3, &mut SeededRng::new(8));
        pelican_observe::with_recorder(rec.clone(), || {
            conv.forward(&Tensor::ones(vec![2, 1, 4]), Mode::Train);
            conv.backward(&Tensor::ones(vec![2, 1, 3]));
        });
        assert_eq!(rec.counter("tensor.conv_flops"), 2 * 2 * 4 * 3);
        assert_eq!(rec.counter("tensor.matmul_calls"), 3);
    }

    #[test]
    fn gradcheck_conv_seq1() {
        let mut rng = SeededRng::new(3);
        let conv = Conv1d::new(3, 3, 10, &mut rng);
        check_layer(conv, &[2, 1, 3], 41, 2e-2);
    }

    #[test]
    fn gradcheck_conv_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Conv1d::new(2, 4, 3, &mut SeededRng::new(4)),
            &[2, 1, 2],
            43,
            2e-2,
        );
    }

    #[test]
    fn accepts_rank2_input_as_seq1() {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv1d::new(4, 4, 3, &mut rng);
        let y = conv.forward(&Tensor::ones(vec![2, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 1, 4]);
    }

    /// An Eval forward keeps no input, and drops the one an earlier Train
    /// forward kept, so a backward after it cannot use a stale input.
    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_eval_forward_panics() {
        let mut conv = Conv1d::new(3, 3, 3, &mut SeededRng::new(7));
        let x = Tensor::ones(vec![2, 1, 3]);
        conv.forward(&x, Mode::Train);
        conv.forward(&x, Mode::Eval);
        conv.backward(&Tensor::ones(vec![2, 1, 3]));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panics() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv1d::new(3, 3, 3, &mut rng);
        conv.forward(&Tensor::ones(vec![2, 1, 4]), Mode::Eval);
    }
}

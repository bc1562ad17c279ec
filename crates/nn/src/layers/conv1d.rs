//! 1-D convolution with "same" padding.

use super::{add_col_sums, btc};
use crate::{Layer, Mode, Param};
use pelican_tensor::{pack, workspace, Init, SeededRng, Tensor};
use std::ops::Range;

/// 1-D convolution over `[batch, time, channels]`, stride 1, zero-padded so
/// the output length equals the input length (Keras' `padding="same"`).
///
/// This is the spatial-feature extractor of every Pelican block: "the
/// convolution operation in this layer extracts the spatial features from
/// the input data and produces a feature map at the output" (Section IV,
/// item 2). The paper uses kernel size 10 with as many filters as input
/// features so the residual add stays shape-compatible.
///
/// Weights are `[kernel, in_channels, out_channels]`, Glorot-initialised.
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

/// The kernel taps that reach data at sequence length `t`, ascending: tap
/// `k`, the output positions it reaches and the input positions those
/// read. Output position `to` reads input `to + k − pad`, so tap `pad`
/// reads every position in place. Every other tap reads only "same"
/// padding (9 of the paper's 10 taps at sequence length 1) and
/// contributes nothing.
fn live_taps(kernel: usize, t: usize) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    // Keras convention: total padding `k-1`, split `(k-1)/2` left, the
    // remainder right.
    let pad = (kernel - 1) / 2;
    (0..kernel).filter_map(move |k| {
        let lo = pad.saturating_sub(k);
        let hi = t.min((t + pad).saturating_sub(k));
        (lo < hi).then(|| (k, lo..hi, lo + k - pad..hi + k - pad))
    })
}

/// Positions `rows` of each of the `b` sequences in `src` (`t` positions
/// of `w` values each), copied into consecutive rows of a workspace buffer.
fn gathered(
    src: &[f32],
    (b, t, w): (usize, usize, usize),
    rows: &Range<usize>,
) -> workspace::WsBuf {
    let n = rows.len() * w;
    let mut dst = workspace::take(b * n);
    for bi in 0..b {
        let s = (bi * t + rows.start) * w;
        dst[bi * n..(bi + 1) * n].copy_from_slice(&src[s..s + n]);
    }
    dst
}

/// Adds consecutive rows of `src` onto positions `rows` of each of the `b`
/// sequences in `dst`: the inverse of [`gathered`].
fn scatter_add(
    src: &[f32],
    (b, t, w): (usize, usize, usize),
    rows: &Range<usize>,
    dst: &mut [f32],
) {
    let n = rows.len() * w;
    for bi in 0..b {
        let d = (bi * t + rows.start) * w;
        for (o, &v) in dst[d..d + n].iter_mut().zip(&src[bi * n..(bi + 1) * n]) {
            *o += v;
        }
    }
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

    /// The flat range of kernel tap `k`'s `[c_in, c_out]` weight slab.
    fn tap(&self, k: usize) -> Range<usize> {
        let size = self.in_channels * self.out_channels;
        k * size..(k + 1) * size
    }
}

impl Layer for Conv1d {
    /// One product per live tap, `x[inp] · W[k]`, added onto the tap's
    /// output rows `rows` in ascending tap order — the seed's per-tap order,
    /// so every bit matches it. Tap `pad` reads `x` in place; when it is
    /// the first contribution (always, at sequence length 1) its product
    /// is written straight into the output, which equals `0 + product`
    /// because [`pack::dot_seg`] never returns `-0.0`. Shifted taps gather
    /// their input rows and add their product back run by run.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "conv1d channel mismatch");
        let co = self.out_channels;
        let x = input.as_slice();
        pelican_observe::counter_add("tensor.conv_calls", 1);
        let mut out = vec![0.0f32; b * t * co];
        let mut first = true;
        for (k, rows, inp) in live_taps(self.kernel, t) {
            let m = b * rows.len();
            let in_place = inp == rows;
            // The executed products, not the nominal `kernel` taps: this
            // is the conv share of `tensor.matmul_flops`, not an addition.
            pelican_observe::counter_add("tensor.conv_flops", 2 * (m * c * co) as u64);
            // Refilled every call: the optimizer moves the weights.
            let mut wt = workspace::take(c * co);
            pack::pack_transpose(&self.weight.value.as_slice()[self.tap(k)], c, co, &mut wt);
            if in_place && first {
                pack::gemm_bt(x, &wt, m, c, co, c, &mut out);
            } else {
                let xs;
                let a = if in_place {
                    x
                } else {
                    xs = gathered(x, (b, t, c), &inp);
                    &xs[..]
                };
                let mut prod = workspace::take(m * co);
                pack::gemm_bt(a, &wt, m, c, co, c, &mut prod);
                scatter_add(&prod, (b, t, co), &rows, &mut out);
            }
            first = false;
        }
        let mut out = Tensor::from_vec(vec![b * t, co], out).expect("conv out shape");
        out.add_row_bias(&self.bias.value).expect("conv bias");
        self.input_shape = match mode {
            Mode::Train => {
                self.input.clear();
                self.input.extend_from_slice(x);
                Some(input.shape().to_vec())
            }
            Mode::Eval => None,
        };
        out.into_shape(vec![b, t, co]).expect("conv out")
    }

    /// Per live tap, ascending: `dW[k] += x[inp]ᵀ · dy[rows]` and
    /// `dx[inp] += dy[rows] · W[k]ᵀ`, each tap's weight gradient written
    /// through its own `grad_mut` slab. As in the forward, tap `pad` reads
    /// `x` and `dy` in place and, when first, writes its product straight
    /// into `dx`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("conv1d backward before forward");
        let (b, t, c) = btc(&shape);
        let co = self.out_channels;
        let dy = grad_out.as_slice();
        assert_eq!(dy.len(), b * t * co, "conv grad length");

        // Bias gradient: sum of dy over all positions.
        add_col_sums(dy, co, 0, self.bias.grad_mut(..));

        let x = &self.input;
        let mut dx = vec![0.0f32; b * t * c];
        let mut first = true;
        for (k, rows, inp) in live_taps(self.kernel, t) {
            let m = b * rows.len();
            let in_place = inp == rows;
            let (xs, dys);
            let (a, g) = if in_place {
                (&x[..], dy)
            } else {
                xs = gathered(x, (b, t, c), &inp);
                dys = gathered(dy, (b, t, co), &rows);
                (&xs[..], &dys[..])
            };

            let mut dw = workspace::take(c * co);
            pack::matmul_at_into(a, g, m, c, co, &mut dw);
            let slab = self.tap(k);
            for (d, &s) in self.weight.grad_mut(slab.clone()).iter_mut().zip(dw.iter()) {
                *d += s;
            }

            // The `[c_in, c_out]` slab is already the panel layout
            // `dy · Wᵀ` consumes.
            let w = &self.weight.value.as_slice()[slab];
            if in_place && first {
                pack::gemm_bt(g, w, m, co, c, co, &mut dx);
            } else {
                let mut prod = workspace::take(m * c);
                pack::gemm_bt(g, w, m, co, c, co, &mut prod);
                scatter_add(&prod, (b, t, c), &inp, &mut dx);
            }
            first = false;
        }
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
        let x = Tensor::from_vec(vec![1, 2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    /// Known values: kernel 3 averaging filter over a ramp.
    #[test]
    fn kernel3_known_values() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv1d::new(1, 1, 3, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![3, 1, 1], vec![1.0, 1.0, 1.0]).unwrap();
        let x = Tensor::from_vec(vec![1, 4, 1], vec![1., 2., 3., 4.]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        // pad_left = 1: y[t] = x[t-1] + x[t] + x[t+1] with zero padding.
        assert_eq!(y.as_slice(), &[3., 6., 9., 7.]);
    }

    /// Even kernel (like the paper's k=10) pads (k-1)/2 left.
    #[test]
    fn even_kernel_same_length() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv1d::new(2, 5, 10, &mut rng);
        let y = conv.forward(&Tensor::ones(vec![3, 7, 2]), Mode::Eval);
        assert_eq!(y.shape(), &[3, 7, 5]);
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

    /// At t = 3 with kernel 3 the three taps reach 2, 3 and 2 output
    /// positions: `tensor.conv_flops` counts those 7 rows per sequence,
    /// not the 9 a padded patch matrix would hold. A Train step runs one
    /// product per live tap forward and two backward; at t = 1, one and
    /// two.
    #[test]
    fn conv_flops_skip_padding_and_products_follow_live_taps() {
        for (t, rows, products) in [(3usize, 7u64, 9u64), (1, 1, 3)] {
            let rec = std::sync::Arc::new(pelican_observe::InMemoryRecorder::new());
            let mut conv = Conv1d::new(4, 3, 3, &mut SeededRng::new(8));
            pelican_observe::with_recorder(rec.clone(), || {
                conv.forward(&Tensor::ones(vec![2, t, 4]), Mode::Train);
                conv.backward(&Tensor::ones(vec![2, t, 3]));
            });
            assert_eq!(rec.counter("tensor.conv_flops"), 2 * 2 * rows * 4 * 3);
            assert_eq!(rec.counter("tensor.matmul_calls"), products);
        }
    }

    #[test]
    fn gradcheck_conv_seq1() {
        let mut rng = SeededRng::new(3);
        let conv = Conv1d::new(3, 3, 10, &mut rng);
        check_layer(conv, &[2, 1, 3], 41, 2e-2);
    }

    #[test]
    fn gradcheck_conv_seq5() {
        let mut rng = SeededRng::new(4);
        let conv = Conv1d::new(2, 4, 3, &mut rng);
        check_layer(conv, &[2, 5, 2], 43, 2e-2);
    }

    #[test]
    fn gradcheck_conv_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Conv1d::new(2, 4, 3, &mut SeededRng::new(4)),
            &[2, 5, 2],
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
        let x = Tensor::ones(vec![2, 4, 3]);
        conv.forward(&x, Mode::Train);
        conv.forward(&x, Mode::Eval);
        conv.backward(&Tensor::ones(vec![2, 4, 3]));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panics() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv1d::new(3, 3, 3, &mut rng);
        conv.forward(&Tensor::ones(vec![2, 1, 4]), Mode::Eval);
    }
}

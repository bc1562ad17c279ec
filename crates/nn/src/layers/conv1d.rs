//! 1-D convolution with "same" padding.

use super::{add_col_sums, btc};
use crate::{Layer, Mode, Param};
use pelican_tensor::{pack, workspace, Init, SeededRng, Tensor};

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
    /// Shape of the last forward's input; `cache.col` holds its data.
    input_shape: Option<Vec<usize>>,
    cache: ConvCache,
}

/// Per-layer kernel scratch, retained across calls so steady-state
/// training does no im2col-related allocation. Everything here is either
/// shape-derived (`spans`, rebuilt only when the sequence length changes)
/// or refilled from scratch each call (`wt`) or each forward (`col`, which
/// the backward pass then consumes as the saved im2col activation matrix).
/// Weight *values* are never cached across calls — the optimizer mutates
/// them every step — only buffer capacity is.
#[derive(Debug, Default)]
struct ConvCache {
    /// Valid kernel-tap range `[k_lo, k_hi)` per output position.
    spans: Vec<(usize, usize)>,
    /// Sequence length `spans` was built for (0 = never built).
    spans_t: usize,
    /// Union of the per-position spans: taps outside `tap_lo..tap_hi` read
    /// padding for *every* output position (e.g. 9 of the paper's 10 taps
    /// at sequence length 1), so the im2col matrix and the GEMM reduction
    /// skip them entirely. Bit-safe: an all-zero tap segment contributes an
    /// exact nothing to the segmented accumulation (see
    /// [`pelican_tensor::pack`]).
    tap_lo: usize,
    tap_hi: usize,
    /// Trimmed flat weight `[(tap_hi-tap_lo)·c_in, c_out]` transposed into
    /// panel layout; refilled from the live weights every forward.
    wt: Vec<f32>,
    /// Trimmed im2col matrix `[b·t, (tap_hi-tap_lo)·c_in]` from the most
    /// recent forward.
    col: Vec<f32>,
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
            cache: ConvCache::default(),
        }
    }

    /// Left padding for "same" output length (Keras convention: total
    /// padding `k-1`, split `(k-1)/2` left, the remainder right).
    fn pad_left(&self) -> isize {
        ((self.kernel - 1) / 2) as isize
    }

    /// Extracts the `[c_in, c_out]` weight slab for kernel tap `k`.
    fn weight_tap(&self, k: usize) -> Tensor {
        let size = self.in_channels * self.out_channels;
        let data = self.weight.value.as_slice()[k * size..(k + 1) * size].to_vec();
        Tensor::from_vec(vec![self.in_channels, self.out_channels], data).expect("tap shape")
    }

    /// Rebuilds the per-position valid-tap spans when the sequence length
    /// changes. For output position `to`, taps `k_lo..k_hi` read in-range
    /// input rows; everything outside is "same" zero padding.
    fn ensure_spans(&mut self, t: usize) {
        if self.cache.spans_t == t {
            return;
        }
        let pad = self.pad_left();
        self.cache.spans.clear();
        self.cache.spans.extend((0..t).map(|to| {
            let k_lo = pad.saturating_sub(to as isize).max(0) as usize;
            let k_hi = ((t as isize - to as isize + pad).min(self.kernel as isize)).max(0) as usize;
            (k_lo, k_hi)
        }));
        // Per-position spans slide monotonically, so their union is the
        // contiguous range [min k_lo, max k_hi).
        self.cache.tap_lo = self.cache.spans.iter().map(|s| s.0).min().unwrap_or(0);
        self.cache.tap_hi = self.cache.spans.iter().map(|s| s.1).max().unwrap_or(0);
        self.cache.spans_t = t;
    }

    /// Columns of the trimmed im2col matrix: live taps × input channels.
    fn col_width(&self) -> usize {
        (self.cache.tap_hi - self.cache.tap_lo) * self.in_channels
    }

    /// Fills the cached im2col matrix from `x` (`[b·t, c_in]` flat): row
    /// `(bi, to)` holds the input windows of the *live* taps
    /// `tap_lo..tap_hi` laid out tap-major, with out-of-range taps as
    /// explicit zeros. Valid taps are consecutive input rows, so each row
    /// is one zero-prefix, one `memcpy`, one zero-suffix.
    fn fill_col(&mut self, x: &[f32], b: usize, t: usize) {
        let c = self.in_channels;
        let kke = self.col_width();
        let tap_lo = self.cache.tap_lo;
        let pad = self.pad_left();
        let col_len = b * t * kke;
        if self.cache.col.len() != col_len {
            self.cache.col.clear();
            self.cache.col.resize(col_len, 0.0);
        }
        let col = &mut self.cache.col;
        for bi in 0..b {
            for to in 0..t {
                let (k_lo, k_hi) = self.cache.spans[to];
                let off = (bi * t + to) * kke;
                let ti0 = (to as isize + k_lo as isize - pad) as usize;
                let src0 = (bi * t + ti0) * c;
                let lo = (k_lo - tap_lo) * c;
                let hi = (k_hi - tap_lo) * c;
                col[off..off + lo].fill(0.0);
                col[off + lo..off + hi].copy_from_slice(&x[src0..src0 + (k_hi - k_lo) * c]);
                col[off + hi..off + kke].fill(0.0);
            }
        }
    }

    /// The live-tap slab of the flat `[k·c_in, c_out]` weight view: rows
    /// `tap_lo·c_in .. tap_hi·c_in`, contiguous in the flat layout.
    fn weight_live(&self) -> &[f32] {
        let c = self.in_channels;
        let span =
            self.cache.tap_lo * c * self.out_channels..self.cache.tap_hi * c * self.out_channels;
        &self.weight.value.as_slice()[span]
    }

    /// The retained seed forward: per-tap gather + matmul + scatter-add.
    /// Kept verbatim as the reference the im2col path is proptested
    /// bit-identical against, and as the baseline `bench_kernels` times.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "conv1d channel mismatch");
        let rank3 = input.reshape(vec![b, t, c]).expect("conv input promote");
        let pad = self.pad_left();
        let flat_in = rank3.reshape(vec![b * t, c]).expect("conv flatten");
        let mut out = Tensor::zeros(vec![b * t, self.out_channels]);
        for k in 0..self.kernel {
            let shift = k as isize - pad;
            let t_lo = (-shift).max(0) as usize;
            let t_hi = ((t as isize - shift).min(t as isize)).max(0) as usize;
            if t_lo >= t_hi {
                continue;
            }
            let mut in_rows = Vec::with_capacity(b * (t_hi - t_lo));
            let mut out_rows = Vec::with_capacity(b * (t_hi - t_lo));
            for bi in 0..b {
                for to in t_lo..t_hi {
                    in_rows.push(bi * t + (to as isize + shift) as usize);
                    out_rows.push(bi * t + to);
                }
            }
            let xs = flat_in.gather_rows(&in_rows);
            let tap = self.weight_tap(k);
            let contrib = xs.matmul(&tap).expect("conv tap matmul");
            let cw = self.out_channels;
            for (ri, &ro) in out_rows.iter().enumerate() {
                let src = &contrib.as_slice()[ri * cw..(ri + 1) * cw];
                let dst = &mut out.as_mut_slice()[ro * cw..(ro + 1) * cw];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
        out.add_row_bias(&self.bias.value).expect("conv bias");
        out.reshape(vec![b, t, self.out_channels])
            .expect("conv out")
    }

    /// The retained seed backward: per-tap `matmul_at`/`matmul_bt` with
    /// gather/scatter. Returns `(dx, dweight, dbias)` without touching the
    /// parameter gradients — the proptests compare these against the
    /// im2col backward's accumulated grads.
    pub fn backward_reference(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (b, t, c) = btc(input.shape());
        let pad = self.pad_left();
        let flat_in = input.reshape(vec![b * t, c]).expect("conv flatten");
        let dy = grad_out
            .reshape(vec![b * t, self.out_channels])
            .expect("conv grad flatten");
        let db = dy.sum_axis0().expect("conv db");
        let mut dweight = Tensor::zeros(self.weight.value.shape().to_vec());
        let mut dx = Tensor::zeros(vec![b * t, c]);
        let tap_size = self.in_channels * self.out_channels;
        for k in 0..self.kernel {
            let shift = k as isize - pad;
            let t_lo = (-shift).max(0) as usize;
            let t_hi = ((t as isize - shift).min(t as isize)).max(0) as usize;
            if t_lo >= t_hi {
                continue;
            }
            let mut in_rows = Vec::with_capacity(b * (t_hi - t_lo));
            let mut out_rows = Vec::with_capacity(b * (t_hi - t_lo));
            for bi in 0..b {
                for to in t_lo..t_hi {
                    in_rows.push(bi * t + (to as isize + shift) as usize);
                    out_rows.push(bi * t + to);
                }
            }
            let xs = flat_in.gather_rows(&in_rows);
            let dys = dy.gather_rows(&out_rows);
            let dtap = xs.matmul_at(&dys).expect("conv dW");
            let dst = &mut dweight.as_mut_slice()[k * tap_size..(k + 1) * tap_size];
            for (d, &s) in dst.iter_mut().zip(dtap.as_slice()) {
                *d += s;
            }
            let tap = self.weight_tap(k);
            let dxs = dys.matmul_bt(&tap).expect("conv dX");
            for (ri, &row) in in_rows.iter().enumerate() {
                let src = &dxs.as_slice()[ri * c..(ri + 1) * c];
                let dst = &mut dx.as_mut_slice()[row * c..(row + 1) * c];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
        let dx = dx.reshape(input.shape().to_vec()).expect("conv dx shape");
        (dx, dweight, db)
    }
}

impl Layer for Conv1d {
    /// im2col forward: one packed GEMM over the whole batch instead of a
    /// gather + matmul + scatter per kernel tap.
    ///
    /// Bit-identity with [`Conv1d::forward_reference`]: each output element
    /// accumulates its taps ascending through `seg = c_in` segments of the
    /// col row — the same per-tap dot, in the same tap order, as the seed
    /// kernel — and the explicit zero padding contributes exact `+0.0`s,
    /// which the segmented accumulation is proof against (see
    /// [`pelican_tensor::pack`]).
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "conv1d channel mismatch");
        self.ensure_spans(t);
        self.fill_col(input.as_slice(), b, t);
        let kke = self.col_width();
        // The executed live-tap GEMM, not the nominal `kernel` taps: this
        // is the conv share of `tensor.matmul_flops`, not an addition.
        pelican_observe::counter_add("tensor.conv_calls", 1);
        pelican_observe::counter_add(
            "tensor.conv_flops",
            2 * (b * t * kke * self.out_channels) as u64,
        );
        let wt_len = self.out_channels * kke;
        let mut wt = std::mem::take(&mut self.cache.wt);
        if wt.len() != wt_len {
            wt.clear();
            wt.resize(wt_len, 0.0);
        }
        // The live-tap slab of the flat [k·c_in, c_out] weight view,
        // transposed into panel layout; refilled every call because the
        // optimizer moves the weights between calls.
        pack::pack_transpose(self.weight_live(), kke, self.out_channels, &mut wt);
        let mut out = vec![0.0f32; b * t * self.out_channels];
        pack::gemm_bt(
            &self.cache.col,
            &wt,
            b * t,
            kke,
            self.out_channels,
            c,
            &mut out,
        );
        self.cache.wt = wt;
        let mut out =
            Tensor::from_vec(vec![b * t, self.out_channels], out).expect("conv out shape");
        out.add_row_bias(&self.bias.value).expect("conv bias");
        self.input_shape = Some(input.shape().to_vec());
        out.into_shape(vec![b, t, self.out_channels])
            .expect("conv out")
    }

    /// im2col backward: `dW` is one `colᵀ·dY` product (the ascending-row
    /// zero-skip kernel ignores the padding zeros exactly where the seed
    /// kernel's gathers excluded them), `dX` is one `dY·Wᵀ` product
    /// scattered back through the col layout in tap order.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("conv1d backward before forward");
        let (b, t, c) = btc(&shape);
        let pad = self.pad_left();
        let kke = self.col_width();
        let (tap_lo, tap_hi) = (self.cache.tap_lo, self.cache.tap_hi);
        let dy = grad_out.as_slice();
        assert_eq!(dy.len(), b * t * self.out_channels, "conv grad length");

        // Bias gradient: sum of dy over all positions.
        add_col_sums(dy, self.out_channels, 0, self.bias.grad_mut(..));

        // dW = colᵀ · dY, accumulated into the live-tap rows of the
        // parameter gradient (taps outside the union read padding
        // everywhere, so their gradient contribution is exactly zero).
        let mut dw = workspace::take(kke * self.out_channels);
        pack::matmul_at_into(&self.cache.col, dy, b * t, kke, self.out_channels, &mut dw);
        let g0 = tap_lo * c * self.out_channels;
        for (d, &s) in self
            .weight
            .grad_mut(g0..g0 + dw.len())
            .iter_mut()
            .zip(dw.iter())
        {
            *d += s;
        }

        // dcol = dY · Wᵀ: the live-tap slab of the flat [k·c_in, c_out]
        // weight is already the panel (n×k) layout matmul_bt consumes.
        let mut dcol = workspace::take(b * t * kke);
        pack::gemm_bt(
            dy,
            self.weight_live(),
            b * t,
            self.out_channels,
            kke,
            self.out_channels,
            &mut dcol,
        );
        // col2im: scatter-add tap columns back onto shifted input rows, in
        // the seed kernel's tap-then-row order.
        let mut dx = Tensor::zeros(vec![b * t, c]);
        let dxs = dx.as_mut_slice();
        for k in tap_lo..tap_hi {
            let shift = k as isize - pad;
            let t_lo = (-shift).max(0) as usize;
            let t_hi = ((t as isize - shift).min(t as isize)).max(0) as usize;
            let kc = (k - tap_lo) * c;
            for bi in 0..b {
                for to in t_lo..t_hi {
                    let src_row = bi * t + to;
                    let dst_row = bi * t + (to as isize + shift) as usize;
                    let src = &dcol[src_row * kke + kc..src_row * kke + kc + c];
                    let dst = &mut dxs[dst_row * c..(dst_row + 1) * c];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
        dx.into_shape(shape).expect("conv dx shape")
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
        let tap = conv.weight_tap(4);
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

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panics() {
        let mut rng = SeededRng::new(6);
        let mut conv = Conv1d::new(3, 3, 3, &mut rng);
        conv.forward(&Tensor::ones(vec![2, 1, 4]), Mode::Eval);
    }
}

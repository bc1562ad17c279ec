//! Gated recurrent unit.

use super::{add_col_sums, seq1};
use crate::{ActivationKind, Layer, Mode, Param};
use pelican_tensor::workspace;
use pelican_tensor::{math, pack, Init, SeededRng, Tensor};

/// Gated recurrent unit over `[batch, 1, channels]` (or `[batch,
/// channels]`), returning the hidden-state sequence `[batch, 1, units]`
/// (`return_sequences=True`).
///
/// "GRU is a recurrent network that can extract the temporal features of
/// the input data through a recurrent process … an activation function and
/// a recurrent activation function are needed for GRU, for which tanh and
/// hard sigmoid are, respectively, used here" (Section IV, item 4).
///
/// Gate equations (Keras v1 convention, `reset_after=False`):
///
/// ```text
/// z_t = hardσ(x_t·W_z + h_{t-1}·U_z + b_z)          (update gate)
/// r_t = hardσ(x_t·W_r + h_{t-1}·U_r + b_r)          (reset gate)
/// h̃_t = tanh(x_t·W_h + (r_t ⊙ h_{t-1})·U_h + b_h)   (candidate)
/// h_t = z_t ⊙ h_{t-1} + (1 − z_t) ⊙ h̃_t
/// ```
///
/// # The step from h₀ = 0
///
/// The paper feeds every GRU one time step, so the only hidden state it
/// sees is h₀ = 0. There every recurrent product is `+0.0` and the reset
/// gate is dead (`r ⊙ h₀ = 0`), so the step computes only the live work:
/// one `[b, 2·units]` GEMM over `[Wz | Wh]` forward, whose epilogue runs
/// the element passes on each pool row chunk and leaves `[z_pre | h̃]` in
/// the GEMM's output as the Train cache; backward, `dx` as a two-segment
/// `[dz | dh̃]·[Wz | Wh]ᵀ` product and `dW` as `xᵀ·[dz | dh̃]`.
/// Each skip is taken only when it is provably exact — all operands it
/// drops are finite and bounded so that `r` and `da = dh̃·Uhᵀ` stay finite
/// — and the per-gate step ([`Gru::forward_reference`] /
/// [`Gru::reference_fwd_bwd`]) runs otherwise: three gate products and
/// every recurrent product from h₀ with tensor-op element math, then the
/// nine parameter-gradient products, so NaN and ±Inf propagate exactly as
/// in the reference. That step is also the oracle the fast step is checked
/// against bit for bit. The forward's packed `[Wz | Wh]` panel
/// and the weight half of its guard are rebuilt only after
/// [`Layer::params_mut`] (the one way to reach a `&mut Param`), and a
/// [`Mode::Eval`] forward keeps no backward cache.
///
/// ```
/// use pelican_nn::{Gru, Layer, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut gru = Gru::new(4, 4, &mut rng);
/// let y = gru.forward(&Tensor::zeros(vec![2, 1, 4]), Mode::Train);
/// assert_eq!(y.shape(), &[2, 1, 4]);
/// ```
#[derive(Debug)]
pub struct Gru {
    // Input kernels [in, units] per gate.
    wxz: Param,
    wxr: Param,
    wxh: Param,
    // Recurrent kernels [units, units] per gate.
    whz: Param,
    whr: Param,
    whh: Param,
    // Biases [units] per gate.
    bz: Param,
    br: Param,
    bh: Param,
    in_channels: usize,
    units: usize,
    cache: Option<GruCache>,
    input_shape: Option<Vec<usize>>,
    /// `[Wz | Wh]` column-concatenated, `[in, 2·units]`: the panel of the
    /// sequence-length-1 backward's `dx` product. Refilled from the live
    /// weights on every call (the optimizer moves them); only its
    /// capacity is kept.
    w_cat: Vec<f32>,
    seq1: Seq1Panel,
}

/// What `backward` needs from the last [`Mode::Train`] forward.
#[derive(Debug)]
enum GruCache {
    /// The per-gate step.
    Step(Box<StepCache>),
    /// The sequence-length-1 step from h₀ = 0: the reset gate and the
    /// recurrent products were skipped, so only the input and
    /// `zh[bi·2u ..] = [z_pre | h̃]` survive; the backward recomputes
    /// `z = hardσ(z_pre)`.
    Seq1 { x: Tensor, zh: Vec<f32> },
}

#[derive(Debug)]
struct StepCache {
    x: Tensor,      // [b, in]
    h_prev: Tensor, // [b, u]
    z: Tensor,
    r: Tensor,
    hh: Tensor,
    z_pre: Tensor,
    r_pre: Tensor,
}

/// The sequence-length-1 forward's weight-derived state. Unlike
/// `w_cat` it caches *values*, so a served model packs and scans
/// its weights once: [`Layer::params_mut`], the one way to reach a
/// `&mut Param`, marks it stale.
#[derive(Debug, Default)]
struct Seq1Panel {
    fresh: bool,
    /// `[Wzᵀ; Whᵀ]` stacked: `[2·units, in]` panel layout.
    w_zh_t: Vec<f32>,
    /// `max|Wr|` when `Uz`, `Ur`, `Uh`, `Wr` and `br` are all finite: the
    /// weight half of the forward guard.
    wr_max: Option<f32>,
}

fn fit(buf: &mut Vec<f32>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
}

/// Writes `[p₀ | p₁ | …]` row by row: each part is `[rows, u]`, `out` is
/// `[rows, parts·u]`.
fn concat_cols(parts: &[&[f32]], rows: usize, u: usize, out: &mut [f32]) {
    let w = parts.len() * u;
    for i in 0..rows {
        for (k, p) in parts.iter().enumerate() {
            out[i * w + k * u..i * w + (k + 1) * u].copy_from_slice(&p[i * u..(i + 1) * u]);
        }
    }
}

/// Adds column block `k` of `src` (`[rows, grads·u]`) into `grads[k]`
/// (`[rows, u]`).
fn add_col_blocks(src: &[f32], rows: usize, u: usize, grads: &mut [&mut [f32]]) {
    let w = grads.len() * u;
    for i in 0..rows {
        for (k, g) in grads.iter_mut().enumerate() {
            let s = &src[i * w + k * u..i * w + (k + 1) * u];
            for (d, &v) in g[i * u..(i + 1) * u].iter_mut().zip(s) {
                *d += v;
            }
        }
    }
}

/// The largest `|v|`, or `None` if any element is NaN or ±Inf. The
/// magnitude bits of non-negative floats order like the floats, and ±Inf
/// and NaN have the largest, so this is one integer max that vectorizes.
fn max_abs(v: &[f32]) -> Option<f32> {
    let m = v.iter().fold(0u32, |m, x| m.max(x.to_bits() & 0x7fff_ffff));
    (m < f32::INFINITY.to_bits()).then(|| f32::from_bits(m))
}

/// Whether every partial sum of a `k`-term dot product with factors
/// bounded by `a` and `b` stays finite, with a factor-2 margin for
/// rounding.
fn bounded(k: usize, a: f32, b: f32) -> bool {
    k as f64 * f64::from(a) * f64::from(b) <= f64::from(f32::MAX) / 2.0
}

/// The sequence-length-1 element passes over rows of the GEMM output
/// `zh = [x·Wz | x·Wh]` and of the output `out`: the candidate
/// h̃_pre = (x·Wh + 0.0) + bh goes to `out` for one [`math::tanh_in_place`]
/// pass over the rows, then per element z_pre = (x·Wz + 0.0) + bz,
/// z = hardσ(z_pre) and h = (z·0.0) + ((1 − z)·h̃), leaving
/// `zh = [z_pre | h̃]` and `out = h`.
fn seq1_rows(zh: &mut [f32], out: &mut [f32], bz: &[f32], bh: &[f32]) {
    let u = bz.len();
    for (orow, row) in out.chunks_exact_mut(u).zip(zh.chunks_exact(2 * u)) {
        for ((o, &xv), &bv) in orow.iter_mut().zip(&row[u..]).zip(bh) {
            *o = (xv + 0.0) + bv;
        }
    }
    math::tanh_in_place(out);
    for (orow, row) in out.chunks_exact_mut(u).zip(zh.chunks_exact_mut(2 * u)) {
        let (zrow, hrow) = row.split_at_mut(u);
        for (((o, zp), hh), &bv) in orow.iter_mut().zip(zrow).zip(hrow).zip(bz) {
            let h = *o;
            let p = (*zp + 0.0) + bv;
            let zv = ActivationKind::HardSigmoid.apply(p);
            *o = (zv * 0.0) + ((1.0 - zv) * h);
            *zp = p;
            *hh = h;
        }
    }
}

impl Gru {
    /// Creates a GRU with `in_channels` inputs and `units` hidden units.
    pub fn new(in_channels: usize, units: usize, rng: &mut SeededRng) -> Self {
        let wx = |rng: &mut SeededRng| {
            Param::new(Init::GlorotUniform.tensor(
                vec![in_channels, units],
                (in_channels, units),
                rng,
            ))
        };
        let wh = |rng: &mut SeededRng| {
            Param::new(Init::GlorotUniform.tensor(vec![units, units], (units, units), rng))
        };
        let b = || Param::new(Tensor::zeros(vec![units]));
        Self {
            wxz: wx(rng),
            wxr: wx(rng),
            wxh: wx(rng),
            whz: wh(rng),
            whr: wh(rng),
            whh: wh(rng),
            bz: b(),
            br: b(),
            bh: b(),
            in_channels,
            units,
            cache: None,
            input_shape: None,
            w_cat: Vec::new(),
            seq1: Seq1Panel::default(),
        }
    }

    /// Computes `x·W + h·U + b` for one gate (reference path).
    fn gate_pre(x: &Tensor, h: &Tensor, w: &Tensor, u: &Tensor, b: &Tensor) -> Tensor {
        let mut pre = x.matmul(w).expect("gru gate x·W");
        let hu = h.matmul(u).expect("gru gate h·U");
        pre.add_assign(&hu).expect("gate add");
        pre.add_row_bias(b).expect("gate bias");
        pre
    }

    /// The per-gate forward: three separate gate products from h₀ = 0,
    /// tensor-op elementwise math. [`Layer::forward`] runs it when the
    /// sequence-length-1 step's guard fails, and it is the reference that
    /// step is proptested bit-identical against and the baseline
    /// `bench_kernels` times.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        self.reference_forward_with_cache(input).0
    }

    /// Reference forward + backward: returns `(y, dx, grads)` with `grads`
    /// in [`Layer::params_mut`] order, computed without touching the layer's
    /// state or parameter gradients.
    pub fn reference_fwd_bwd(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Vec<Tensor>) {
        let (y, step) = self.reference_forward_with_cache(input);
        let (c, u) = (self.in_channels, self.units);
        let mut grads: Vec<Tensor> = vec![
            Tensor::zeros(vec![c, u]),
            Tensor::zeros(vec![c, u]),
            Tensor::zeros(vec![c, u]),
            Tensor::zeros(vec![u, u]),
            Tensor::zeros(vec![u, u]),
            Tensor::zeros(vec![u, u]),
            Tensor::zeros(vec![u]),
            Tensor::zeros(vec![u]),
            Tensor::zeros(vec![u]),
        ];
        let dx = self.backward_cached(&step, grad_out, &mut grads);
        let dx = dx.into_shape(input.shape().to_vec()).expect("gru dx shape");
        (y, dx, grads)
    }

    /// Backpropagation through the per-gate step: returns `dx` as
    /// `[b, in]` and adds the nine parameter-gradient products into
    /// `grads` ([`Layer::params_mut`] order). The gradient into h₀ is
    /// never formed: nothing reads it.
    fn backward_cached(&self, step: &StepCache, grad_out: &Tensor, grads: &mut [Tensor]) -> Tensor {
        let shape = vec![step.x.shape()[0], self.units];
        // `+ 0.0` is the zero carry from a later step, which turns −0.0
        // into +0.0.
        let dh = grad_out
            .reshape(shape)
            .expect("gru grad flatten")
            .map(|g| g + 0.0);

        let dz = dh
            .zip_map(&step.h_prev, |g, hp| g * hp)
            .expect("dz a")
            .zip_map(
                &dh.zip_map(&step.hh, |g, hv| g * hv).expect("dz b"),
                |a, b| a - b,
            )
            .expect("dz");
        let dhh = dh.zip_map(&step.z, |g, zv| g * (1.0 - zv)).expect("dhh");

        let dhh_pre = step
            .hh
            .zip_map(&dhh, |hv, g| g * (1.0 - hv * hv))
            .expect("dhh_pre");
        let da = dhh_pre.matmul_bt(&self.whh.value).expect("da");
        let dr = da.zip_map(&step.h_prev, |g, hp| g * hp).expect("dr");

        let dz_pre = act_grad(&step.z_pre, &dz, ActivationKind::HardSigmoid);
        let dr_pre = act_grad(&step.r_pre, &dr, ActivationKind::HardSigmoid);

        let mut dx = dz_pre.matmul_bt(&self.wxz.value).expect("dx z");
        dx.add_assign(&dr_pre.matmul_bt(&self.wxr.value).expect("dx r"))
            .expect("dx r add");
        dx.add_assign(&dhh_pre.matmul_bt(&self.wxh.value).expect("dx h"))
            .expect("dx h add");

        let rh = step
            .r
            .zip_map(&step.h_prev, |a, b| a * b)
            .expect("r⊙h recompute");
        let mut acc = |idx: usize, g: Tensor| {
            grads[idx].add_assign(&g).expect("param grad shape");
        };
        acc(0, step.x.matmul_at(&dz_pre).expect("dWz"));
        acc(1, step.x.matmul_at(&dr_pre).expect("dWr"));
        acc(2, step.x.matmul_at(&dhh_pre).expect("dWh"));
        acc(3, step.h_prev.matmul_at(&dz_pre).expect("dUz"));
        acc(4, step.h_prev.matmul_at(&dr_pre).expect("dUr"));
        acc(5, rh.matmul_at(&dhh_pre).expect("dUh"));
        acc(6, dz_pre.sum_axis0().expect("dbz"));
        acc(7, dr_pre.sum_axis0().expect("dbr"));
        acc(8, dhh_pre.sum_axis0().expect("dbh"));
        dx
    }

    fn reference_forward_with_cache(&self, input: &Tensor) -> (Tensor, StepCache) {
        let (b, c) = seq1(input.shape());
        assert_eq!(c, self.in_channels, "gru channel mismatch");
        let x = input.reshape(vec![b, c]).expect("gru flatten");
        let u = self.units;
        let h = Tensor::zeros(vec![b, u]);

        let z_pre = Self::gate_pre(&x, &h, &self.wxz.value, &self.whz.value, &self.bz.value);
        let r_pre = Self::gate_pre(&x, &h, &self.wxr.value, &self.whr.value, &self.br.value);
        let z = act(&z_pre, ActivationKind::HardSigmoid);
        let r = act(&r_pre, ActivationKind::HardSigmoid);

        let rh = r.zip_map(&h, |a, b| a * b).expect("r⊙h");
        let mut hh_pre = x.matmul(&self.wxh.value).expect("x·Wh");
        let ruh = rh.matmul(&self.whh.value).expect("(r⊙h)·Uh");
        hh_pre.add_assign(&ruh).expect("hh add");
        hh_pre.add_row_bias(&self.bh.value).expect("hh bias");
        let hh = act(&hh_pre, ActivationKind::Tanh);

        let h_new = z
            .zip_map(&h, |zv, hv| zv * hv)
            .expect("z⊙h")
            .zip_map(
                &z.zip_map(&hh, |zv, hv| (1.0 - zv) * hv).expect("(1-z)⊙hh"),
                |a, c| a + c,
            )
            .expect("h update");
        let out = h_new.into_shape(vec![b, 1, u]).expect("gru output");
        let step = StepCache {
            x,
            h_prev: h,
            z,
            r,
            hh,
            z_pre,
            r_pre,
        };
        (out, step)
    }

    /// The forward guard of the sequence-length-1 step. With `Uz`, `Ur`,
    /// `Uh`, `Wr`, `br` and `x` finite and `x·Wr` unable to overflow,
    /// `r_pre` is never NaN, so `r` is finite: then `h₀·Uz`, `h₀·Ur` and
    /// `(r ⊙ h₀)·Uh` are exactly `+0.0`. Rebuilds [`Seq1Panel`] first if
    /// [`Layer::params_mut`] marked it stale.
    fn seq1_exact(&mut self, x: &[f32]) -> bool {
        if !self.seq1.fresh {
            let (c, u) = (self.in_channels, self.units);
            let w = &mut self.seq1.w_zh_t;
            fit(w, 2 * u * c);
            pack::pack_transpose(self.wxz.value.as_slice(), c, u, &mut w[..u * c]);
            pack::pack_transpose(self.wxh.value.as_slice(), c, u, &mut w[u * c..]);
            let finite = |p: &Param| max_abs(p.value.as_slice()).is_some();
            let rest = [&self.whz, &self.whr, &self.whh, &self.br];
            self.seq1.wr_max =
                max_abs(self.wxr.value.as_slice()).filter(|_| rest.into_iter().all(finite));
            self.seq1.fresh = true;
        }
        matches!(
            (self.seq1.wr_max, max_abs(x)),
            (Some(w), Some(m)) if bounded(self.in_channels, m, w)
        )
    }

    /// The step from h₀ = 0, taken when [`Gru::seq1_exact`] holds: the
    /// per-gate step's element math with every recurrent product
    /// replaced by the `+0.0` it returns. The literal `+ 0.0` and `z·0.0`
    /// terms stay because they fix the sign of zero and NaN as the
    /// reference does. The element passes run in the GEMM's epilogue
    /// ([`seq1_rows`]), on each row chunk as the pool finishes it.
    fn forward_seq1(&self, input: &Tensor, b: usize, mode: Mode) -> (Tensor, Option<GruCache>) {
        let (c, u) = (self.in_channels, self.units);
        // zh[bi·2u ..] = [x·Wz | x·Wh], rewritten in place as [z_pre | h̃];
        // x·Wr only ever fed the dead reset gate. Train keeps it as the
        // cache, Eval borrows workspace scratch.
        let (mut kept, mut scratch);
        let zh: &mut [f32] = if mode == Mode::Train {
            kept = vec![0.0f32; b * 2 * u];
            &mut kept
        } else {
            kept = Vec::new();
            scratch = workspace::take(b * 2 * u);
            &mut scratch
        };
        let mut out = vec![0.0f32; b * u];
        let (bz, bh) = (self.bz.value.as_slice(), self.bh.value.as_slice());
        pack::gemm_bt_then(
            input.as_slice(),
            &self.seq1.w_zh_t,
            (b, c, 2 * u, c),
            zh,
            &mut out,
            |zh, out| seq1_rows(zh, out, bz, bh),
        );
        let cache = (mode == Mode::Train).then(|| GruCache::Seq1 {
            x: input.clone(),
            zh: kept,
        });
        let out = Tensor::from_vec(vec![b, 1, u], out).expect("gru seq1 output");
        (out, cache)
    }

    /// Backward of [`Gru::forward_seq1`]: the per-gate step's element math
    /// with `h_prev = carry = +0.0` kept literal, then `dx` and `dW`
    /// over the live gates. The reset gate's gradient is `dr = da ⊙ h₀`
    /// with `da = dh̃_pre·Uhᵀ`. When `da` is provably finite (`dh̃_pre`,
    /// `Uh` finite and bounded, `Wr` finite) `dr` is `±0`: its `dx`
    /// segment adds exactly `+0.0` (`dot_seg` never returns `-0.0`) and
    /// its `dWr`/`dbr` terms are `+0.0`, so neither `da` nor the `r` gate
    /// is formed. The gradient into h₀ is never read, and `dU = h₀ᵀ·g` is
    /// exactly `+0.0` under `matmul_at`'s zero-skip, so neither is formed
    /// either. Returns `None`, touching no gradient,
    /// when the guard fails.
    fn backward_seq1(&mut self, x: &[f32], zh: &[f32], dy: &[f32], b: usize) -> Option<Vec<f32>> {
        let (c, u) = (self.in_channels, self.units);
        // g[bi·2u ..] = [dz_pre | dh̃_pre], the interleaved operand of both
        // GEMMs, written in place.
        let mut g = workspace::take(b * 2 * u);
        let rows = zh.chunks_exact(2 * u).zip(dy.chunks_exact(u));
        for (grow, (zhrow, dyrow)) in g.chunks_exact_mut(2 * u).zip(rows) {
            let (gz, gh) = grow.split_at_mut(u);
            let (zprow, hrow) = zhrow.split_at(u);
            for ((((dzp, dhhp), &zp), &h), &d) in
                gz.iter_mut().zip(gh).zip(zprow).zip(hrow).zip(dyrow)
            {
                let zv = ActivationKind::HardSigmoid.apply(zp);
                let g = d + 0.0;
                let dz = (g * 0.0) - (g * h);
                let dhh = g * (1.0 - zv);
                *dhhp = dhh * (1.0 - h * h);
                *dzp = dz * ActivationKind::HardSigmoid.derivative(zp);
            }
        }
        let dhh_max = g
            .chunks_exact(2 * u)
            .try_fold(0.0f32, |m, row| max_abs(&row[u..]).map(|r| m.max(r)));
        let exact = max_abs(self.wxr.value.as_slice()).is_some()
            && matches!(
                (max_abs(self.whh.value.as_slice()), dhh_max),
                (Some(w), Some(g)) if bounded(u, g, w)
            );
        if !exact {
            return None;
        }

        // One segmented GEMM for dx (seg = units) and one matmul_at for
        // dW over [dz | dh̃].
        let (wz, wh) = (self.wxz.value.as_slice(), self.wxh.value.as_slice());
        fit(&mut self.w_cat, c * 2 * u);
        concat_cols(&[wz, wh], c, u, &mut self.w_cat);
        let mut dx = vec![0.0f32; b * c];
        pack::gemm_bt(&g, &self.w_cat, b, 2 * u, c, u, &mut dx);
        let mut dw = workspace::take(c * 2 * u);
        pack::matmul_at_into(x, &g, b, c, 2 * u, &mut dw);
        add_col_blocks(
            &dw,
            c,
            u,
            &mut [self.wxz.grad_mut(..), self.wxh.grad_mut(..)],
        );
        add_col_sums(&g, 2 * u, 0, self.bz.grad_mut(..));
        add_col_sums(&g, 2 * u, u, self.bh.grad_mut(..));
        Some(dx)
    }

    /// [`Gru::backward_cached`] into the layer's gradients. The step's
    /// products add into copies of the gradients, so the sums round as a
    /// `+=` would also for a caller that skips `zero_grad`; they go back
    /// through [`Param::grad_mut`], which widens every hull to the whole
    /// tensor.
    fn backward_step(&mut self, step: &StepCache, grad_out: &Tensor) -> Vec<f32> {
        let mut grads: Vec<Tensor> = self.params().iter().map(|p| p.grad().clone()).collect();
        let dx = self.backward_cached(step, grad_out, &mut grads);
        for (p, g) in self.params().into_iter().zip(&grads) {
            p.grad_mut(..).copy_from_slice(g.as_slice());
        }
        dx.into_vec()
    }

    /// The nine parameters in [`Layer::params_mut`] order.
    fn params(&mut self) -> [&mut Param; 9] {
        [
            &mut self.wxz,
            &mut self.wxr,
            &mut self.wxh,
            &mut self.whz,
            &mut self.whr,
            &mut self.whh,
            &mut self.bz,
            &mut self.br,
            &mut self.bh,
        ]
    }
}

/// Applies an activation elementwise.
fn act(x: &Tensor, k: ActivationKind) -> Tensor {
    x.map(|v| k.apply(v))
}

/// Elementwise derivative-of-activation at the cached pre-activation,
/// multiplied by the incoming gradient.
fn act_grad(pre: &Tensor, g: &Tensor, k: ActivationKind) -> Tensor {
    pre.zip_map(g, |x, gv| gv * k.derivative(x))
        .expect("act grad")
}

impl Layer for Gru {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, c) = seq1(input.shape());
        assert_eq!(c, self.in_channels, "gru channel mismatch");
        let (out, cache) = if self.seq1_exact(input.as_slice()) {
            self.forward_seq1(input, b, mode)
        } else {
            let (out, step) = self.reference_forward_with_cache(input);
            (
                out,
                (mode == Mode::Train).then(|| GruCache::Step(Box::new(step))),
            )
        };
        self.cache = cache;
        self.input_shape = Some(input.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("gru backward before forward");
        let shape = self.input_shape.clone().expect("gru input shape");
        let (b, _) = seq1(&shape);
        let dy = grad_out.as_slice();
        assert_eq!(dy.len(), b * self.units, "gru grad length");
        let dx = match &cache {
            GruCache::Step(step) => self.backward_step(step, grad_out),
            GruCache::Seq1 { x, zh } => match self.backward_seq1(x.as_slice(), zh, dy, b) {
                Some(dx) => dx,
                // A skipped product may be non-finite: rerun the step on the
                // per-gate path, which computes every product.
                None => {
                    let (_, step) = self.reference_forward_with_cache(x);
                    self.backward_step(&step, grad_out)
                }
            },
        };
        self.cache = Some(cache);
        Tensor::from_vec(shape, dx).expect("gru dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.seq1.fresh = false;
        self.params().into()
    }

    fn name(&self) -> &'static str {
        "gru"
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
    fn output_shape_returns_sequences() {
        let mut rng = SeededRng::new(0);
        let mut gru = Gru::new(3, 5, &mut rng);
        let y = gru.forward(&Tensor::zeros(vec![2, 1, 3]), Mode::Train);
        assert_eq!(y.shape(), &[2, 1, 5]);
    }

    #[test]
    fn zero_input_zero_weights_gives_zero_output() {
        let mut rng = SeededRng::new(0);
        let mut gru = Gru::new(2, 2, &mut rng);
        for p in gru.params_mut() {
            p.value.fill_zero();
        }
        let y = gru.forward(&Tensor::zeros(vec![1, 1, 2]), Mode::Train);
        // z = hardσ(0) = 0.5, hh = tanh(0) = 0, h = 0.5·h₀ = 0.
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradcheck_gru_seq1() {
        let mut rng = SeededRng::new(2);
        let gru = Gru::new(3, 3, &mut rng);
        check_layer(gru, &[2, 1, 3], 61, 3e-2);
    }

    #[test]
    fn gradcheck_gru_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Gru::new(2, 3, &mut SeededRng::new(3)),
            &[2, 1, 2],
            63,
            3e-2,
        );
    }

    #[test]
    fn rank2_input_is_seq1() {
        let mut rng = SeededRng::new(4);
        let mut gru = Gru::new(3, 4, &mut rng);
        let y = gru.forward(&Tensor::ones(vec![2, 3]), Mode::Train);
        assert_eq!(y.shape(), &[2, 1, 4]);
    }

    #[test]
    fn has_nine_parameter_tensors_one_param_layer() {
        let mut rng = SeededRng::new(5);
        let mut gru = Gru::new(3, 4, &mut rng);
        assert_eq!(gru.params_mut().len(), 9);
        assert_eq!(gru.param_layer_count(), 1);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Sequence length 1 takes the h₀ = 0 step, which must agree with the
    /// reference to the bit, forward, backward and parameter gradients.
    #[test]
    fn seq1_train_step_bit_matches_reference() {
        let mut rng = SeededRng::new(7);
        let mut gru = Gru::new(3, 5, &mut rng);
        let x = Init::GlorotUniform.tensor(vec![4, 1, 3], (3, 5), &mut rng);
        let g = Init::GlorotUniform.tensor(vec![4, 1, 5], (3, 5), &mut rng);
        let (ref_y, ref_dx, ref_grads) = gru.reference_fwd_bwd(&x, &g);
        let y = gru.forward(&x, Mode::Train);
        assert!(
            matches!(gru.cache, Some(GruCache::Seq1 { .. })),
            "seq-1 step not taken"
        );
        let dx = gru.backward(&g);
        assert_eq!(bits(&y), bits(&ref_y), "forward drifted");
        assert_eq!(bits(&dx), bits(&ref_dx), "dx drifted");
        for (p, want) in gru.params_mut().into_iter().zip(&ref_grads) {
            assert_eq!(bits(p.grad()), bits(want), "param grad drifted");
        }
    }

    /// An Eval forward at sequence length 1 matches the reference forward
    /// and keeps no backward cache.
    #[test]
    fn seq1_eval_forward_bit_matches_reference() {
        let mut rng = SeededRng::new(8);
        let mut gru = Gru::new(3, 5, &mut rng);
        let x = Init::GlorotUniform.tensor(vec![4, 1, 3], (3, 5), &mut rng);
        let y = gru.forward(&x, Mode::Eval);
        assert!(gru.cache.is_none(), "eval forward kept a backward cache");
        assert_eq!(bits(&y), bits(&gru.forward_reference(&x)));
    }

    /// The cached `[Wz | Wh]` panels follow a weight edit made through
    /// `params_mut()` between two Eval forwards.
    #[test]
    fn seq1_weight_cache_follows_params_mut() {
        let mut rng = SeededRng::new(9);
        let mut gru = Gru::new(3, 4, &mut rng);
        let x = Init::GlorotUniform.tensor(vec![2, 1, 3], (3, 4), &mut rng);
        let before = gru.forward(&x, Mode::Eval);
        for p in gru.params_mut() {
            p.value.scale(0.5);
        }
        let after = gru.forward(&x, Mode::Eval);
        assert_ne!(bits(&after), bits(&before), "stale weights served");
        assert_eq!(bits(&after), bits(&gru.forward_reference(&x)));
    }

    /// A checkpoint load replaces the weights the cached panels came from.
    #[test]
    fn seq1_weight_cache_follows_checkpoint_load() {
        let mut src = Gru::new(3, 4, &mut SeededRng::new(10));
        let mut dst = Gru::new(3, 4, &mut SeededRng::new(11));
        let x = Init::GlorotUniform.tensor(vec![2, 1, 3], (3, 4), &mut SeededRng::new(12));
        let stale = dst.forward(&x, Mode::Eval);
        let bytes = crate::io::params_to_bytes(&mut src);
        crate::io::params_from_bytes(&mut dst, &bytes).expect("load");
        let loaded = dst.forward(&x, Mode::Eval);
        assert_ne!(bits(&loaded), bits(&stale), "stale weights served");
        assert_eq!(bits(&loaded), bits(&src.forward(&x, Mode::Eval)));
    }

    /// The seq-1 step runs only the live GEMMs, and the FLOP counters see
    /// only those: `x·[Wz|Wh]` forward; `[dz|dh̃]·[Wz|Wh]ᵀ` and
    /// `xᵀ·[dz|dh̃]` backward.
    #[test]
    fn seq1_step_counts_only_the_live_gemms() {
        let (b, c, u) = (3usize, 4usize, 5usize);
        let mut rng = SeededRng::new(17);
        let mut gru = Gru::new(c, u, &mut rng);
        let x = Init::GlorotUniform.tensor(vec![b, 1, c], (c, u), &mut rng);
        let g = Init::GlorotUniform.tensor(vec![b, 1, u], (c, u), &mut rng);
        let rec = std::sync::Arc::new(pelican_observe::InMemoryRecorder::new());
        pelican_observe::with_recorder(rec.clone(), || {
            gru.forward(&x, Mode::Train);
            gru.backward(&g);
        });
        assert_eq!(rec.counter("tensor.matmul_calls"), 3);
        assert_eq!(
            rec.counter("tensor.matmul_flops"),
            3 * 2 * (b * c * 2 * u) as u64
        );
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_eval_only_forward_panics() {
        let mut gru = Gru::new(3, 4, &mut SeededRng::new(13));
        gru.forward(&Tensor::ones(vec![2, 1, 3]), Mode::Eval);
        gru.backward(&Tensor::ones(vec![2, 1, 4]));
    }

    /// An Eval forward drops the cache of an earlier Train forward, so a
    /// backward cannot silently use activations of a different input.
    #[test]
    #[should_panic(expected = "backward before forward")]
    fn eval_forward_clears_a_stale_train_cache() {
        let mut gru = Gru::new(3, 4, &mut SeededRng::new(14));
        let x = Tensor::ones(vec![2, 1, 3]);
        gru.forward(&x, Mode::Train);
        gru.forward(&x, Mode::Eval);
        gru.backward(&Tensor::ones(vec![2, 1, 4]));
    }
}

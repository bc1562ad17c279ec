//! Reference layers: the `BatchNorm`, `Dropout`, `Activation` and
//! `MaxPool1d` forward and backward passes as they ran before each became
//! one zipped, branch-free pass per tensor, and the seed `Conv1d`, one
//! gather + tensor product + scatter-add per kernel tap. Each struct holds
//! the state its layer holds, under public fields where a test sets or
//! reads it. `tests/kernel_equivalence.rs` checks the layers against them
//! bit for bit. Nothing outside tests uses them.
//!
//! One line differs from the old code on purpose: `MaxPool1dRef` starts
//! each window's `best_idx` at the window's first element, not at element
//! 0 of the batch, so a window with nothing above −∞ routes its gradient
//! into itself. That was a bug fix, not a rewrite.

// Each including crate uses a different subset.
#![allow(dead_code)]

use pelican_nn::{ActivationKind, Mode};
use pelican_tensor::{SeededRng, Tensor};

fn btc(shape: &[usize]) -> (usize, usize, usize) {
    match shape {
        [b, c] => (*b, 1, *c),
        [b, t, c] => (*b, *t, *c),
        other => panic!("expected rank-2 or rank-3 input, got shape {other:?}"),
    }
}

/// `BatchNorm::new(channels)`: momentum 0.9, eps 1e-5.
pub struct BatchNormRef {
    pub gamma: Tensor,
    pub beta: Tensor,
    pub gamma_grad: Tensor,
    pub beta_grad: Tensor,
    pub running_mean: Tensor,
    pub running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    input_shape: Vec<usize>,
}

impl BatchNormRef {
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Tensor::ones(vec![channels]),
            beta: Tensor::zeros(vec![channels]),
            gamma_grad: Tensor::zeros(vec![channels]),
            beta_grad: Tensor::zeros(vec![channels]),
            running_mean: Tensor::zeros(vec![channels]),
            running_var: Tensor::ones(vec![channels]),
            momentum: 0.9,
            eps: 1e-5,
            cache: None,
        }
    }

    fn channels(&self) -> usize {
        self.gamma.len()
    }

    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert_eq!(c, self.channels(), "batchnorm channel mismatch");
        let flat = input.reshape(vec![b * t, c]).expect("bn flatten");

        match mode {
            Mode::Train => {
                let mean = flat.mean_axis0().expect("bn mean");
                let var = flat.var_axis0().expect("bn var");
                let inv_std: Vec<f32> = var
                    .as_slice()
                    .iter()
                    .map(|v| 1.0 / (v + self.eps).sqrt())
                    .collect();

                let mut xhat = flat.clone();
                for row in xhat.as_mut_slice().chunks_mut(c) {
                    for ((v, &mu), &is) in row.iter_mut().zip(mean.as_slice()).zip(&inv_std) {
                        *v = (*v - mu) * is;
                    }
                }

                let mom = self.momentum;
                for (r, &bm) in self
                    .running_mean
                    .as_mut_slice()
                    .iter_mut()
                    .zip(mean.as_slice())
                {
                    *r = mom * *r + (1.0 - mom) * bm;
                }
                for (r, &bv) in self
                    .running_var
                    .as_mut_slice()
                    .iter_mut()
                    .zip(var.as_slice())
                {
                    *r = mom * *r + (1.0 - mom) * bv;
                }

                let mut y = xhat.clone();
                for row in y.as_mut_slice().chunks_mut(c) {
                    for ((v, &g), &be) in row
                        .iter_mut()
                        .zip(self.gamma.as_slice())
                        .zip(self.beta.as_slice())
                    {
                        *v = *v * g + be;
                    }
                }
                self.cache = Some(BnCache {
                    xhat,
                    inv_std,
                    input_shape: input.shape().to_vec(),
                });
                y.reshape(input.shape().to_vec()).expect("bn unflatten")
            }
            Mode::Eval => {
                let mut y = flat;
                for row in y.as_mut_slice().chunks_mut(c) {
                    for (j, v) in row.iter_mut().enumerate() {
                        let mu = self.running_mean.as_slice()[j];
                        let var = self.running_var.as_slice()[j];
                        let g = self.gamma.as_slice()[j];
                        let be = self.beta.as_slice()[j];
                        *v = (*v - mu) / (var + self.eps).sqrt() * g + be;
                    }
                }
                self.cache = None;
                y.reshape(input.shape().to_vec()).expect("bn unflatten")
            }
        }
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("batchnorm backward requires a training-mode forward");
        let c = self.channels();
        let shape = cache.input_shape.clone();
        let (b, t, _) = btc(&shape);
        let m = (b * t) as f32;
        let dy = grad_out.reshape(vec![b * t, c]).expect("bn grad flatten");

        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for (row, xrow) in dy.as_slice().chunks(c).zip(cache.xhat.as_slice().chunks(c)) {
            for j in 0..c {
                sum_dy[j] += row[j];
                sum_dy_xhat[j] += row[j] * xrow[j];
            }
        }

        for j in 0..c {
            self.gamma_grad.as_mut_slice()[j] += sum_dy_xhat[j];
            self.beta_grad.as_mut_slice()[j] += sum_dy[j];
        }

        let mut dx = Tensor::zeros(vec![(m as usize), c]);
        for ((dxrow, dyrow), xrow) in dx
            .as_mut_slice()
            .chunks_mut(c)
            .zip(dy.as_slice().chunks(c))
            .zip(cache.xhat.as_slice().chunks(c))
        {
            for j in 0..c {
                let g = self.gamma.as_slice()[j];
                dxrow[j] = g * cache.inv_std[j] / m
                    * (m * dyrow[j] - sum_dy[j] - xrow[j] * sum_dy_xhat[j]);
            }
        }
        dx.reshape(shape).expect("bn grad unflatten")
    }
}

/// `Dropout::new(rate, seed)`.
pub struct DropoutRef {
    rate: f32,
    rng: SeededRng,
    mask: Option<Tensor>,
}

impl DropoutRef {
    pub fn new(rate: f32, seed: u64) -> Self {
        Self {
            rate,
            rng: SeededRng::new(seed),
            mask: None,
        }
    }

    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval || self.rate == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.uniform() < self.rate {
                    0.0
                } else {
                    scale
                }
            })
            .collect();
        let mask = Tensor::from_vec(input.shape().to_vec(), mask_data).expect("mask shape");
        let out = input.zip_map(&mask, |x, m| x * m).expect("mask shape");
        self.mask = Some(mask);
        out
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_out.zip_map(mask, |g, m| g * m).expect("mask shape"),
            None => grad_out.clone(),
        }
    }
}

/// `Activation::new(kind)`.
pub struct ActivationRef {
    kind: ActivationKind,
    input: Option<Tensor>,
}

impl ActivationRef {
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, input: None }
    }

    pub fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.input = Some(input.clone());
        input.map(|v| self.kind.apply(v))
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .input
            .as_ref()
            .expect("activation backward before forward");
        input
            .zip_map(grad_out, |x, g| g * self.kind.derivative(x))
            .expect("activation gradient shape")
    }
}

/// `MaxPool1d::new(pool)`.
pub struct MaxPool1dRef {
    pool: usize,
    argmax: Option<Vec<usize>>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool1dRef {
    pub fn new(pool: usize) -> Self {
        Self {
            pool,
            argmax: None,
            input_shape: None,
        }
    }

    pub fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (b, t, c) = btc(input.shape());
        assert!(
            t >= self.pool,
            "sequence length {t} shorter than pool size {}",
            self.pool
        );
        let t_out = t / self.pool;
        let x = input.as_slice();
        let mut out = vec![0.0f32; b * t_out * c];
        let mut argmax = vec![0usize; b * t_out * c];
        for bi in 0..b {
            for to in 0..t_out {
                for ci in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    // The bug fix: the window's first element, not 0.
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
        self.argmax = Some(argmax);
        self.input_shape = Some(input.shape().to_vec());
        Tensor::from_vec(vec![b, t_out, c], out).expect("pool out shape")
    }

    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .as_ref()
            .expect("maxpool backward before forward");
        let shape = self.input_shape.clone().expect("input shape cached");
        let mut dx = Tensor::zeros(shape);
        for (g, &idx) in grad_out.as_slice().iter().zip(argmax) {
            dx.as_mut_slice()[idx] += g;
        }
        dx
    }
}

/// The seed `Conv1d` over the weight `[kernel, c_in, c_out]` and bias
/// `[c_out]` it is given: per kernel tap, gather the input rows the tap
/// reads, one tensor product with the tap's `[c_in, c_out]` slab, and a
/// scatter-add onto the output rows, in ascending tap order.
pub struct Conv1dRef {
    weight: Tensor,
    bias: Tensor,
    kernel: usize,
    in_channels: usize,
    out_channels: usize,
}

impl Conv1dRef {
    pub fn new(weight: Tensor, bias: Tensor) -> Self {
        let [kernel, in_channels, out_channels] = weight.shape() else {
            panic!("conv weight must be [kernel, c_in, c_out]");
        };
        let (kernel, in_channels, out_channels) = (*kernel, *in_channels, *out_channels);
        Self {
            weight,
            bias,
            kernel,
            in_channels,
            out_channels,
        }
    }

    fn pad_left(&self) -> isize {
        ((self.kernel - 1) / 2) as isize
    }

    fn weight_tap(&self, k: usize) -> Tensor {
        let size = self.in_channels * self.out_channels;
        let data = self.weight.as_slice()[k * size..(k + 1) * size].to_vec();
        Tensor::from_vec(vec![self.in_channels, self.out_channels], data).expect("tap shape")
    }

    pub fn forward(&self, input: &Tensor) -> Tensor {
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
        out.add_row_bias(&self.bias).expect("conv bias");
        out.reshape(vec![b, t, self.out_channels])
            .expect("conv out")
    }

    /// Returns `(dx, dweight, dbias)`.
    pub fn backward(&self, input: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor, Tensor) {
        let (b, t, c) = btc(input.shape());
        let pad = self.pad_left();
        let flat_in = input.reshape(vec![b * t, c]).expect("conv flatten");
        let dy = grad_out
            .reshape(vec![b * t, self.out_channels])
            .expect("conv grad flatten");
        let db = dy.sum_axis0().expect("conv db");
        let mut dweight = Tensor::zeros(self.weight.shape().to_vec());
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

//! Vanilla (Elman) recurrent layer — the simplest recurrent baseline.

use super::btc;
use crate::{Layer, Mode, Param};
use pelican_tensor::{math, Init, SeededRng, Tensor};

/// Simple tanh RNN over `[batch, time, channels]`, returning the hidden
/// sequence: `h_t = tanh(x_t·W + h_{t-1}·U + b)`.
///
/// Included as the recurrent-baseline floor under GRU/LSTM: it shares the
/// Pelican block's interface but lacks gating, so its vanishing-gradient
/// behaviour is the textbook worst case.
///
/// ```
/// use pelican_nn::{Layer, Mode, SimpleRnn};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut rnn = SimpleRnn::new(3, 5, &mut rng);
/// let y = rnn.forward(&Tensor::zeros(vec![2, 4, 3]), Mode::Train);
/// assert_eq!(y.shape(), &[2, 4, 5]);
/// ```
#[derive(Debug)]
pub struct SimpleRnn {
    wx: Param, // [in, units]
    wh: Param, // [units, units]
    b: Param,  // [units]
    in_channels: usize,
    units: usize,
    cache: Option<Vec<StepCache>>,
    input_shape: Option<Vec<usize>>,
}

#[derive(Debug)]
struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    h: Tensor, // post-tanh
}

impl SimpleRnn {
    /// Creates an RNN with `in_channels` inputs and `units` hidden units.
    pub fn new(in_channels: usize, units: usize, rng: &mut SeededRng) -> Self {
        Self {
            wx: Param::new(Init::GlorotUniform.tensor(
                vec![in_channels, units],
                (in_channels, units),
                rng,
            )),
            wh: Param::new(Init::GlorotUniform.tensor(vec![units, units], (units, units), rng)),
            b: Param::new(Tensor::zeros(vec![units])),
            in_channels,
            units,
            cache: None,
            input_shape: None,
        }
    }

    /// Hidden width.
    pub fn units(&self) -> usize {
        self.units
    }
}

impl Layer for SimpleRnn {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (bsz, t, c) = btc(input.shape());
        assert_eq!(c, self.in_channels, "rnn channel mismatch");
        let flat = input.reshape(vec![bsz * t, c]).expect("rnn flatten");
        let u = self.units;

        let mut h = Tensor::zeros(vec![bsz, u]);
        let mut cache = Vec::with_capacity(t);
        let mut out = Tensor::zeros(vec![bsz, t, u]);
        for ti in 0..t {
            let rows: Vec<usize> = (0..bsz).map(|bi| bi * t + ti).collect();
            let x = flat.gather_rows(&rows);
            let mut pre = x.matmul(&self.wx.value).expect("x·W");
            pre.add_assign(&h.matmul(&self.wh.value).expect("h·U"))
                .expect("pre add");
            pre.add_row_bias(&self.b.value).expect("bias");
            let h_new = pre.map(math::tanh);
            for bi in 0..bsz {
                let src = &h_new.as_slice()[bi * u..(bi + 1) * u];
                let dst = &mut out.as_mut_slice()[(bi * t + ti) * u..(bi * t + ti + 1) * u];
                dst.copy_from_slice(src);
            }
            cache.push(StepCache {
                x,
                h_prev: h,
                h: h_new.clone(),
            });
            h = h_new;
        }
        self.cache = Some(cache);
        self.input_shape = Some(input.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("rnn backward before forward");
        let shape = self.input_shape.clone().expect("rnn input shape");
        let (bsz, t, c) = btc(&shape);
        let u = self.units;
        let dy = grad_out
            .reshape(vec![bsz * t, u])
            .expect("rnn grad flatten");

        let mut dx = Tensor::zeros(vec![bsz * t, c]);
        let mut dh_carry = Tensor::zeros(vec![bsz, u]);
        for ti in (0..t).rev() {
            let step = &cache[ti];
            let rows: Vec<usize> = (0..bsz).map(|bi| bi * t + ti).collect();
            let mut dh = dy.gather_rows(&rows);
            dh.add_assign(&dh_carry).expect("dh carry");

            // Through tanh: dpre = dh ⊙ (1 − h²).
            let dpre = step
                .h
                .zip_map(&dh, |hv, g| g * (1.0 - hv * hv))
                .expect("dpre");

            self.wx
                .grad
                .add_assign(&step.x.matmul_at(&dpre).expect("dWx"))
                .expect("dWx shape");
            self.wh
                .grad
                .add_assign(&step.h_prev.matmul_at(&dpre).expect("dWh"))
                .expect("dWh shape");
            self.b
                .grad
                .add_assign(&dpre.sum_axis0().expect("db"))
                .expect("db shape");

            let dxt = dpre.matmul_bt(&self.wx.value).expect("dx");
            for (bi, &row) in rows.iter().enumerate() {
                let src = &dxt.as_slice()[bi * c..(bi + 1) * c];
                dx.as_mut_slice()[row * c..(row + 1) * c].copy_from_slice(src);
            }
            dh_carry = dpre.matmul_bt(&self.wh.value).expect("dh_prev");
        }
        dx.reshape(shape).expect("rnn dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "simple_rnn"
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
        let mut rnn = SimpleRnn::new(3, 4, &mut rng);
        let y = rnn.forward(&Tensor::zeros(vec![2, 5, 3]), Mode::Train);
        assert_eq!(y.shape(), &[2, 5, 4]);
        assert_eq!(rnn.units(), 4);
    }

    #[test]
    fn state_carries_between_steps() {
        let mut rng = SeededRng::new(1);
        let mut rnn = SimpleRnn::new(1, 1, &mut rng);
        rnn.wx.value = Tensor::ones(vec![1, 1]);
        rnn.wh.value = Tensor::ones(vec![1, 1]);
        let x = Tensor::from_vec(vec![1, 2, 1], vec![2.0, 0.0]).unwrap();
        let y = rnn.forward(&x, Mode::Train);
        let h0 = 2.0f32.tanh();
        assert!((y.as_slice()[0] - h0).abs() < 1e-6);
        assert!((y.as_slice()[1] - h0.tanh()).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_rnn_seq1() {
        let mut rng = SeededRng::new(2);
        check_layer(SimpleRnn::new(3, 3, &mut rng), &[2, 1, 3], 95, 3e-2);
    }

    #[test]
    fn gradcheck_rnn_seq4_bptt() {
        let mut rng = SeededRng::new(3);
        check_layer(SimpleRnn::new(2, 3, &mut rng), &[2, 4, 2], 97, 3e-2);
    }

    #[test]
    fn three_parameter_tensors() {
        let mut rng = SeededRng::new(4);
        let mut rnn = SimpleRnn::new(2, 3, &mut rng);
        assert_eq!(rnn.params_mut().len(), 3);
        assert_eq!(rnn.param_layer_count(), 1);
    }
}

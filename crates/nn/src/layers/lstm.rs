//! Long short-term memory layer (comparison baseline).

use super::{add_to_grad, seq1};
use crate::{ActivationKind, Layer, Mode, Param};
use pelican_tensor::{math, Init, SeededRng, Tensor};

/// LSTM over `[batch, 1, channels]` (or `[batch, channels]`), returning the
/// hidden-state sequence `[batch, 1, units]`.
///
/// Used for the Table-V LSTM baseline and inside the HAST-IDS comparator.
/// The paper notes "LSTM is similar to GRU we used in our residual block
/// but LSTM has a higher computing cost" (Section V-H) — this
/// implementation indeed carries one more gate and a cell state.
///
/// Gate equations (standard, logistic gates, tanh activations):
///
/// ```text
/// i_t = σ(x·W_i + h·U_i + b_i)    f_t = σ(x·W_f + h·U_f + b_f)
/// o_t = σ(x·W_o + h·U_o + b_o)    g_t = tanh(x·W_g + h·U_g + b_g)
/// c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
/// h_t = o_t ⊙ tanh(c_t)
/// ```
///
/// On the paper's one-step input the step starts from h₀ = c₀ = 0. Every
/// product with them is still computed, so a non-finite recurrent weight
/// reaches the output and the gradients as the equations say.
///
/// ```
/// use pelican_nn::{Layer, Lstm, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut lstm = Lstm::new(4, 6, &mut rng);
/// let y = lstm.forward(&Tensor::zeros(vec![2, 1, 4]), Mode::Train);
/// assert_eq!(y.shape(), &[2, 1, 6]);
/// ```
#[derive(Debug)]
pub struct Lstm {
    // Gate order: i, f, o, g.
    wx: [Param; 4],
    wh: [Param; 4],
    b: [Param; 4],
    in_channels: usize,
    units: usize,
    cache: Option<StepCache>,
    input_shape: Option<Vec<usize>>,
}

#[derive(Debug)]
struct StepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    gates: [Tensor; 4], // post-activation i, f, o, g
    c: Tensor,
}

impl Lstm {
    /// Creates an LSTM with `in_channels` inputs and `units` hidden units.
    ///
    /// The forget-gate bias is initialised to 1, the standard trick to keep
    /// early memory open.
    pub fn new(in_channels: usize, units: usize, rng: &mut SeededRng) -> Self {
        let wx = std::array::from_fn(|_| {
            Param::new(Init::GlorotUniform.tensor(
                vec![in_channels, units],
                (in_channels, units),
                rng,
            ))
        });
        let wh = std::array::from_fn(|_| {
            Param::new(Init::GlorotUniform.tensor(vec![units, units], (units, units), rng))
        });
        let mut b: [Param; 4] = std::array::from_fn(|_| Param::new(Tensor::zeros(vec![units])));
        b[1].value = Tensor::ones(vec![units]); // forget gate
        Self {
            wx,
            wh,
            b,
            in_channels,
            units,
            cache: None,
            input_shape: None,
        }
    }
}

const GATE_ACT: [ActivationKind; 4] = [
    ActivationKind::Sigmoid,
    ActivationKind::Sigmoid,
    ActivationKind::Sigmoid,
    ActivationKind::Tanh,
];

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (bsz, cin) = seq1(input.shape());
        assert_eq!(cin, self.in_channels, "lstm channel mismatch");
        let x = input.reshape(vec![bsz, cin]).expect("lstm flatten");
        let u = self.units;
        let h = Tensor::zeros(vec![bsz, u]);
        let c = Tensor::zeros(vec![bsz, u]);

        let mut gates: [Tensor; 4] = std::array::from_fn(|gi| {
            let mut pre = x.matmul(&self.wx[gi].value).expect("lstm x·W");
            pre.add_assign(&h.matmul(&self.wh[gi].value).expect("lstm h·U"))
                .expect("pre add");
            pre.add_row_bias(&self.b[gi].value).expect("pre bias");
            pre
        });
        for (gi, g) in gates.iter_mut().enumerate() {
            g.map_in_place(|v| GATE_ACT[gi].apply(v));
        }
        let [i, f, o, g] = &gates;

        let c_new = f
            .zip_map(&c, |fv, cv| fv * cv)
            .expect("f⊙c")
            .zip_map(&i.zip_map(g, |iv, gv| iv * gv).expect("i⊙g"), |a, b| {
                a + b
            })
            .expect("c update");
        let h_new = o
            .zip_map(&c_new, |ov, cv| ov * math::tanh(cv))
            .expect("h update");

        self.cache = Some(StepCache {
            x,
            h_prev: h,
            c_prev: c,
            gates,
            c: c_new,
        });
        self.input_shape = Some(input.shape().to_vec());
        h_new.into_shape(vec![bsz, 1, u]).expect("lstm output")
    }

    /// The gradient into h₀ and c₀ is never formed: nothing reads it. The
    /// `+ 0.0` terms are the zero gradients a later step would carry,
    /// which turn −0.0 into +0.0.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let step = self.cache.as_ref().expect("lstm backward before forward");
        let shape = self.input_shape.clone().expect("lstm input shape");
        let (bsz, cin) = seq1(&shape);
        let u = self.units;
        let dh = grad_out
            .reshape(vec![bsz, u])
            .expect("lstm grad flatten")
            .map(|g| g + 0.0);

        let [i, f, o, g] = &step.gates;
        let tanh_c = step.c.map(math::tanh);

        // h = o ⊙ tanh(c)
        let do_post = dh.zip_map(&tanh_c, |a, b| a * b).expect("do");
        let dc = dh
            .zip_map(o, |a, b| a * b)
            .expect("dh⊙o")
            .zip_map(&tanh_c, |a, tc| a * (1.0 - tc * tc) + 0.0)
            .expect("dc via h");

        // c = f⊙c_prev + i⊙g
        let df_post = dc.zip_map(&step.c_prev, |a, b| a * b).expect("df");
        let di_post = dc.zip_map(g, |a, b| a * b).expect("di");
        let dg_post = dc.zip_map(i, |a, b| a * b).expect("dg");

        // Through the gate nonlinearities (using post-activation values:
        // σ' = s(1-s), tanh' = 1-g²).
        let di_pre = di_post
            .zip_map(i, |gr, s| gr * s * (1.0 - s))
            .expect("di_pre");
        let df_pre = df_post
            .zip_map(f, |gr, s| gr * s * (1.0 - s))
            .expect("df_pre");
        let do_pre = do_post
            .zip_map(o, |gr, s| gr * s * (1.0 - s))
            .expect("do_pre");
        let dg_pre = dg_post
            .zip_map(g, |gr, gv| gr * (1.0 - gv * gv))
            .expect("dg_pre");
        let pres = [&di_pre, &df_pre, &do_pre, &dg_pre];

        let mut dx = Tensor::zeros(vec![bsz, cin]);
        for (gi, dpre) in pres.iter().enumerate() {
            dx.add_assign(&dpre.matmul_bt(&self.wx[gi].value).expect("dx via W"))
                .expect("dx add");
            add_to_grad(&mut self.wx[gi], &step.x.matmul_at(dpre).expect("dW"));
            add_to_grad(&mut self.wh[gi], &step.h_prev.matmul_at(dpre).expect("dU"));
            add_to_grad(&mut self.b[gi], &dpre.sum_axis0().expect("db"));
        }
        dx.into_shape(shape).expect("lstm dx shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::with_capacity(12);
        out.extend(self.wx.iter_mut());
        out.extend(self.wh.iter_mut());
        out.extend(self.b.iter_mut());
        out
    }

    fn name(&self) -> &'static str {
        "lstm"
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
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let y = lstm.forward(&Tensor::zeros(vec![2, 1, 3]), Mode::Train);
        assert_eq!(y.shape(), &[2, 1, 5]);
    }

    #[test]
    fn gradcheck_lstm_seq1() {
        let mut rng = SeededRng::new(2);
        let lstm = Lstm::new(3, 3, &mut rng);
        check_layer(lstm, &[2, 1, 3], 71, 3e-2);
    }

    #[test]
    fn forget_bias_starts_at_one() {
        let mut rng = SeededRng::new(4);
        let lstm = Lstm::new(2, 3, &mut rng);
        assert!(lstm.b[1].value.as_slice().iter().all(|&v| v == 1.0));
        assert!(lstm.b[0].value.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn twelve_parameter_tensors() {
        let mut rng = SeededRng::new(5);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        assert_eq!(lstm.params_mut().len(), 12);
    }
}

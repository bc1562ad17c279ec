//! Fully-connected layer.

use super::add_to_grad;
use crate::{Layer, Mode, Param};
use pelican_tensor::{Init, SeededRng, Tensor};

/// Fully-connected layer: `y = x·W + b` on `[batch, in]` inputs.
///
/// Weights use Glorot-uniform initialisation, biases start at zero — the
/// Keras defaults the paper's setup inherits.
///
/// ```
/// use pelican_nn::{Dense, Layer, Mode};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut dense = Dense::new(3, 2, &mut rng);
/// let y = dense.forward(&Tensor::zeros(vec![4, 3]), Mode::Eval);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        let weight = Init::GlorotUniform.tensor(
            vec![in_features, out_features],
            (in_features, out_features),
            rng,
        );
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_features])),
            input: None,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let mut y = input
            .matmul(&self.weight.value)
            .unwrap_or_else(|e| panic!("dense forward: {e}"));
        y.add_row_bias(&self.bias.value).expect("bias width");
        self.input = Some(input.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("dense backward before forward");
        let dw = input
            .matmul_at(grad_out)
            .unwrap_or_else(|e| panic!("dense backward dW: {e}"));
        add_to_grad(&mut self.weight, &dw);
        let db = grad_out.sum_axis0().expect("dY rank");
        add_to_grad(&mut self.bias, &db);
        grad_out
            .matmul_bt(&self.weight.value)
            .unwrap_or_else(|e| panic!("dense backward dX: {e}"))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "dense"
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
    fn forward_known_values() {
        let mut rng = SeededRng::new(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        d.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        d.bias.value = Tensor::from_vec(vec![2], vec![10., 20.]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1., 1.]).unwrap();
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[14., 26.]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = SeededRng::new(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::ones(vec![4, 3]);
        d.forward(&x, Mode::Train);
        let dy = Tensor::ones(vec![4, 2]);
        let dx = d.backward(&dy);
        assert_eq!(dx.shape(), &[4, 3]);
        // db = column sums of dy = 4 each.
        assert_eq!(d.bias.grad().as_slice(), &[4.0, 4.0]);
        // Second backward accumulates.
        d.forward(&x, Mode::Train);
        d.backward(&dy);
        assert_eq!(d.bias.grad().as_slice(), &[8.0, 8.0]);
    }

    #[test]
    fn gradcheck_dense() {
        let mut rng = SeededRng::new(7);
        let layer = Dense::new(5, 4, &mut rng);
        check_layer(layer, &[3, 5], 11, 2e-2);
    }

    #[test]
    fn gradcheck_dense_pooled() {
        crate::gradcheck::check_layer_pooled(
            || Dense::new(5, 4, &mut SeededRng::new(7)),
            &[3, 5],
            11,
            2e-2,
        );
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.backward(&Tensor::zeros(vec![1, 2]));
    }

    #[test]
    fn reports_single_param_layer() {
        let mut rng = SeededRng::new(0);
        let d = Dense::new(2, 2, &mut rng);
        assert_eq!(d.param_layer_count(), 1);
        assert_eq!(d.in_features(), 2);
        assert_eq!(d.out_features(), 2);
    }
}

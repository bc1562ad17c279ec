//! Elementwise activation functions.

use crate::{Layer, Mode};
use pelican_tensor::{math, Tensor};

/// The activation functions the paper's networks use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)` — after every convolution.
    Relu,
    /// Hyperbolic tangent — the GRU output activation.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^-x)` — LSTM gates.
    Sigmoid,
    /// Keras hard sigmoid `clamp(0.2x + 0.5, 0, 1)` — the GRU recurrent
    /// activation.
    HardSigmoid,
}

impl ActivationKind {
    /// Applies the function to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => math::tanh(x),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::HardSigmoid => (0.2 * x + 0.5).clamp(0.0, 1.0),
        }
    }

    /// Derivative expressed in terms of the pre-activation `x`.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => {
                let t = math::tanh(x);
                1.0 - t * t
            }
            ActivationKind::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            ActivationKind::HardSigmoid => {
                if (-2.5..2.5).contains(&x) {
                    0.2
                } else {
                    0.0
                }
            }
        }
    }
}

/// Elementwise activation layer of any [`ActivationKind`].
///
/// ```
/// use pelican_nn::{Activation, ActivationKind, Layer, Mode};
/// use pelican_tensor::Tensor;
///
/// let mut relu = Activation::new(ActivationKind::Relu);
/// let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 2.0])?;
/// assert_eq!(relu.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 2.0]);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    input: Option<Tensor>,
}

impl Activation {
    /// Creates the activation layer.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, input: None }
    }

    /// The wrapped function.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

/// Evaluates `$body` with `$k` bound to `$kind` as a constant variant, so
/// the `match` inside [`ActivationKind::apply`] and
/// [`ActivationKind::derivative`] folds away once per call instead of
/// running per element, and loops like ReLU's vectorise.
macro_rules! with_kind {
    ($kind:expr, |$k:ident| $body:expr) => {
        with_kind!($kind, $k, $body; Relu, Tanh, Sigmoid, HardSigmoid)
    };
    ($kind:expr, $k:ident, $body:expr; $($variant:ident),*) => {
        match $kind {
            $(ActivationKind::$variant => {
                let $k = ActivationKind::$variant;
                $body
            })*
        }
    };
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.input = Some(input.clone());
        with_kind!(self.kind, |k| input.map(|v| k.apply(v)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .input
            .as_ref()
            .expect("activation backward before forward");
        with_kind!(self.kind, |k| input
            .zip_map(grad_out, |x, g| g * k.derivative(x)))
        .expect("activation gradient shape")
    }

    fn name(&self) -> &'static str {
        match self.kind {
            ActivationKind::Relu => "relu",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Sigmoid => "sigmoid",
            ActivationKind::HardSigmoid => "hard_sigmoid",
        }
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
    fn relu_clamps_negatives() {
        let mut a = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.0, 1.5, 3.0]).unwrap();
        assert_eq!(a.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 1.5, 3.0]);
    }

    #[test]
    fn hard_sigmoid_saturates() {
        let k = ActivationKind::HardSigmoid;
        assert_eq!(k.apply(-10.0), 0.0);
        assert_eq!(k.apply(10.0), 1.0);
        assert!((k.apply(0.0) - 0.5).abs() < 1e-7);
        assert_eq!(k.derivative(-10.0), 0.0);
        assert_eq!(k.derivative(0.0), 0.2);
    }

    #[test]
    fn sigmoid_and_tanh_ranges() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            let s = ActivationKind::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
            let t = ActivationKind::Tanh.apply(x);
            assert!((-1.0..=1.0).contains(&t));
        }
    }

    #[test]
    fn gradcheck_tanh() {
        check_layer(Activation::new(ActivationKind::Tanh), &[3, 4], 1, 1e-2);
    }

    #[test]
    fn gradcheck_sigmoid() {
        check_layer(Activation::new(ActivationKind::Sigmoid), &[3, 4], 2, 1e-2);
    }

    #[test]
    fn gradcheck_relu() {
        // ReLU's kink makes FD noisy exactly at 0; the random input avoids it
        // with probability 1.
        check_layer(Activation::new(ActivationKind::Relu), &[3, 4], 3, 2e-2);
    }

    #[test]
    fn preserves_rank3_shapes() {
        let mut a = Activation::new(ActivationKind::Relu);
        let x = Tensor::ones(vec![2, 3, 4]);
        assert_eq!(a.forward(&x, Mode::Train).shape(), &[2, 3, 4]);
        assert_eq!(a.backward(&Tensor::ones(vec![2, 3, 4])).shape(), &[2, 3, 4]);
    }
}

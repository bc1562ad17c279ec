//! Layer composition.

use crate::{Layer, Mode, Param};
use pelican_tensor::Tensor;

/// A stack of layers applied in order.
///
/// `Sequential` is itself a [`Layer`], so stacks nest (the paper's networks
/// are a `Sequential` of residual blocks, each of which wraps an inner
/// `Sequential`).
///
/// ```
/// use pelican_nn::{Activation, ActivationKind, Dense, Layer, Mode, Sequential};
/// use pelican_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 4, &mut rng));
/// net.push(Activation::new(ActivationKind::Relu));
/// assert_eq!(net.len(), 2);
/// assert_eq!(net.forward(&Tensor::zeros(vec![2, 4]), Mode::Eval).shape(), &[2, 4]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the stack (not recursive).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of the layers in order, for summaries.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Total number of scalar trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .finish()
    }
}

impl Layer for Sequential {
    /// The first layer reads `input` itself; only an empty stack copies it.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x: Option<Tensor> = None;
        for layer in &mut self.layers {
            let _span = pelican_observe::span(layer.name());
            x = Some(layer.forward(x.as_ref().unwrap_or(input), mode));
        }
        x.unwrap_or_else(|| input.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g: Option<Tensor> = None;
        for layer in self.layers.iter_mut().rev() {
            let _span = pelican_observe::span(layer.name());
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out)));
        }
        g.unwrap_or_else(|| grad_out.clone())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn param_layer_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_layer_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::{Activation, ActivationKind, Dense};
    use pelican_tensor::SeededRng;

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        let x = Tensor::ones(vec![2, 3]);
        assert_eq!(s.forward(&x, Mode::Train), x);
        assert_eq!(s.backward(&x), x);
        assert!(s.is_empty());
    }

    #[test]
    fn chains_layers_in_order() {
        let mut rng = SeededRng::new(0);
        let mut s = Sequential::new();
        s.push(Dense::new(3, 5, &mut rng));
        s.push(Activation::new(ActivationKind::Relu));
        s.push(Dense::new(5, 2, &mut rng));
        let y = s.forward(&Tensor::zeros(vec![4, 3]), Mode::Train);
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(s.layer_names(), vec!["dense", "relu", "dense"]);
        assert_eq!(s.param_layer_count(), 2);
        // 3*5+5 + 5*2+2 parameters.
        assert_eq!(s.param_count(), 15 + 5 + 10 + 2);
    }

    #[test]
    fn gradcheck_two_layer_stack() {
        let mut rng = SeededRng::new(9);
        let mut s = Sequential::new();
        s.push(Dense::new(4, 6, &mut rng));
        s.push(Activation::new(ActivationKind::Tanh));
        s.push(Dense::new(6, 3, &mut rng));
        check_layer(s, &[2, 4], 17, 2e-2);
    }

    #[test]
    fn backward_propagates_to_input() {
        let mut rng = SeededRng::new(1);
        let mut s = Sequential::new();
        s.push(Dense::new(3, 3, &mut rng));
        s.forward(&Tensor::ones(vec![2, 3]), Mode::Train);
        let dx = s.backward(&Tensor::ones(vec![2, 3]));
        assert_eq!(dx.shape(), &[2, 3]);
    }
}

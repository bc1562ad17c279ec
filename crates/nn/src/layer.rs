//! The [`Layer`] trait: forward, backward, and parameter access.

use crate::Param;
use pelican_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Training mode enables dropout and batch statistics; evaluation mode uses
/// running statistics and disables dropout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic regularisation active, batch statistics used.
    Train,
    /// Inference: deterministic, running statistics used.
    Eval,
}

/// A differentiable network building block.
///
/// Layers are stateful: a [`Mode::Train`] `forward` caches whatever its
/// `backward` needs, so a `backward` call must always follow the Train
/// `forward` call whose gradient it propagates. [`Sequential`](crate::Sequential) and
/// [`Residual`](crate::Residual) compose layers while preserving this
/// contract.
pub trait Layer: Send {
    /// Computes the layer output for `input`.
    ///
    /// Tensor layout conventions: rank-2 `[batch, features]` for dense-style
    /// layers, rank-3 `[batch, 1, channels]` for convolutional/recurrent
    /// layers, which take the paper's one time step only.
    ///
    /// # Panics
    ///
    /// Implementations panic if `input` has an incompatible shape; shapes
    /// are fixed at construction, so this indicates a wiring bug rather
    /// than a data-dependent condition.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the last forward output) back
    /// to the input, accumulating parameter gradients along the way.
    ///
    /// Returns the gradient w.r.t. the last forward input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, or if `grad_out` does not match
    /// the last output's shape. A [`Mode::Eval`] forward need not keep
    /// what `backward` needs: [`Conv1d`](crate::Conv1d) and
    /// [`Gru`](crate::Gru) keep nothing and drop what an earlier
    /// [`Mode::Train`] forward kept, so their `backward` after an Eval
    /// forward panics with "backward before forward".
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to the trainable parameters, outermost first.
    ///
    /// Layers without parameters return an empty vector (the default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Number of *parameter layers* this block contributes, in the paper's
    /// counting (BN, Conv, GRU, Dense each count as one; activations,
    /// pooling, dropout and reshape count as zero).
    fn param_layer_count(&self) -> usize;

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn name(&self) -> &'static str {
            "identity"
        }
        fn param_layer_count(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_params_is_empty() {
        let mut l = Identity;
        assert!(l.params_mut().is_empty());
        l.zero_grad(); // must not panic on empty params
    }

    #[test]
    fn layers_are_object_safe() {
        let boxed: Box<dyn Layer> = Box::new(Identity);
        assert_eq!(boxed.name(), "identity");
    }

    #[test]
    fn mode_is_copy_eq() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(Mode::Train, Mode::Eval);
    }
}

//! Shape adaptation between block stages.

use crate::{Layer, Mode};
use pelican_tensor::Tensor;

/// Reshapes each example to a new trailing shape, keeping the batch axis.
///
/// The paper's blocks insert a reshape after the GRU to "keep the accordance
/// of data dimension" between the recurrent output and the next block's
/// convolution input (Section IV, item 5). With sequence length 1 this is a
/// `[b, c] ↔ [b, 1, c]` adaptation.
///
/// ```
/// use pelican_nn::{Layer, Mode, Reshape};
/// use pelican_tensor::Tensor;
///
/// let mut r = Reshape::new(vec![1, 6]);
/// let y = r.forward(&Tensor::zeros(vec![4, 2, 3]), Mode::Eval);
/// assert_eq!(y.shape(), &[4, 1, 6]);
/// ```
#[derive(Debug)]
pub struct Reshape {
    target_tail: Vec<usize>,
    input_shape: Option<Vec<usize>>,
}

impl Reshape {
    /// Creates a reshape to `[batch, target_tail...]`.
    pub fn new(target_tail: Vec<usize>) -> Self {
        Self {
            target_tail,
            input_shape: None,
        }
    }
}

impl Layer for Reshape {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let batch = input.shape().first().copied().unwrap_or(0);
        self.input_shape = Some(input.shape().to_vec());
        let mut shape = vec![batch];
        shape.extend_from_slice(&self.target_tail);
        input
            .reshape(shape)
            .unwrap_or_else(|e| panic!("reshape forward: {e}"))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .clone()
            .expect("reshape backward before forward");
        grad_out
            .reshape(shape)
            .unwrap_or_else(|e| panic!("reshape backward: {e}"))
    }

    fn name(&self) -> &'static str {
        "reshape"
    }

    fn param_layer_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shapes() {
        let mut r = Reshape::new(vec![6]);
        let x = Tensor::zeros(vec![2, 2, 3]);
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 6]);
        let dx = r.backward(&Tensor::zeros(vec![2, 6]));
        assert_eq!(dx.shape(), &[2, 2, 3]);
    }

    #[test]
    fn preserves_data_order() {
        let mut r = Reshape::new(vec![1, 4]);
        let x = Tensor::from_vec(vec![1, 4], vec![1., 2., 3., 4.]).unwrap();
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "reshape forward")]
    fn incompatible_tail_panics() {
        let mut r = Reshape::new(vec![5]);
        r.forward(&Tensor::zeros(vec![2, 4]), Mode::Train);
    }

    #[test]
    fn gradcheck() {
        crate::gradcheck::check_layer(Reshape::new(vec![1, 6]), &[3, 2, 3], 5, 1e-3);
    }

    #[test]
    fn gradcheck_pooled() {
        crate::gradcheck::check_layer_pooled(|| Reshape::new(vec![6]), &[3, 2, 3], 5, 1e-3);
    }
}

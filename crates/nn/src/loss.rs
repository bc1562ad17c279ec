//! Loss functions.

use pelican_tensor::Tensor;

/// A scalar training objective with its gradient w.r.t. the network output.
pub trait Loss {
    /// Computes the mean loss over the batch and the gradient of that mean
    /// w.r.t. `output`.
    ///
    /// `targets` are class indices, one per batch row.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not rank 2, if `targets.len()` differs from the
    /// batch size, or if a target index is out of range.
    fn loss(&self, output: &Tensor, targets: &[usize]) -> (f32, Tensor);
}

/// Fused softmax + categorical cross-entropy.
///
/// Numerically stable (log-sum-exp) and with the textbook fused gradient
/// `(softmax(z) − onehot(y)) / batch`, which avoids the ill-conditioned
/// separate softmax Jacobian.
///
/// ```
/// use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
/// use pelican_tensor::Tensor;
///
/// // A confident, correct prediction has near-zero loss.
/// let logits = Tensor::from_vec(vec![1, 3], vec![10.0, -10.0, -10.0])?;
/// let (loss, _) = SoftmaxCrossEntropy.loss(&logits, &[0]);
/// assert!(loss < 1e-3);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl Loss for SoftmaxCrossEntropy {
    fn loss(&self, output: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        assert_eq!(output.rank(), 2, "loss expects [batch, classes] logits");
        let (b, c) = (output.shape()[0], output.shape()[1]);
        assert_eq!(targets.len(), b, "target count must equal batch size");

        let probs = output.softmax_rows().expect("softmax");
        let mut total = 0.0f64;
        let mut grad = probs.clone();
        for (i, &y) in targets.iter().enumerate() {
            assert!(y < c, "target class {y} out of range (classes {c})");
            let p = probs.as_slice()[i * c + y].max(1e-12);
            total -= (p as f64).ln();
            grad.as_mut_slice()[i * c + y] -= 1.0;
        }
        grad.scale(1.0 / b as f32);
        ((total / b as f64) as f32, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_ln_c() {
        let logits = Tensor::zeros(vec![4, 5]);
        let (loss, grad) = SoftmaxCrossEntropy.loss(&logits, &[0, 1, 2, 3]);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero (softmax minus one-hot property).
        for row in grad.as_slice().chunks(5) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn wrong_confident_prediction_has_large_loss() {
        let logits = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]).unwrap();
        let (loss, _) = SoftmaxCrossEntropy.loss(&logits, &[1]);
        assert!(loss > 10.0);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 0.0, 0.3, -0.7]).unwrap();
        let targets = [2usize, 0];
        let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &targets);
        let h = 1e-3f32;
        for i in 0..6 {
            let mut up = logits.clone();
            up.as_mut_slice()[i] += h;
            let mut down = logits.clone();
            down.as_mut_slice()[i] -= h;
            let (lu, _) = SoftmaxCrossEntropy.loss(&up, &targets);
            let (ld, _) = SoftmaxCrossEntropy.loss(&down, &targets);
            let numeric = (lu - ld) / (2.0 * h);
            assert!(
                (grad.as_slice()[i] - numeric).abs() < 1e-3,
                "coord {i}: {} vs {numeric}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn ce_is_stable_for_huge_logits() {
        let logits = Tensor::from_vec(vec![1, 2], vec![1e4, -1e4]).unwrap();
        let (loss, grad) = SoftmaxCrossEntropy.loss(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(!grad.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        SoftmaxCrossEntropy.loss(&Tensor::zeros(vec![1, 2]), &[5]);
    }
}

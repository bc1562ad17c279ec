//! Concrete layer implementations.

pub mod activation;
pub mod batchnorm;
pub mod conv1d;
pub mod dense;
pub mod dropout;
pub mod gru;
pub mod lstm;
pub mod pool;
pub mod reshape;
pub mod residual;
pub mod sequential;

/// Splits a `[batch, time, channels]` (or `[batch, channels]`) shape into
/// `(batch, time, channels)` treating rank-2 input as `time == 1`.
///
/// # Panics
///
/// Panics for ranks other than 2 or 3.
pub(crate) fn btc(shape: &[usize]) -> (usize, usize, usize) {
    match shape {
        [b, c] => (*b, 1, *c),
        [b, t, c] => (*b, *t, *c),
        other => panic!("expected rank-2 or rank-3 input, got shape {other:?}"),
    }
}

/// `p.grad += t` over the whole gradient, like `Tensor::add_assign`.
///
/// # Panics
///
/// If `t`'s shape is not the gradient's.
pub(crate) fn add_to_grad(p: &mut crate::Param, t: &pelican_tensor::Tensor) {
    assert_eq!(t.shape(), p.grad().shape(), "parameter gradient shape");
    for (d, &s) in p.grad_mut(..).iter_mut().zip(t.as_slice()) {
        *d += s;
    }
}

/// Adds the column sums of columns `lo..lo + grad.len()` of the
/// row-major `[rows, width]` matrix `src` to `grad`, summing rows in
/// ascending order into a zeroed buffer first, like `Tensor::sum_axis0`
/// followed by `add_assign`.
pub(crate) fn add_col_sums(src: &[f32], width: usize, lo: usize, grad: &mut [f32]) {
    let mut sum = pelican_tensor::workspace::take(grad.len());
    for row in src.chunks_exact(width) {
        for (s, &v) in sum.iter_mut().zip(&row[lo..]) {
            *s += v;
        }
    }
    for (d, &s) in grad.iter_mut().zip(sum.iter()) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btc_accepts_rank2_and_rank3() {
        assert_eq!(btc(&[4, 7]), (4, 1, 7));
        assert_eq!(btc(&[4, 3, 7]), (4, 3, 7));
    }

    #[test]
    #[should_panic(expected = "rank-2 or rank-3")]
    fn btc_rejects_rank1() {
        btc(&[4]);
    }
}

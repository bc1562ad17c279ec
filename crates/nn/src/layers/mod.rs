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

/// The `(batch, channels)` of a sequence layer's input: `[b, c]`, or
/// `[b, 1, c]` as every model here reshapes it, the paper's `(1, features)`
/// input (Table I).
///
/// # Panics
///
/// Panics on a sequence length other than 1, and on ranks other than 2
/// or 3.
pub(crate) fn seq1(shape: &[usize]) -> (usize, usize) {
    match shape {
        [b, c] | [b, 1, c] => (*b, *c),
        [_, t, _] => panic!(
            "sequence length {t}: sequence layers take the paper's (1, features) input, \
             [batch, 1, features] or [batch, features]"
        ),
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
    fn seq1_accepts_rank2_and_rank3_at_length_1() {
        assert_eq!(seq1(&[4, 7]), (4, 7));
        assert_eq!(seq1(&[4, 1, 7]), (4, 7));
    }

    #[test]
    #[should_panic(expected = "rank-2 or rank-3")]
    fn seq1_rejects_rank1() {
        seq1(&[4]);
    }

    /// Each sequence layer takes rank-2 input as one step, and refuses a
    /// longer sequence with [`seq1`]'s message.
    #[test]
    fn sequence_layers_take_length_1_only() {
        use crate::{Conv1d, GlobalAvgPool1d, Gru, Layer, Lstm, MaxPool1d, Mode};
        use pelican_tensor::{SeededRng, Tensor};
        type Make = fn() -> Box<dyn Layer>;
        let c = 3;
        let layers: [(&str, Make); 5] = [
            ("conv1d", || {
                Box::new(Conv1d::new(3, 3, 10, &mut SeededRng::new(1)))
            }),
            ("maxpool1d", || Box::new(MaxPool1d::new(1))),
            ("gap", || Box::new(GlobalAvgPool1d::new())),
            ("gru", || Box::new(Gru::new(3, 3, &mut SeededRng::new(2)))),
            ("lstm", || Box::new(Lstm::new(3, 3, &mut SeededRng::new(3)))),
        ];
        for (name, make) in layers {
            let mut layer = make();
            let y = layer.forward(&Tensor::ones(vec![2, c]), Mode::Train);
            assert_eq!(y.len(), 2 * c, "{name}");
            let dx = layer.backward(&Tensor::ones(y.shape().to_vec()));
            assert_eq!(dx.len(), 2 * c, "{name}");

            let long = std::panic::catch_unwind(|| {
                make().forward(&Tensor::ones(vec![2, 3, c]), Mode::Train)
            });
            let err = long.expect_err(name);
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains("sequence length 3") && msg.contains("(1, features)"),
                "{name}: {msg}"
            );
        }
    }
}

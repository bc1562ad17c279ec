//! Reductions and row-wise transforms (sums, means, softmax, argmax).
//!
//! `sum_axis0` (the bias-gradient reduction) parallelises by partitioning the
//! *columns* of the output across the [`pelican_runtime`] pool: each column's
//! sum is accumulated row-ascending by exactly one worker, the same order as
//! the serial loop, so results are bit-identical at every worker count.

use crate::{ShapeError, Tensor, PARALLEL_FLOP_THRESHOLD};
use pelican_runtime::{current_exec, Pool};

/// Accumulates columns `col0..col0+out.len()` of the row-major `m×n` matrix
/// `data` into `out`, iterating rows in ascending order (the serial order).
fn sum_cols(data: &[f32], out: &mut [f32], n: usize, col0: usize) {
    let cols = out.len();
    for row in data.chunks(n) {
        for (o, &v) in out.iter_mut().zip(&row[col0..col0 + cols]) {
            *o += v;
        }
    }
}

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Column sums of a rank-2 tensor (reduction over axis 0), as a rank-1
    /// tensor of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank 2.
    pub fn sum_axis0(&self) -> Result<Tensor, ShapeError> {
        if self.rank() != 2 {
            return Err(ShapeError::new("sum_axis0", self.shape(), &[2]));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; n];
        let exec = current_exec();
        let engage = exec.workers >= 2
            && n >= 2
            && (m * n >= PARALLEL_FLOP_THRESHOLD || exec.force_parallel);
        if engage {
            let workers = exec.workers.min(n);
            let chunk_cols = n.div_ceil(workers);
            Pool::cached(workers).scope_chunks(&mut out, chunk_cols, |idx, chunk| {
                sum_cols(self.as_slice(), chunk, n, idx * chunk_cols);
            });
        } else {
            sum_cols(self.as_slice(), &mut out, n, 0);
        }
        Tensor::from_vec(vec![n], out)
    }

    /// Column means of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank 2.
    pub fn mean_axis0(&self) -> Result<Tensor, ShapeError> {
        let m = self.shape().first().copied().unwrap_or(0).max(1) as f32;
        let mut s = self.sum_axis0()?;
        s.scale(1.0 / m);
        Ok(s)
    }

    /// Column (biased) variances of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank 2.
    pub fn var_axis0(&self) -> Result<Tensor, ShapeError> {
        if self.rank() != 2 {
            return Err(ShapeError::new("var_axis0", self.shape(), &[2]));
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mean = self.mean_axis0()?;
        let mut out = vec![0.0f32; n];
        for row in self.as_slice().chunks(n) {
            for ((o, &v), &mu) in out.iter_mut().zip(row).zip(mean.as_slice()) {
                let d = v - mu;
                *o += d * d;
            }
        }
        let denom = m.max(1) as f32;
        out.iter_mut().for_each(|v| *v /= denom);
        Tensor::from_vec(vec![n], out)
    }

    /// Row-wise numerically-stable softmax of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor, ShapeError> {
        if self.rank() != 2 {
            return Err(ShapeError::new("softmax_rows", self.shape(), &[2]));
        }
        let n = self.shape()[1];
        let mut out = self.clone();
        for row in out.as_mut_slice().chunks_mut(n) {
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - mx).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        Ok(out)
    }

    /// Index of the maximum entry of each row of a rank-2 tensor (ties go to
    /// the first maximum).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, ShapeError> {
        if self.rank() != 2 {
            return Err(ShapeError::new("argmax_rows", self.shape(), &[2]));
        }
        let n = self.shape()[1];
        Ok(self
            .as_slice()
            .chunks(n)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn global_reductions() {
        let a = t(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn axis0_reductions() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_axis0().unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(a.mean_axis0().unwrap().as_slice(), &[2.5, 3.5, 4.5]);
        let var = a.var_axis0().unwrap();
        assert_eq!(var.as_slice(), &[2.25, 2.25, 2.25]);
        assert!(Tensor::zeros(vec![3]).sum_axis0().is_err());
    }

    #[test]
    fn forced_parallel_sum_axis0_bit_matches_serial() {
        use pelican_runtime::{with_exec, ExecConfig};
        let a = t(
            vec![9, 5],
            (0..45).map(|v| (v as f32).sin() * 3.7).collect(),
        );
        let serial = with_exec(ExecConfig::serial(), || a.sum_axis0().unwrap());
        for workers in [2usize, 3, 7] {
            let cfg = ExecConfig {
                workers,
                force_parallel: true,
            };
            let par = with_exec(cfg, || a.sum_axis0().unwrap());
            assert_eq!(par.as_slice(), serial.as_slice(), "sum_axis0 @ {workers}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = t(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows().unwrap();
        for row in s.as_slice().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = t(vec![1, 3], vec![1000., 1001., 1002.]);
        let s = a.softmax_rows().unwrap();
        assert!(!s.has_non_finite());
        let b = t(vec![1, 3], vec![0., 1., 2.]);
        let sb = b.softmax_rows().unwrap();
        for (x, y) in s.as_slice().iter().zip(sb.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_rows_ties_to_first() {
        let a = t(vec![3, 3], vec![1., 5., 2., 7., 7., 0., 0., 0., 0.]);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0, 0]);
    }
}

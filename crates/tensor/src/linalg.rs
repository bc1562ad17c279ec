//! Matrix products, including the transposed variants backpropagation needs.
//!
//! All products funnel into the packed, cache-blocked kernels in
//! [`crate::pack`]: `matmul` packs its right-hand side into the transposed
//! panel layout (workspace memory, no per-call allocation), `matmul_bt`
//! consumes its operand in place (it already *is* the panel layout), and
//! `matmul_at` keeps the ascending-row zero-skip kernel. Products above
//! [`crate::PARALLEL_FLOP_THRESHOLD`] multiply-accumulates are split across
//! the cached [`pelican_runtime`] worker pool by partitioning the *output*:
//! each output element is produced by exactly one worker running the same
//! blocked serial kernel, so the result is bit-identical to the serial path
//! at every worker count.

use crate::pack;
use crate::{workspace, ShapeError, Tensor};

impl Tensor {
    /// Matrix product `self (m×k) · rhs (k×n)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless both tensors are rank 2 with matching
    /// inner dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, ShapeError> {
        if self.rank() != 2 || rhs.rank() != 2 || self.shape()[1] != rhs.shape()[0] {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let n = rhs.shape()[1];
        // Pack B into the transposed panel layout in workspace memory —
        // returned to the thread-local arena when the product finishes.
        let mut bt = workspace::take(n * k);
        pack::pack_transpose(rhs.as_slice(), k, n, &mut bt);
        let mut out = vec![0.0f32; m * n];
        pack::gemm_bt(self.as_slice(), &bt, m, k, n, k, &mut out);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Matrix product `self (m×k) · rhsᵀ` where `rhs` is `n×k`.
    ///
    /// Equivalent to `self.matmul(&rhs.transpose())` but without the copy;
    /// this is the kernel used for `dX = dY · Wᵀ` in dense backprop.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless both tensors are rank 2 with matching
    /// second dimension.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Result<Tensor, ShapeError> {
        if self.rank() != 2 || rhs.rank() != 2 || self.shape()[1] != rhs.shape()[1] {
            return Err(ShapeError::new("matmul_bt", self.shape(), rhs.shape()));
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let n = rhs.shape()[0];
        let mut out = vec![0.0f32; m * n];
        pack::gemm_bt(self.as_slice(), rhs.as_slice(), m, k, n, k, &mut out);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Matrix product `selfᵀ · rhs` where `self` is `k×m` and `rhs` is `k×n`.
    ///
    /// This is the kernel used for `dW = Xᵀ · dY` in dense backprop.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless both tensors are rank 2 with matching
    /// first dimension.
    pub fn matmul_at(&self, rhs: &Tensor) -> Result<Tensor, ShapeError> {
        if self.rank() != 2 || rhs.rank() != 2 || self.shape()[0] != rhs.shape()[0] {
            return Err(ShapeError::new("matmul_at", self.shape(), rhs.shape()));
        }
        // Aᵀ·B: accumulate outer products row by row; contiguous access on
        // both operands, no transposed copies.
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let n = rhs.shape()[1];
        let mut out = vec![0.0f32; m * n];
        pack::matmul_at_into(self.as_slice(), rhs.as_slice(), k, m, n, &mut out);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Adds a length-`n` bias vector to every row of an `m×n` tensor, in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless `self` is rank 2 and `bias` is rank 1
    /// of matching width.
    pub fn add_row_bias(&mut self, bias: &Tensor) -> Result<(), ShapeError> {
        if self.rank() != 2 || bias.rank() != 1 || self.shape()[1] != bias.shape()[0] {
            return Err(ShapeError::new("add_row_bias", self.shape(), bias.shape()));
        }
        let n = self.shape()[1];
        for row in self.as_mut_slice().chunks_mut(n) {
            for (v, &b) in row.iter_mut().zip(bias.as_slice()) {
                *v += b;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn matmul_small_known_values() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(vec![3, 3], (0..9).map(|v| v as f32).collect());
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c, a);
        let c2 = Tensor::eye(3).matmul(&a).unwrap();
        assert_eq!(c2, a);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(vec![2, 3]);
        assert!(a.matmul(&Tensor::zeros(vec![4, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(vec![3])).is_err());
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![4, 3], (0..12).map(|v| v as f32 * 0.5).collect());
        let direct = a.matmul_bt(&b).unwrap();
        let via_t = a.matmul(&b.transpose()).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = t(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![3, 4], (0..12).map(|v| v as f32 * 0.25).collect());
        let direct = a.matmul_at(&b).unwrap();
        let via_t = a.transpose().matmul(&b).unwrap();
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn large_matmul_parallel_matches_serial_structure() {
        // Big enough to cross PARALLEL_FLOP_THRESHOLD: (200×200)·(200×200).
        let n = 200;
        let a = Tensor::full(vec![n, n], 1.0);
        let b = Tensor::full(vec![n, n], 2.0);
        let c = a.matmul(&b).unwrap();
        // Every entry is sum over k of 1*2 = 2n.
        assert!(c
            .as_slice()
            .iter()
            .all(|&v| (v - 2.0 * n as f32).abs() < 1e-3));
    }

    #[test]
    fn add_row_bias_broadcasts() {
        let mut a = Tensor::zeros(vec![2, 3]);
        let b = t(vec![3], vec![1., 2., 3.]);
        a.add_row_bias(&b).unwrap();
        assert_eq!(a.as_slice(), &[1., 2., 3., 1., 2., 3.]);
        assert!(a.add_row_bias(&Tensor::zeros(vec![2])).is_err());
    }

    #[test]
    fn forced_parallel_kernels_bit_match_serial() {
        use pelican_runtime::{with_exec, ExecConfig};
        let a = t(vec![5, 7], (0..35).map(|v| (v as f32).sin()).collect());
        let b = t(vec![7, 3], (0..21).map(|v| (v as f32).cos()).collect());
        let bt = b.transpose();
        let x = t(
            vec![5, 4],
            (0..20).map(|v| (v as f32) * 0.3 - 2.0).collect(),
        );
        let y = t(vec![5, 6], (0..30).map(|v| (v as f32).sqrt()).collect());
        let serial = with_exec(ExecConfig::serial(), || {
            (
                a.matmul(&b).unwrap(),
                a.matmul_bt(&bt).unwrap(),
                x.matmul_at(&y).unwrap(),
            )
        });
        for workers in [2usize, 3, 7] {
            let cfg = ExecConfig {
                workers,
                force_parallel: true,
            };
            let par = with_exec(cfg, || {
                (
                    a.matmul(&b).unwrap(),
                    a.matmul_bt(&bt).unwrap(),
                    x.matmul_at(&y).unwrap(),
                )
            });
            assert_eq!(par.0.as_slice(), serial.0.as_slice(), "matmul @ {workers}");
            assert_eq!(
                par.1.as_slice(),
                serial.1.as_slice(),
                "matmul_bt @ {workers}"
            );
            assert_eq!(
                par.2.as_slice(),
                serial.2.as_slice(),
                "matmul_at @ {workers}"
            );
        }
    }

    #[test]
    fn flop_counters_count_multiply_accumulates() {
        use std::sync::Arc;
        let rec = Arc::new(pelican_observe::InMemoryRecorder::new());
        pelican_observe::with_recorder(rec.clone(), || {
            let a = Tensor::zeros(vec![2, 3]);
            a.matmul(&Tensor::zeros(vec![3, 4])).unwrap();
            a.matmul_bt(&Tensor::zeros(vec![4, 3])).unwrap();
        });
        // Two GEMMs of 2×3×4 MACs each; a FLOP counter counts multiply
        // *and* add.
        assert_eq!(rec.counter("tensor.matmul_flops"), 2 * 2 * (2 * 3 * 4));
        assert_eq!(rec.counter("tensor.matmul_calls"), 2);
    }

    #[test]
    fn dot_handles_non_multiple_of_four() {
        use crate::pack::dot_seg;
        let a: Vec<f32> = (0..7).map(|v| v as f32).collect();
        let b: Vec<f32> = (0..7).map(|v| (v + 1) as f32).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_seg(&a, &b, 7), expect);
    }

    #[test]
    fn matmul_packs_into_workspace_without_output_aliasing() {
        // Two matmuls back to back reuse the packed-panel workspace buffer;
        // results must not bleed between calls.
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c1 = a.matmul(&b).unwrap();
        let c2 = a.matmul(&b).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1.as_slice(), &[58., 64., 139., 154.]);
    }
}

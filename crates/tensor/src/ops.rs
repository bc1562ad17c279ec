//! Additional elementwise and structural operations.

use crate::Tensor;
use std::fmt;

impl Tensor {
    /// Builds a tensor by evaluating `f` at every multi-index, row-major.
    ///
    /// ```
    /// use pelican_tensor::Tensor;
    ///
    /// let t = Tensor::from_fn(vec![2, 2], |idx| (idx[0] * 10 + idx[1]) as f32);
    /// assert_eq!(t.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    /// ```
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let len: usize = shape.iter().product();
        let mut index = vec![0usize; shape.len()];
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f(&index));
            // Row-major increment.
            for axis in (0..shape.len()).rev() {
                index[axis] += 1;
                if index[axis] < shape[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        Self::from_vec(shape, data).expect("from_fn length")
    }

    /// Elementwise clamp into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        assert!(lo <= hi, "clamp requires lo <= hi");
        self.map(|v| v.clamp(lo, hi))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Self {
        self.map(f32::exp)
    }
}

/// Pretty matrix display for small tensors (rank 1 and 2); larger tensors
/// show shape and a preview.
impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_CELLS: usize = 64;
        match self.rank() {
            1 if self.len() <= MAX_CELLS => {
                write!(f, "[")?;
                for (i, v) in self.as_slice().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:.4}")?;
                }
                write!(f, "]")
            }
            2 if self.len() <= MAX_CELLS => {
                let cols = self.shape()[1];
                writeln!(f, "[")?;
                for row in self.as_slice().chunks(cols.max(1)) {
                    write!(f, "  [")?;
                    for (i, v) in row.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v:8.4}")?;
                    }
                    writeln!(f, "]")?;
                }
                write!(f, "]")
            }
            _ => write!(f, "{self:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Tensor::from_fn(vec![2, 3], |i| (i[0] * 3 + i[1]) as f32);
        assert_eq!(m.as_slice(), &[0., 1., 2., 3., 4., 5.]);
        let cube = Tensor::from_fn(vec![2, 2, 2], |i| (i[0] * 4 + i[1] * 2 + i[2]) as f32);
        assert_eq!(cube.as_slice(), &[0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn clamp_abs_exp() {
        let a = t(vec![3], vec![-2.0, 0.5, 9.0]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
        assert_eq!(a.abs().as_slice(), &[2.0, 0.5, 9.0]);
        assert!((a.exp().as_slice()[1] - 0.5f32.exp()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn clamp_bad_range_panics() {
        t(vec![1], vec![0.0]).clamp(1.0, -1.0);
    }

    #[test]
    fn display_formats_small_matrices() {
        let m = t(vec![2, 2], vec![1., 2., 3., 4.]);
        let s = format!("{m}");
        assert!(s.contains("1.0000"));
        assert!(s.lines().count() >= 3);
        let v = t(vec![2], vec![1.5, 2.5]);
        assert_eq!(format!("{v}"), "[1.5000, 2.5000]");
        // Large tensors fall back to the debug preview.
        let big = Tensor::zeros(vec![100, 100]);
        assert!(format!("{big}").contains("Tensor"));
    }
}

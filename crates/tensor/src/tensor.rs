use crate::ShapeError;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` is the single numeric container used throughout the Pelican
/// reproduction: 2-D matrices for dense layers and classical ML, 3-D
/// `[batch, 1, channels]` blocks for the convolutional/recurrent layers.
///
/// Data is always contiguous; views are expressed as explicit copies
/// (`row`, `gather_rows`, …) which keeps the implementation simple and the
/// memory behaviour predictable.
///
/// ```
/// use pelican_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok::<(), pelican_tensor::ShapeError>(())
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Self {
            data: vec![0.0; len],
            shape,
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            data: vec![value; len],
            shape,
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from a flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the product of
    /// `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let expect: usize = shape.iter().product();
        if data.len() != expect {
            return Err(ShapeError::new("from_vec", &[data.len()], &shape));
        }
        Ok(Self { data, shape })
    }

    /// Builds a 2-D tensor from nested rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, ShapeError> {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for r in rows {
            if r.len() != cols {
                return Err(ShapeError::new("from_rows", &[r.len()], &[cols]));
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            data,
            shape: vec![n, cols],
        })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row-major offset for a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} != tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (size {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Reads the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Writes the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Returns a copy of the tensor with a new shape of equal length.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Self, ShapeError> {
        let expect: usize = shape.iter().product();
        if expect != self.data.len() {
            return Err(ShapeError::new("reshape", &self.shape, &shape));
        }
        Ok(Self {
            data: self.data.clone(),
            shape,
        })
    }

    /// Consumes the tensor and returns it with a new shape of equal length,
    /// keeping its buffer: the shape change copies no data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn into_shape(self, shape: Vec<usize>) -> Result<Self, ShapeError> {
        let expect: usize = shape.iter().product();
        if expect != self.data.len() {
            return Err(ShapeError::new("into_shape", &self.shape, &shape));
        }
        Ok(Self {
            data: self.data,
            shape,
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new("zip_map", &self.shape, &other.shape));
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// `self += other` elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new("add_assign", &self.shape, &other.shape));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Copies row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Vec<f32> {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape[1];
        self.data[i * cols..(i + 1) * cols].to_vec()
    }

    /// Gathers the given rows of a rank-2 tensor into a new tensor, in order.
    ///
    /// Used to assemble minibatches and cross-validation folds.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        assert_eq!(self.rank(), 2, "gather_rows() requires a rank-2 tensor");
        let cols = self.shape[1];
        let mut data = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            assert!(i < self.shape[0], "row index {i} out of bounds");
            data.extend_from_slice(&self.data[i * cols..(i + 1) * cols]);
        }
        Self {
            data,
            shape: vec![indices.len(), cols],
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose() requires a rank-2 tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Self {
            data: out,
            shape: vec![n, m],
        }
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Number of NaN or infinite elements.
    pub fn count_non_finite(&self) -> usize {
        self.data.iter().filter(|v| !v.is_finite()).count()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= PREVIEW {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:?}… ({} elems)]", &self.data[..PREVIEW], self.len())
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt, $name:literal) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;

            /// Elementwise operation.
            ///
            /// # Panics
            ///
            /// Panics if the shapes differ; use [`Tensor::zip_map`] for a
            /// fallible variant.
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
                    .unwrap_or_else(|e| panic!("{e} in {}", $name))
            }
        }

        impl $trait<f32> for &Tensor {
            type Output = Tensor;

            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_binop!(Add, add, +, "add");
impl_binop!(Sub, sub, -, "sub");
impl_binop!(Mul, mul, *, "mul");
impl_binop!(Div, div, /, "div");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(vec![2, 3]).as_slice(), &[0.0; 6]);
        assert_eq!(Tensor::ones(vec![4]).as_slice(), &[1.0; 4]);
        assert_eq!(Tensor::full(vec![2], 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(t.shape(), &[2, 2]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.set(&[1, 2, 3], 9.0);
        assert_eq!(t.get(&[1, 2, 3]), 9.0);
        assert_eq!(t.as_slice()[12 + 2 * 4 + 3], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Tensor::zeros(vec![2, 2]).get(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(vec![5]).is_err());
    }

    #[test]
    fn into_shape_moves_the_buffer() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let ptr = t.as_slice().as_ptr();
        let r = t.into_shape(vec![3, 1, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 1, 2]);
        assert_eq!(r.as_slice().as_ptr(), ptr);
        assert_eq!(r.as_slice(), &[0., 1., 2., 3., 4., 5.]);
    }

    #[test]
    fn into_shape_rejects_a_length_mismatch() {
        let err = Tensor::zeros(vec![2, 3]).into_shape(vec![5]).unwrap_err();
        assert!(err.to_string().contains("into_shape"), "{err}");
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = a.map(|v| v * 2.0);
        assert_eq!(b.as_slice(), &[2.0, 4.0, 6.0]);
        let c = a.zip_map(&b, |x, y| y - x).unwrap();
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let tt = t.transpose().transpose();
        assert_eq!(tt, t);
        assert_eq!(t.transpose().get(&[2, 1]), t.get(&[1, 2]));
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let t = Tensor::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.as_slice(), &[2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn operators_match_zip_map() {
        let a = Tensor::from_vec(vec![2], vec![4.0, 9.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![2.0, 3.0]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[6.0, 12.0]);
        assert_eq!((&a - &b).as_slice(), &[2.0, 6.0]);
        assert_eq!((&a * &b).as_slice(), &[8.0, 27.0]);
        assert_eq!((&a / &b).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 0.5).as_slice(), &[2.0, 4.5]);
    }

    #[test]
    fn norm_and_finiteness() {
        let t = Tensor::from_vec(vec![2], vec![3.0, 4.0]).unwrap();
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(vec![1], vec![f32::NAN]).unwrap();
        assert!(bad.has_non_finite());
    }

    #[test]
    fn finite_counting() {
        let ok = Tensor::from_vec(vec![3], vec![1.0, -2.0, 0.0]).unwrap();
        assert!(!ok.has_non_finite());
        assert_eq!(ok.count_non_finite(), 0);
        let bad = Tensor::from_vec(
            vec![4],
            vec![f32::NAN, 1.0, f32::INFINITY, f32::NEG_INFINITY],
        )
        .unwrap();
        assert!(bad.has_non_finite());
        assert_eq!(bad.count_non_finite(), 3);
        assert!(!Tensor::zeros(vec![0]).has_non_finite());
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(vec![100]);
        let s = format!("{t:?}");
        assert!(s.contains("Tensor"));
        assert!(s.contains("100"));
    }
}

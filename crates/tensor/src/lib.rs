//! Dense `f32` tensors for the Pelican network-intrusion-detection reproduction.
//!
//! This crate is the numerical substrate underneath [`pelican-nn`]: a small,
//! deterministic, row-major tensor type with exactly the operations the
//! neural-network layers and classical-ML baselines need — elementwise
//! arithmetic, matrix products (including transposed variants used by
//! backpropagation), axis reductions, and seeded random initialisation.
//!
//! # Example
//!
//! ```
//! use pelican_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::eye(3);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), pelican_tensor::ShapeError>(())
//! ```
//!
//! [`pelican-nn`]: ../pelican_nn/index.html

mod error;
mod init;
mod linalg;
pub mod math;
mod ops;
pub mod pack;
mod reduce;
mod tensor;
pub mod workspace;

pub use error::ShapeError;
pub use init::{Init, SeededRng};
pub use tensor::Tensor;

/// Threshold (in multiply-accumulate operations) above which matrix products
/// are parallelised across worker threads.
pub const PARALLEL_FLOP_THRESHOLD: usize = 4_000_000;

//! Classical machine-learning baselines for the Table-V comparison.
//!
//! The paper compares Pelican against "a set of typical machine learning
//! based designs" (Section V-H): AdaBoost, SVM with an RBF kernel, random
//! forest and a multilayer perceptron (the MLP baseline lives in
//! `pelican-core::models` since it is built from `pelican-nn` layers).
//! This crate implements the non-neural ones from scratch:
//!
//! * [`DecisionTree`] — CART with Gini impurity and weighted samples (the
//!   shared weak/strong learner),
//! * [`RandomForest`] — bagging + feature subsampling,
//! * [`AdaBoost`] — the multi-class SAMME variant over shallow trees,
//! * [`Svm`] — an RBF-kernel SVM trained with simplified SMO, one-vs-rest
//!   for multi-class.
//!
//! All baselines implement the common [`Classifier`] trait over dense
//! `[rows, features]` tensors, so the Table-V harness treats them
//! uniformly.
//!
//! # Example
//!
//! ```
//! use pelican_ml::{Classifier, DecisionTree, DecisionTreeConfig};
//! use pelican_tensor::Tensor;
//!
//! let x = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 10.0, 11.0])?;
//! let y = [0usize, 0, 1, 1];
//! let mut tree = DecisionTree::new(DecisionTreeConfig::default());
//! tree.fit(&x, &y);
//! assert_eq!(tree.predict(&x), vec![0, 0, 1, 1]);
//! # Ok::<(), pelican_tensor::ShapeError>(())
//! ```

mod adaboost;
mod classifier;
mod forest;
mod svm;
mod tree;

pub use adaboost::{AdaBoost, AdaBoostConfig};
pub use classifier::{accuracy, Classifier};
pub use forest::{RandomForest, RandomForestConfig};
pub use svm::{Svm, SvmConfig};
pub use tree::{DecisionTree, DecisionTreeConfig};

//! Schema-faithful synthetic NSL-KDD and UNSW-NB15 datasets, plus the
//! preprocessing pipeline the paper applies before training.
//!
//! The real CSVs are not redistributable/downloadable in this environment,
//! so this crate substitutes seeded generators that reproduce the parts of
//! the datasets the paper's experiments actually exercise:
//!
//! * the **schema** — the same mixed numeric/categorical feature layout,
//!   with categorical vocabularies sized so one-hot encoding produces
//!   exactly the paper's input widths (121 features for NSL-KDD, 196 for
//!   UNSW-NB15, Section V-C);
//! * the **class structure** — 5 NSL-KDD classes and 10 UNSW-NB15 classes
//!   with realistic imbalance;
//! * the **hardness ordering** — NSL-KDD is nearly separable (the paper
//!   reaches 99% ACC) while UNSW-NB15 has heavy class overlap (≈86% ACC).
//!
//! The preprocessing mirrors Section V-A: numerical conversion of textual
//! values via one-hot encoding ([`OneHotEncoder`], the `get_dummies`
//! analogue), standardisation to zero mean / unit variance
//! ([`Standardizer`]), and k-fold cross-validation ([`KFold`], k = 10).
//!
//! # Example
//!
//! ```
//! use pelican_data::{nslkdd, OneHotEncoder, KFold};
//!
//! let raw = nslkdd::generate(200, 7);
//! let encoder = OneHotEncoder::from_schema(raw.schema());
//! assert_eq!(encoder.width(), nslkdd::ENCODED_WIDTH);
//! let x = encoder.encode(&raw);
//! let folds = KFold::new(10, 42).splits(x.shape()[0]);
//! assert_eq!(folds.len(), 10);
//! ```

pub mod csv;

mod dataset;
mod kfold;
mod preprocess;
mod schema;
mod synth;

pub mod nslkdd;
pub mod unswnb15;

pub use dataset::{RawDataset, Record, Value};
pub use kfold::KFold;
pub use preprocess::{
    holdout_indices, train_test_split, EncodedSplit, OneHotEncoder, Standardizer,
};
pub use schema::{ClassSpec, FeatureKind, FeatureSpec, Schema};
pub use synth::{ClassProfile, NumericStyle, SynthConfig};

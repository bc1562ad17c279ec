//! From-scratch neural-network substrate for the Pelican reproduction.
//!
//! Implements every operator the paper's networks need — batch
//! normalisation, 1-D convolution, max pooling, GRU/LSTM recurrence,
//! dropout, dense layers, global average pooling — with hand-derived,
//! finite-difference-checked backward passes, plus the RMSprop/SGD/Adam/
//! AdaDelta optimizers and a minibatch training loop that records the
//! per-epoch histories the paper plots in Fig. 5.
//!
//! The design is deliberately layer-wise (each [`Layer`] caches what its own
//! backward pass needs) rather than a general autograd tape: the paper's
//! architectures are static stacks, and the layer-wise scheme keeps every
//! gradient auditable.
//!
//! # Example
//!
//! ```
//! use pelican_nn::{Dense, Activation, ActivationKind, Sequential, Layer, Mode};
//! use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
//! use pelican_nn::optim::{Optimizer, Sgd};
//! use pelican_tensor::{SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(Activation::new(ActivationKind::Relu));
//! net.push(Dense::new(8, 3, &mut rng));
//!
//! let x = Tensor::zeros(vec![2, 4]);
//! let logits = net.forward(&x, Mode::Train);
//! let (loss, dlogits) = SoftmaxCrossEntropy.loss(&logits, &[0, 2]);
//! net.backward(&dlogits);
//! Sgd::new(0.1).step(&mut net.params_mut());
//! assert!(loss > 0.0);
//! ```

pub mod fault;
pub mod gradcheck;
pub mod io;
pub mod loss;
pub mod optim;

mod layer;
mod layers;
mod param;
mod trainer;

pub use layer::{Layer, Mode};
pub use layers::activation::{Activation, ActivationKind};
pub use layers::batchnorm::BatchNorm;
pub use layers::conv1d::Conv1d;
pub use layers::dense::Dense;
pub use layers::dropout::Dropout;
pub use layers::gru::Gru;
pub use layers::lstm::Lstm;
pub use layers::pool::{GlobalAvgPool1d, MaxPool1d};
pub use layers::reshape::Reshape;
pub use layers::residual::Residual;
pub use layers::sequential::Sequential;
pub use param::Param;
pub use trainer::{
    evaluate, predict, EpochStats, History, RecoveryPolicy, TrainError, Trainer, TrainerConfig,
};

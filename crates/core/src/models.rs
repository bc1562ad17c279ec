//! The model zoo: the four evaluated Pelican-family networks plus every
//! neural comparator of Table V.

use crate::blocks::{plain_block, res_blk, BlockConfig};
use pelican_ml::Classifier;
use pelican_nn::loss::SoftmaxCrossEntropy;
use pelican_nn::optim::RmsProp;
use pelican_nn::{
    predict, Activation, ActivationKind, Conv1d, Dense, Dropout, GlobalAvgPool1d, Lstm, Reshape,
    Sequential, Trainer, TrainerConfig,
};
use pelican_tensor::{SeededRng, Tensor};
use std::sync::{Mutex, PoisonError};

/// Architecture parameters for the paper's networks (Sections IV–V).
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// One-hot input width (121 / 196).
    pub in_features: usize,
    /// Number of traffic classes (5 / 10).
    pub classes: usize,
    /// Number of stacked blocks (5 → 21 parameter layers, 10 → 41).
    pub blocks: usize,
    /// Residual blocks (Fig. 4b) vs plain blocks (Fig. 4a).
    pub residual: bool,
    /// Convolution kernel size (Table I: 10).
    pub kernel: usize,
    /// Dropout rate (Table I: 0.6).
    pub dropout: f32,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl NetConfig {
    /// Paper's parameter-layer count for this configuration: 4 per block
    /// (BN, Conv, BN, GRU) plus the final dense layer.
    pub fn param_layers(&self) -> usize {
        self.blocks * 4 + 1
    }
}

/// Builds one of the four evaluated networks: `blocks` plain or residual
/// blocks, then global average pooling and a dense classifier
/// (Section V-C: "five residual blocks + one global average pooling layer
/// + one dense layer", etc.).
///
/// The returned network takes `[batch, in_features]` input (it reshapes to
/// the paper's `(1, features)` internally) and emits class logits.
///
/// ```
/// use pelican_core::models::{build_network, NetConfig};
/// use pelican_nn::{Layer, Mode};
/// use pelican_tensor::Tensor;
///
/// let cfg = NetConfig {
///     in_features: 8, classes: 3, blocks: 2, residual: true,
///     kernel: 10, dropout: 0.0, seed: 0,
/// };
/// let mut net = build_network(&cfg);
/// let logits = net.forward(&Tensor::zeros(vec![4, 8]), Mode::Eval);
/// assert_eq!(logits.shape(), &[4, 3]);
/// assert_eq!(cfg.param_layers(), 9);
/// ```
pub fn build_network(cfg: &NetConfig) -> Sequential {
    let mut rng = SeededRng::new(cfg.seed);
    let mut net = Sequential::new();
    net.push(Reshape::new(vec![1, cfg.in_features]));
    for b in 0..cfg.blocks {
        let bc = BlockConfig {
            features: cfg.in_features,
            kernel: cfg.kernel,
            dropout: cfg.dropout,
            seed: cfg.seed.wrapping_add(1 + b as u64),
        };
        if cfg.residual {
            net.push(res_blk(&bc));
        } else {
            net.push(plain_block(&bc));
        }
    }
    net.push(GlobalAvgPool1d::new());
    net.push(Dense::new(cfg.in_features, cfg.classes, &mut rng));
    net
}

/// Builds LuNet [Wu & Guo, SSCI 2019] — the CNN+GRU baseline whose
/// depth-degradation motivates the paper (Fig. 2). LuNet is the paper's
/// *plain* block stack: `levels` plain blocks + GAP + dense, i.e.
/// `4·levels + 1` parameter layers.
pub fn lunet(levels: usize, in_features: usize, classes: usize, seed: u64) -> Sequential {
    build_network(&NetConfig {
        in_features,
        classes,
        blocks: levels,
        residual: false,
        kernel: 10,
        dropout: 0.6,
        seed,
    })
}

/// Builds HAST-IDS [Wang et al., IEEE Access 2017] — a tandem CNN→LSTM
/// model: spatial representations first, temporal second (Section V-H).
pub fn hast_ids(in_features: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = SeededRng::new(seed);
    let mut net = Sequential::new();
    net.push(Reshape::new(vec![1, in_features]));
    net.push(Conv1d::new(in_features, in_features, 10, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(Conv1d::new(in_features, in_features, 10, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(Lstm::new(in_features, in_features, &mut rng));
    net.push(GlobalAvgPool1d::new());
    net.push(Dense::new(in_features, classes, &mut rng));
    net
}

/// Builds the plain CNN baseline of Table V: two same-padded convolutions
/// with ReLU, GAP, dense.
pub fn cnn_baseline(in_features: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = SeededRng::new(seed);
    let mut net = Sequential::new();
    net.push(Reshape::new(vec![1, in_features]));
    net.push(Conv1d::new(in_features, in_features, 10, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(Conv1d::new(in_features, in_features, 10, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(GlobalAvgPool1d::new());
    net.push(Dense::new(in_features, classes, &mut rng));
    net
}

/// Builds the LSTM baseline of Table V: one recurrent layer over the
/// feature sequence, GAP, dense.
pub fn lstm_baseline(in_features: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = SeededRng::new(seed);
    let mut net = Sequential::new();
    net.push(Reshape::new(vec![1, in_features]));
    net.push(Lstm::new(in_features, in_features, &mut rng));
    net.push(GlobalAvgPool1d::new());
    net.push(Dense::new(in_features, classes, &mut rng));
    net
}

/// Builds the MLP baseline of Table V: two hidden ReLU layers with
/// dropout.
pub fn mlp_baseline(in_features: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = SeededRng::new(seed);
    let hidden = in_features.max(classes);
    let mut net = Sequential::new();
    net.push(Dense::new(in_features, hidden, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(Dropout::new(0.3, seed.wrapping_add(77)));
    net.push(Dense::new(hidden, hidden, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(Dense::new(hidden, classes, &mut rng));
    net
}

/// Adapter that lets any `pelican-nn` network join the Table-V harness via
/// the [`Classifier`] trait used by the classical baselines.
///
/// Training uses the paper's optimizer (RMSprop) and a configurable
/// epoch/batch budget. Interior mutability (a mutex around the network)
/// bridges `Classifier::predict(&self)` with the layers' stateful forward
/// passes.
pub struct NeuralClassifier {
    name: &'static str,
    net: Mutex<Sequential>,
    epochs: usize,
    batch_size: usize,
    learning_rate: f32,
    shuffle_seed: u64,
}

impl NeuralClassifier {
    /// Wraps a network for classifier-style training.
    pub fn new(name: &'static str, net: Sequential, epochs: usize, batch_size: usize) -> Self {
        Self {
            name,
            net: Mutex::new(net),
            epochs,
            batch_size,
            learning_rate: 0.01,
            shuffle_seed: 0,
        }
    }
}

impl std::fmt::Debug for NeuralClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeuralClassifier")
            .field("name", &self.name)
            .field("epochs", &self.epochs)
            .field("batch_size", &self.batch_size)
            .finish()
    }
}

impl Classifier for NeuralClassifier {
    fn fit(&mut self, x: &Tensor, y: &[usize]) {
        let trainer = Trainer::new(TrainerConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            shuffle_seed: self.shuffle_seed,
            verbose: false,
            ..Default::default()
        });
        let mut opt = RmsProp::new(self.learning_rate);
        let net = self.net.get_mut().unwrap_or_else(PoisonError::into_inner);
        trainer
            .fit(net, &SoftmaxCrossEntropy, &mut opt, x, y, None)
            .unwrap_or_else(|e| panic!("{} training failed: {e}", self.name));
    }

    fn predict(&self, x: &Tensor) -> Vec<usize> {
        let mut net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
        predict(&mut *net, x, 512)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_nn::{Layer, Mode};

    fn cfg(blocks: usize, residual: bool) -> NetConfig {
        NetConfig {
            in_features: 6,
            classes: 3,
            blocks,
            residual,
            kernel: 10,
            dropout: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn paper_layer_counts() {
        assert_eq!(cfg(5, false).param_layers(), 21);
        assert_eq!(cfg(5, true).param_layers(), 21);
        assert_eq!(cfg(10, false).param_layers(), 41);
        assert_eq!(cfg(10, true).param_layers(), 41);
    }

    #[test]
    fn built_network_param_layer_count_matches_config() {
        for (blocks, residual) in [(5, false), (5, true), (10, false), (10, true)] {
            let c = cfg(blocks, residual);
            let net = build_network(&c);
            assert_eq!(net.param_layer_count(), c.param_layers());
        }
    }

    #[test]
    fn all_model_builders_produce_correct_logit_shape() {
        let x = Tensor::zeros(vec![2, 6]);
        let mut nets: Vec<Sequential> = vec![
            build_network(&cfg(2, true)),
            lunet(2, 6, 3, 0),
            hast_ids(6, 3, 0),
            cnn_baseline(6, 3, 0),
            lstm_baseline(6, 3, 0),
            mlp_baseline(6, 3, 0),
        ];
        for net in &mut nets {
            let y = net.forward(&x, Mode::Eval);
            assert_eq!(
                y.shape(),
                &[2, 3],
                "bad logits from {:?}",
                net.layer_names()
            );
        }
    }

    #[test]
    fn plain_and_residual_have_equal_parameter_budgets() {
        let mut p = build_network(&cfg(3, false));
        let mut r = build_network(&cfg(3, true));
        assert_eq!(p.param_count(), r.param_count());
    }

    #[test]
    fn neural_classifier_learns_blobs() {
        let mut rng = SeededRng::new(0);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let c = i % 2;
            let centre = if c == 0 { -2.0 } else { 2.0 };
            rows.push(vec![
                rng.normal_with(centre, 0.4),
                rng.normal_with(-centre, 0.4),
            ]);
            labels.push(c);
        }
        let x = Tensor::from_rows(&rows).unwrap();
        let mut clf = NeuralClassifier::new("mlp", mlp_baseline(2, 2, 3), 30, 32);
        clf.fit(&x, &labels);
        let acc = pelican_ml::Classifier::predict(&clf, &x)
            .iter()
            .zip(&labels)
            .filter(|(p, t)| p == t)
            .count() as f32
            / labels.len() as f32;
        assert!(acc > 0.9, "neural classifier accuracy {acc}");
        assert_eq!(clf.name(), "mlp");
    }

    #[test]
    fn neural_classifier_survives_a_poisoned_lock() {
        let x = Tensor::zeros(vec![4, 2]);
        let mut clf = NeuralClassifier::new("mlp", mlp_baseline(2, 2, 3), 1, 4);
        let before = pelican_ml::Classifier::predict(&clf, &x);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = clf.net.lock().unwrap();
            panic!("panic while holding the network lock");
        }));
        assert!(panicked.is_err() && clf.net.is_poisoned());
        assert_eq!(pelican_ml::Classifier::predict(&clf, &x), before);
        clf.fit(&x, &[0, 1, 0, 1]);
    }

    /// Each parameter's `live` range and length after three RMSprop steps
    /// of `Trainer::fit` at batch 4.
    fn live_after_three_steps(cfg: &NetConfig) -> Vec<(std::ops::Range<usize>, usize)> {
        let mut net = build_network(cfg);
        let mut rng = SeededRng::new(3);
        let rows = 12;
        let data = (0..rows * cfg.in_features).map(|_| rng.normal()).collect();
        let x = Tensor::from_vec(vec![rows, cfg.in_features], data).unwrap();
        let y: Vec<usize> = (0..rows).map(|i| i % cfg.classes).collect();
        Trainer::new(TrainerConfig {
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        })
        .fit(
            &mut net,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.01),
            &x,
            &y,
            None,
        )
        .expect("training");
        net.params_mut()
            .iter()
            .map(|p| (p.live(), p.len()))
            .collect()
    }

    /// At sequence length 1 a backward pass writes one kernel tap of each
    /// Conv1d weight and only `Wz`, `Wh`, `bz` and `bh` of each GRU, so the
    /// optimizer sweeps ≈19% of the paper's models. A backward that writes
    /// more, even zeros, widens a hull and fails here.
    #[test]
    fn seq1_training_keeps_gradient_hulls_narrow() {
        for (f, classes, blocks, live_total, total) in [
            (121, 5, 5, 224_460, 1_176_730),
            (196, 10, 10, 1_168_170, 6_164_210),
        ] {
            let cfg = NetConfig {
                in_features: f,
                classes,
                blocks,
                residual: true,
                kernel: 10,
                dropout: 0.6,
                seed: 7,
            };
            let live = live_after_three_steps(&cfg);
            let (slab, tap) = (f * f, (cfg.kernel - 1) / 2);
            let mut want = Vec::new();
            for _ in 0..blocks {
                // BN, Conv1d weight (one tap) and bias, BN.
                want.extend([0..f, 0..f, tap * slab..(tap + 1) * slab, 0..f, 0..f, 0..f]);
                // GRU: Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh.
                want.extend([0..slab, 0..0, 0..slab, 0..0, 0..0, 0..0, 0..f, 0..0, 0..f]);
            }
            want.extend([0..f * classes, 0..classes]);
            let got: Vec<_> = live.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(got, want, "R{}/{f}", cfg.param_layers());
            let shares = (
                live.iter().map(|(r, _)| r.len()).sum::<usize>(),
                live.iter().map(|(_, n)| n).sum::<usize>(),
            );
            assert_eq!(shares, (live_total, total), "R{}/{f}", cfg.param_layers());
        }
    }

    #[test]
    fn deep_residual_forward_backward_is_finite() {
        let mut net = build_network(&NetConfig {
            in_features: 8,
            classes: 2,
            blocks: 10,
            residual: true,
            kernel: 10,
            dropout: 0.0,
            seed: 5,
        });
        let x = Tensor::ones(vec![4, 8]);
        let y = net.forward(&x, Mode::Train);
        assert!(!y.has_non_finite(), "forward exploded at depth 41");
        let dy = Tensor::ones(vec![4, 2]);
        let dx = net.backward(&dy);
        assert!(!dx.has_non_finite(), "backward exploded at depth 41");
    }
}

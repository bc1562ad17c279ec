//! The traced network and the bench-side training step.
//!
//! [`traced_network`] assembles the same layers, in the same order and
//! from the same seeds, as `pelican_core::models::build_network` for a
//! residual network, with every layer wrapped in [`Timed`]. The shortcut
//! batch-norm is wrapped too, so it counts under `nn.batchnorm` rather
//! than in the residual unit's self time. [`schedule`] and [`step`]
//! replay `Trainer::fit`'s minibatch loop (same shuffle schedule, same
//! call order) and time each call. The tests check both against the
//! library path byte for byte.

use crate::trace::{span, Kind, Timed};
use crate::util::Digest;
use pelican_core::models::NetConfig;
use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
use pelican_nn::optim::{Optimizer, RmsProp};
use pelican_nn::{
    Activation, ActivationKind, BatchNorm, Conv1d, Dense, Dropout, GlobalAvgPool1d, Gru, Layer,
    MaxPool1d, Mode, Param, Reshape, Residual, Sequential,
};
use pelican_tensor::{SeededRng, Tensor};
use std::time::Instant;

/// Table-I learning rate (RMSprop).
pub const LEARNING_RATE: f32 = 0.01;

/// A residual Pelican network with Table-I kernel and dropout.
pub fn net_config(features: usize, classes: usize, blocks: usize, seed: u64) -> NetConfig {
    NetConfig {
        in_features: features,
        classes,
        blocks,
        residual: true,
        kernel: 10,
        dropout: 0.6,
        seed,
    }
}

/// `build_network(cfg)` for a residual `cfg`, with every layer timed.
pub fn traced_network(cfg: &NetConfig) -> Timed<Sequential> {
    assert!(
        cfg.residual,
        "the traced network mirrors the residual blocks"
    );
    let f = cfg.in_features;
    let mut rng = SeededRng::new(cfg.seed);
    let mut net = Sequential::new();
    net.push(Timed::new(Kind::Glue, Reshape::new(vec![1, f])));
    for b in 0..cfg.blocks {
        let seed = cfg.seed.wrapping_add(1 + b as u64);
        let mut brng = SeededRng::new(seed);
        let mut tail = Sequential::new();
        tail.push(Timed::new(
            Kind::Conv1d,
            Conv1d::new(f, f, cfg.kernel, &mut brng),
        ));
        tail.push(Timed::new(
            Kind::Glue,
            Activation::new(ActivationKind::Relu),
        ));
        tail.push(Timed::new(Kind::Glue, MaxPool1d::new(1)));
        tail.push(Timed::new(Kind::BatchNorm, BatchNorm::new(f)));
        tail.push(Timed::new(Kind::Gru, Gru::new(f, f, &mut brng)));
        tail.push(Timed::new(Kind::Glue, Reshape::new(vec![1, f])));
        tail.push(Timed::new(
            Kind::Dropout,
            Dropout::new(cfg.dropout, seed.wrapping_add(0x5eed)),
        ));
        let pre: Box<dyn Layer> = Box::new(Timed::new(Kind::BatchNorm, BatchNorm::new(f)));
        net.push(Timed::new(Kind::Glue, Residual::new(Some(pre), tail)));
    }
    net.push(Timed::new(Kind::Glue, GlobalAvgPool1d::new()));
    net.push(Timed::new(
        Kind::Dense,
        Dense::new(f, cfg.classes, &mut rng),
    ));
    Timed::new(Kind::Glue, net)
}

/// `Trainer`'s per-epoch shuffle seed (first attempt of each epoch).
fn epoch_seed(base: u64, epoch: usize, retry: usize) -> u64 {
    let mut z = base
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (retry as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The minibatches `Trainer::fit(epochs, batch, shuffle_seed)` visits
/// over `n` rows, in order (first attempt of every epoch).
pub fn schedule(n: usize, batch: usize, shuffle_seed: u64, epochs: usize) -> Vec<Vec<usize>> {
    let mut batches = Vec::new();
    for epoch in 1..=epochs {
        let mut order: Vec<usize> = (0..n).collect();
        SeededRng::new(epoch_seed(shuffle_seed, epoch, 0)).shuffle(&mut order);
        batches.extend(order.chunks(batch.max(1)).map(<[usize]>::to_vec));
    }
    batches
}

/// One `Trainer::fit` step on `rows`, without an eval set or a recovery
/// policy, with a span around every call: `nn.step` holds
/// `nn.optim.zero_grad`, the forward pass, `nn.loss`, the backward pass
/// and `nn.optim.step`. Returns the step's wall time and whether its loss
/// was finite.
pub fn step(
    model: &mut dyn Layer,
    opt: &mut RmsProp,
    x: &Tensor,
    y: &[usize],
    rows: &[usize],
) -> (f64, bool) {
    let t = Instant::now();
    let finite = span("nn.step", || {
        let xb = x.gather_rows(rows);
        let yb: Vec<usize> = rows.iter().map(|&i| y[i]).collect();
        span("nn.optim.zero_grad", || model.zero_grad());
        let out = model.forward(&xb, Mode::Train);
        let (l, dout) = span("nn.loss", || SoftmaxCrossEntropy.loss(&out, &yb));
        model.backward(&dout);
        span("nn.optim.step", || opt.step(&mut model.params_mut()));
        l.is_finite()
    });
    (t.elapsed().as_secs_f64(), finite)
}

/// [`step`] over the first `max_steps` batches of [`schedule`], with a
/// fresh Table-I RMSprop. Returns the step wall times.
#[allow(clippy::too_many_arguments)]
pub fn train_steps(
    model: &mut dyn Layer,
    x: &Tensor,
    y: &[usize],
    batch: usize,
    shuffle_seed: u64,
    epochs: usize,
    max_steps: usize,
) -> Vec<f64> {
    let mut opt = RmsProp::new(LEARNING_RATE);
    schedule(x.shape()[0], batch, shuffle_seed, epochs)
        .iter()
        .take(max_steps)
        .map(|rows| step(model, &mut opt, x, y, rows).0)
        .collect()
}

/// Useful forward FLOPs of one step at sequence length 1 and batch `b`,
/// summed over blocks: Conv1d has one live tap (`2·b·c·c_out`); the GRU's
/// useful work is its input GEMM (`2·b·c·3u`), since its recurrent GEMMs
/// only ever see h₀ = 0.
pub fn useful_fwd_flops(cfg: &NetConfig, b: usize) -> [(Kind, f64); 2] {
    let (b, f, blocks) = (b as f64, cfg.in_features as f64, cfg.blocks as f64);
    [
        (Kind::Conv1d, blocks * 2.0 * b * f * f),
        (Kind::Gru, blocks * 2.0 * b * f * 3.0 * f),
    ]
}

/// A transparent wrapper that stamps the wall clock each time a training
/// forward pass starts, i.e. once per `Trainer::fit` step.
pub struct StepClock<L: Layer> {
    pub inner: L,
    pub marks: Vec<Instant>,
}

impl<L: Layer> StepClock<L> {
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            marks: Vec::new(),
        }
    }

    /// Step durations: the gaps between consecutive marks, the last one
    /// closed by `end`.
    pub fn step_secs(&self, end: Instant) -> Vec<f64> {
        let mut ends: Vec<Instant> = self.marks.iter().skip(1).copied().collect();
        ends.push(end);
        self.marks
            .iter()
            .zip(ends)
            .map(|(s, e)| (e - *s).as_secs_f64())
            .collect()
    }
}

impl<L: Layer> Layer for StepClock<L> {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.marks.push(Instant::now());
        }
        self.inner.forward(input, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.inner.backward(grad_out)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn param_layer_count(&self) -> usize {
        self.inner.param_layer_count()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }
}

/// Digest of a trained model's parameters and optimizer state together
/// with its predictions.
pub fn model_digest(model: &mut dyn Layer, preds: &[usize]) -> String {
    let mut d = Digest::new();
    d.bytes(&pelican_nn::io::params_to_bytes(model));
    d.usizes(preds);
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_core::experiment::{prepare_split, DatasetKind, ExpConfig};
    use pelican_core::models::build_network;
    use pelican_nn::{Trainer, TrainerConfig};

    fn logits_and_params(model: &mut dyn Layer, x: &Tensor) -> (Vec<u32>, Vec<u8>) {
        let logits = model.forward(x, Mode::Eval);
        let bits = logits.as_slice().iter().map(|v| v.to_bits()).collect();
        (bits, pelican_nn::io::params_to_bytes(model).to_vec())
    }

    /// Trains `build_network` with `Trainer::fit` and [`traced_network`]
    /// with [`train_steps`] on the same data, two epochs at batch 64, and
    /// requires bit-identical Eval logits and `params_to_bytes`.
    fn check(dataset: DatasetKind, blocks: usize) {
        let mut exp = ExpConfig::paper(dataset);
        exp.samples = 300;
        exp.seed = 5;
        let split = prepare_split(&exp);
        let (x, y) = (&split.x_train, &split.y_train[..]);
        let cfg = net_config(dataset.encoded_width(), dataset.classes(), blocks, 11);
        let (batch, epochs, shuffle_seed) = (64, 2, cfg.seed ^ 0x5F5F);
        let mut library = build_network(&cfg);
        Trainer::new(TrainerConfig {
            epochs,
            batch_size: batch,
            shuffle_seed,
            ..Default::default()
        })
        .fit(
            &mut library,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(LEARNING_RATE),
            x,
            y,
            None,
        )
        .expect("library training");
        let mut traced = traced_network(&cfg);
        train_steps(&mut traced, x, y, batch, shuffle_seed, epochs, usize::MAX);
        let (lib_logits, lib_params) = logits_and_params(&mut library, &split.x_test);
        let (tr_logits, tr_params) = logits_and_params(&mut traced, &split.x_test);
        assert!(lib_logits == tr_logits, "{dataset}: Eval logits differ");
        assert!(lib_params == tr_params, "{dataset}: params_to_bytes differ");
    }

    #[test]
    fn traced_path_matches_library_at_196_features() {
        check(DatasetKind::UnswNb15, 10);
    }

    #[test]
    fn traced_path_matches_library_at_121_features() {
        check(DatasetKind::NslKdd, 5);
    }

    #[test]
    fn traced_network_has_the_paper_layer_count() {
        assert_eq!(
            traced_network(&net_config(12, 3, 10, 0)).param_layer_count(),
            41
        );
        assert_eq!(
            traced_network(&net_config(12, 3, 5, 0)).param_layer_count(),
            21
        );
    }
}

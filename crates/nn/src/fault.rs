//! Seeded fault injection for robustness testing.
//!
//! Production training runs hit corrupted inputs, poisoned activations
//! and flaky data feeds; this module reproduces those failures
//! deterministically so the recovery paths in [`Trainer`](crate::Trainer)
//! and downstream consumers can be exercised in tests. Every fault is
//! drawn from a [`SeededRng`], so a failing run replays exactly from its
//! seed.
//!
//! The injector operates on two surfaces:
//!
//! * tensors — [`FaultInjector::corrupt_tensor`] poisons elements with
//!   NaN/±Inf (or huge finite values simulating an exploding update);
//! * CSV text — [`FaultInjector::garble_csv`] drops, truncates and
//!   corrupts data lines the way a failing feed or disk would.
//!
//! [`FaultyLayer`] wraps any [`Layer`] and corrupts its forward
//! activations at a configured rate during training, which is the
//! cheapest way to drive NaN losses through an otherwise healthy model.

use crate::{Layer, Mode, Param};
use pelican_tensor::{SeededRng, Tensor};

/// The value classes an injected fault writes into a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Quiet NaN.
    Nan,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
    /// Large finite magnitude (`±1e30`) — poisons downstream maths without
    /// tripping a plain `is_finite` check at the injection site.
    Huge,
}

impl Corruption {
    /// The value written into a poisoned element.
    pub fn value(self) -> f32 {
        match self {
            Corruption::Nan => f32::NAN,
            Corruption::PosInf => f32::INFINITY,
            Corruption::NegInf => f32::NEG_INFINITY,
            Corruption::Huge => 1e30,
        }
    }
}

/// Deterministic fault source.
///
/// `rate` is the per-opportunity probability that a fault fires; every
/// decision and every corrupted value comes from the seeded stream, so two
/// injectors built with the same seed corrupt identically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SeededRng,
    rate: f32,
    events: usize,
}

impl FaultInjector {
    /// Creates an injector firing with probability `rate` (clamped to
    /// `[0, 1]`) per opportunity.
    pub fn new(seed: u64, rate: f32) -> Self {
        Self {
            rng: SeededRng::new(seed),
            rate: rate.clamp(0.0, 1.0),
            events: 0,
        }
    }

    /// Draws one fire/no-fire decision at the configured rate.
    pub fn fires(&mut self) -> bool {
        self.rng.uniform() < self.rate
    }

    /// Total corruption events performed so far (tensor corruptions and
    /// CSV lines damaged each count once).
    pub fn events(&self) -> usize {
        self.events
    }

    /// Poisons roughly `frac` of `t`'s elements (at least one, if the
    /// tensor is non-empty) with random [`Corruption`] values. Returns the
    /// number of elements written.
    pub fn corrupt_tensor(&mut self, t: &mut Tensor, frac: f32) -> usize {
        let len = t.len();
        if len == 0 {
            return 0;
        }
        let n = ((len as f32 * frac.clamp(0.0, 1.0)).round() as usize).clamp(1, len);
        let data = t.as_mut_slice();
        for _ in 0..n {
            let idx = self.rng.index(len);
            let kind = match self.rng.index(4) {
                0 => Corruption::Nan,
                1 => Corruption::PosInf,
                2 => Corruption::NegInf,
                _ => Corruption::Huge,
            };
            data[idx] = kind.value();
        }
        self.events += 1;
        n
    }

    /// Damages CSV `text` line by line at the configured rate: a hit line
    /// is dropped, truncated mid-field, or has one field replaced with a
    /// non-numeric token. Returns the damaged text and the number of lines
    /// affected. Deterministic for a given seed and input.
    pub fn garble_csv(&mut self, text: &str) -> (String, usize) {
        let mut out = String::with_capacity(text.len());
        let mut damaged = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() || !self.fires() {
                out.push_str(line);
                out.push('\n');
                continue;
            }
            damaged += 1;
            self.events += 1;
            match self.rng.index(3) {
                // Drop the line entirely.
                0 => {}
                // Truncate mid-line (arity / trailing-field damage).
                1 => {
                    let cut = line.len() / 2;
                    out.push_str(&line[..cut]);
                    out.push('\n');
                }
                // Replace one field with garbage.
                _ => {
                    let fields: Vec<&str> = line.split(',').collect();
                    let victim = self.rng.index(fields.len());
                    let rebuilt: Vec<&str> = fields
                        .iter()
                        .enumerate()
                        .map(|(i, f)| if i == victim { "<garbled>" } else { *f })
                        .collect();
                    out.push_str(&rebuilt.join(","));
                    out.push('\n');
                }
            }
        }
        (out, damaged)
    }
}

/// A [`Layer`] wrapper that corrupts forward activations during training.
///
/// Each training-mode forward pass fires with the injector's rate; when it
/// fires, `frac` of the output elements are poisoned. Evaluation passes are
/// never corrupted, so test metrics measure the recovered model rather
/// than the fault. Gradient flow and parameters delegate to the inner
/// layer untouched.
pub struct FaultyLayer<L: Layer> {
    inner: L,
    injector: FaultInjector,
    frac: f32,
}

impl<L: Layer> FaultyLayer<L> {
    /// Wraps `inner`, corrupting `frac` of output elements on each firing
    /// training forward pass (probability `rate`, seeded by `seed`).
    pub fn new(inner: L, seed: u64, rate: f32, frac: f32) -> Self {
        Self {
            inner,
            injector: FaultInjector::new(seed, rate),
            frac,
        }
    }

    /// Number of forward passes corrupted so far.
    pub fn injections(&self) -> usize {
        self.injector.events()
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Unwraps into the inner layer.
    pub fn into_inner(self) -> L {
        self.inner
    }
}

impl<L: Layer> Layer for FaultyLayer<L> {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = self.inner.forward(input, mode);
        if mode == Mode::Train && self.injector.fires() {
            self.injector.corrupt_tensor(&mut out, self.frac);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.inner.backward(grad_out)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }

    fn param_layer_count(&self) -> usize {
        self.inner.param_layer_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense;

    #[test]
    fn corrupt_tensor_is_deterministic_and_counted() {
        let mut t1 = Tensor::zeros(vec![4, 8]);
        let mut t2 = Tensor::zeros(vec![4, 8]);
        let mut a = FaultInjector::new(9, 1.0);
        let mut b = FaultInjector::new(9, 1.0);
        let n1 = a.corrupt_tensor(&mut t1, 0.25);
        let n2 = b.corrupt_tensor(&mut t2, 0.25);
        assert_eq!(n1, n2);
        assert!(n1 >= 1);
        assert_eq!(a.events(), 1);
        // Same seed → identical corruption pattern (NaN != NaN, so compare
        // bit patterns).
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t1), bits(&t2));
        assert!(t1.has_non_finite() || t1.as_slice().iter().any(|v| v.abs() >= 1e29));
    }

    #[test]
    fn corrupt_tensor_touches_at_least_one_element() {
        let mut t = Tensor::zeros(vec![3]);
        let mut inj = FaultInjector::new(1, 1.0);
        assert_eq!(inj.corrupt_tensor(&mut t, 0.0), 1);
        assert_eq!(inj.corrupt_tensor(&mut Tensor::zeros(vec![0]), 0.5), 0);
    }

    #[test]
    fn garble_csv_damages_lines_at_full_rate() {
        let text = "1,2,3\n4,5,6\n7,8,9\n";
        let (out, damaged) = FaultInjector::new(3, 1.0).garble_csv(text);
        assert_eq!(damaged, 3);
        assert_ne!(out, text);
        // Zero rate leaves the text intact.
        let (clean, none) = FaultInjector::new(3, 0.0).garble_csv(text);
        assert_eq!(none, 0);
        assert_eq!(clean, text);
    }

    #[test]
    fn faulty_layer_corrupts_train_but_never_eval() {
        let mut rng = SeededRng::new(4);
        let inner = Dense::new(4, 4, &mut rng);
        let mut layer = FaultyLayer::new(inner, 5, 1.0, 0.5);
        let x = Tensor::ones(vec![2, 4]);
        let train_out = layer.forward(&x, Mode::Train);
        assert!(train_out.has_non_finite() || train_out.max() >= 1e29);
        assert_eq!(layer.injections(), 1);
        let eval_out = layer.forward(&x, Mode::Eval);
        assert!(!eval_out.has_non_finite());
        assert_eq!(layer.injections(), 1);
        assert_eq!(layer.param_layer_count(), 1);
        assert_eq!(layer.params_mut().len(), 2);
    }
}

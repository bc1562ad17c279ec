//! Gradient-descent optimizers.
//!
//! The paper trains every network with RMSprop at learning rate 0.01
//! (Table I); SGD, Adam and AdaDelta are provided for ablations — the paper
//! itself names "SGD, RMSprop, ADAELTA" as the family of applicable
//! optimizers (Section III).
//!
//! Each update is one zipped pass per parameter over its value, gradient
//! and state slots, with the hyper-parameters copied into locals. Every
//! expression keeps the operands and order of operations of the textbook
//! per-element formula; Rust never contracts to FMA and IEEE mul, div and
//! sqrt are correctly rounded, so the packed instructions the compiler
//! emits for the pass give the bits a scalar loop gives.
//!
//! The pass covers only the parameter's [`live`](Param::live) hull when
//! the hyper-parameters make the update the identity on a `+0.0` gradient
//! and `+0.0` state, which is what every element outside the hull holds;
//! otherwise it covers the whole parameter ([`Param::sweep`], DESIGN §11).

use crate::Param;

/// A gradient-descent update rule over a set of parameters.
///
/// Optimizers are stateless with respect to *which* parameters they see:
/// per-parameter state (moving averages, moments) lives in
/// [`Param::state`], so the same optimizer instance can drive any model.
pub trait Optimizer {
    /// Applies one update step to every parameter, consuming `grad` (the
    /// gradients are left in place; callers zero them before the next
    /// backward pass).
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Adjusts the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Whether `x · (+0.0)` is `+0.0`: `x` is finite with a clear sign bit.
/// The hull sweeps below rest on it (DESIGN §11).
fn keeps_plus_zero(x: f32) -> bool {
    x.is_finite() && x.is_sign_positive()
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0 }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        let (lr, momentum) = (self.lr, self.momentum);
        // Plain SGD: θ + (−lr)·(+0) = θ. Momentum SGD is never swept on the
        // hull: v = m·(+0) − lr·(+0) = +0, and θ + (+0) turns −0.0 into +0.0.
        let on_hull = keeps_plus_zero(lr);
        for p in params {
            if momentum == 0.0 {
                assert_eq!(
                    p.grad().shape(),
                    p.value.shape(),
                    "sgd: gradient shape differs from the parameter's"
                );
                let (value, grad, []) = p.sweep::<0>("sgd", on_hull);
                for (th, &g) in value.iter_mut().zip(grad) {
                    *th += -lr * g;
                }
            } else {
                let (value, grad, [v]) = p.sweep::<1>("sgd momentum", false);
                for ((th, v), &g) in value.iter_mut().zip(v.iter_mut()).zip(grad) {
                    *v = momentum * *v - lr * g;
                    *th += *v;
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSprop (Tieleman & Hinton) — the paper's training algorithm.
///
/// `cache ← ρ·cache + (1−ρ)·g²;  θ ← θ − lr·g / (√cache + ε)`
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    rho: f32,
    eps: f32,
}

impl RmsProp {
    /// RMSprop with the Keras defaults `ρ = 0.9`, `ε = 1e-7`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            rho: 0.9,
            eps: 1e-7,
        }
    }

    /// RMSprop with explicit decay and epsilon.
    pub fn with_options(lr: f32, rho: f32, eps: f32) -> Self {
        Self { lr, rho, eps }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [&mut Param]) {
        let (lr, rho, eps) = (self.lr, self.rho, self.eps);
        // c = ρ·(+0) + ((1−ρ)·(+0))·(+0) = +0 and θ − (lr·(+0))/(√(+0)+ε) = θ.
        let on_hull = rho.is_finite() && keeps_plus_zero(lr) && eps > 0.0;
        for p in params {
            let (value, grad, [cache]) = p.sweep::<1>("rmsprop", on_hull);
            for ((th, c), &g) in value.iter_mut().zip(cache.iter_mut()).zip(grad) {
                *c = rho * *c + (1.0 - rho) * g * g;
                *th -= lr * g / (c.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let b1t = 1.0 - beta1.powi(self.t as i32);
        let b2t = 1.0 - beta2.powi(self.t as i32);
        // m = v = +0, so m̂ = v̂ = +0 and θ − (lr·(+0))/(√(+0)+ε) = θ.
        let on_hull = beta1.is_finite()
            && beta2.is_finite()
            && b1t > 0.0
            && b2t > 0.0
            && keeps_plus_zero(lr)
            && eps > 0.0;
        for p in params {
            let (value, grad, [m, v]) = p.sweep::<2>("adam", on_hull);
            for (((th, m), v), &g) in value
                .iter_mut()
                .zip(m.iter_mut())
                .zip(v.iter_mut())
                .zip(grad)
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                let mhat = *m / b1t;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let vhat = *v / b2t;
                *th -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// AdaDelta (Zeiler): learning-rate-free adaptive updates.
#[derive(Debug, Clone)]
pub struct AdaDelta {
    rho: f32,
    eps: f32,
    /// Scaling factor applied to the adaptive step (1.0 in the original
    /// formulation; exposed as the "learning rate" for trait uniformity).
    lr: f32,
}

impl AdaDelta {
    /// AdaDelta with `ρ = 0.95`, `ε = 1e-6`, unit step scale.
    pub fn new() -> Self {
        Self {
            rho: 0.95,
            eps: 1e-6,
            lr: 1.0,
        }
    }
}

impl Default for AdaDelta {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for AdaDelta {
    fn step(&mut self, params: &mut [&mut Param]) {
        let (lr, rho, eps) = (self.lr, self.rho, self.eps);
        // eg = +0, δ = −(√ε/√ε)·(+0) = −0, ed = ρ·(+0) + ((1−ρ)·δ)·δ = +0
        // and θ + lr·(−0) = θ.
        let on_hull = rho.is_finite() && eps > 0.0 && eps.is_finite() && keeps_plus_zero(lr);
        for p in params {
            let (value, grad, [eg, ed]) = p.sweep::<2>("adadelta", on_hull);
            for (((th, eg), ed), &g) in value
                .iter_mut()
                .zip(eg.iter_mut())
                .zip(ed.iter_mut())
                .zip(grad)
            {
                *eg = rho * *eg + (1.0 - rho) * g * g;
                let delta = -((*ed + eps).sqrt() / (*eg + eps).sqrt()) * g;
                *ed = rho * *ed + (1.0 - rho) * delta * delta;
                *th += lr * delta;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_tensor::Tensor;

    /// One optimizer step on f(θ) = θ² starting at θ = 1 (gradient 2).
    fn one_step(opt: &mut dyn Optimizer) -> f32 {
        let mut p = Param::new(Tensor::from_vec(vec![1], vec![1.0]).unwrap());
        p.grad_mut(..)[0] = 2.0;
        opt.step(&mut [&mut p]);
        p.value.as_slice()[0]
    }

    #[test]
    fn sgd_takes_lr_scaled_step() {
        assert!((one_step(&mut Sgd::new(0.1)) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn rmsprop_first_step_is_lr_over_sqrt_one_minus_rho() {
        // cache = 0.1*g² → step = lr·g/(√(0.1·4)) = 0.01·2/0.6325 ≈ 0.0316.
        let v = one_step(&mut RmsProp::new(0.01));
        assert!(
            (v - (1.0 - 0.01 * 2.0 / (0.4f32).sqrt())).abs() < 1e-4,
            "{v}"
        );
    }

    #[test]
    fn adam_first_step_approximates_lr() {
        // With bias correction the first Adam step is ≈ lr·sign(g).
        let v = one_step(&mut Adam::new(0.01));
        assert!((v - 0.99).abs() < 1e-4, "{v}");
    }

    #[test]
    fn adadelta_moves_against_gradient() {
        let v = one_step(&mut AdaDelta::new());
        assert!(v < 1.0);
    }

    /// All optimizers must descend a simple quadratic.
    #[test]
    fn all_optimizers_descend_quadratic() {
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Sgd::new(0.1)),
            Box::new(Sgd::with_momentum(0.05, 0.9)),
            Box::new(RmsProp::new(0.05)),
            Box::new(Adam::new(0.1)),
            Box::new(AdaDelta::new()),
        ];
        for mut opt in opts {
            let mut p = Param::new(Tensor::from_vec(vec![1], vec![3.0]).unwrap());
            // AdaDelta's unit-free steps start tiny; give everyone a long
            // horizon so the test measures convergence, not speed.
            for _ in 0..3000 {
                let theta = p.value.as_slice()[0];
                p.grad_mut(..)[0] = 2.0 * theta;
                opt.step(&mut [&mut p]);
            }
            let theta = p.value.as_slice()[0];
            assert!(theta.abs() < 0.5, "failed to descend: θ = {theta}");
        }
    }

    #[test]
    fn momentum_accelerates_along_consistent_gradient() {
        let mut plain = Param::new(Tensor::from_vec(vec![1], vec![0.0]).unwrap());
        let mut mom = Param::new(Tensor::from_vec(vec![1], vec![0.0]).unwrap());
        let mut sgd = Sgd::new(0.1);
        let mut sgdm = Sgd::with_momentum(0.1, 0.9);
        for _ in 0..10 {
            plain.grad_mut(..)[0] = 1.0;
            mom.grad_mut(..)[0] = 1.0;
            sgd.step(&mut [&mut plain]);
            sgdm.step(&mut [&mut mom]);
        }
        assert!(mom.value.as_slice()[0] < plain.value.as_slice()[0]);
    }

    /// One step on a 4-element parameter whose gradient has 3 elements
    /// (its value was replaced after construction).
    fn step_with_short_grad(opt: &mut dyn Optimizer) {
        let mut p = Param::new(Tensor::ones(vec![3]));
        p.value = Tensor::ones(vec![4]);
        opt.step(&mut [&mut p]);
    }

    #[test]
    #[should_panic(expected = "sgd: gradient shape differs")]
    fn sgd_rejects_mismatched_grad() {
        step_with_short_grad(&mut Sgd::new(0.1));
    }

    #[test]
    #[should_panic(expected = "sgd momentum: gradient has 3 elements, parameter has 4")]
    fn sgd_momentum_rejects_mismatched_grad() {
        step_with_short_grad(&mut Sgd::with_momentum(0.1, 0.9));
    }

    #[test]
    #[should_panic(expected = "rmsprop: gradient has 3 elements, parameter has 4")]
    fn rmsprop_rejects_mismatched_grad() {
        step_with_short_grad(&mut RmsProp::new(0.01));
    }

    #[test]
    #[should_panic(expected = "adam: gradient has 3 elements, parameter has 4")]
    fn adam_rejects_mismatched_grad() {
        step_with_short_grad(&mut Adam::new(0.01));
    }

    #[test]
    #[should_panic(expected = "adadelta: gradient has 3 elements, parameter has 4")]
    fn adadelta_rejects_mismatched_grad() {
        step_with_short_grad(&mut AdaDelta::new());
    }

    /// A longer gradient is rejected too, and so is a state slot that
    /// does not match the parameter.
    #[test]
    #[should_panic(expected = "rmsprop: gradient has 5 elements, parameter has 4")]
    fn rmsprop_rejects_longer_grad() {
        let mut p = Param::new(Tensor::ones(vec![5]));
        p.value = Tensor::ones(vec![4]);
        RmsProp::new(0.01).step(&mut [&mut p]);
    }

    #[test]
    #[should_panic(expected = "adam: state slot has 2 elements, parameter has 4")]
    fn adam_rejects_mismatched_state_slot() {
        let mut p = Param::new(Tensor::ones(vec![4]));
        p.set_state(vec![Tensor::zeros(vec![4]), Tensor::zeros(vec![2])]);
        Adam::new(0.01).step(&mut [&mut p]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = RmsProp::new(0.01);
        assert_eq!(o.learning_rate(), 0.01);
        o.set_learning_rate(0.001);
        assert_eq!(o.learning_rate(), 0.001);
    }
}

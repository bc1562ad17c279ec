//! Reference optimizer updates: the indexed per-element loops the four
//! optimizers in `pelican_nn::optim` ran before they became zipped sweeps,
//! with the default hyper-parameters of each constructor passed in
//! explicitly. Each sweeps the whole parameter (`Param::sweep` with
//! `on_hull` false), so they are also the full-sweep oracle for the
//! optimizers' hull sweeps. `tests/kernel_equivalence.rs` checks the
//! sweeps against them bit for bit. Nothing outside tests uses them.

use pelican_nn::Param;

/// `Sgd::new(lr)` (`momentum == 0`) and `Sgd::with_momentum(lr, momentum)`.
pub fn sgd(params: &mut [&mut Param], lr: f32, momentum: f32) {
    for p in params {
        if momentum == 0.0 {
            let grad = p.grad().clone();
            assert_eq!(grad.shape(), p.value.shape(), "sgd shapes");
            let alpha = -lr;
            for (v, &g) in p.value.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *v += alpha * g;
            }
        } else {
            let (value, g, [v]) = p.sweep::<1>("reference", false);
            for (vi, &gi) in v.iter_mut().zip(g) {
                *vi = momentum * *vi - lr * gi;
            }
            for (th, &vi) in value.iter_mut().zip(v.iter()) {
                *th += vi;
            }
        }
    }
}

/// `RmsProp::with_options(lr, rho, eps)`.
pub fn rmsprop(params: &mut [&mut Param], lr: f32, rho: f32, eps: f32) {
    for p in params {
        let (value, grad, [cache]) = p.sweep::<1>("reference", false);
        for i in 0..value.len() {
            let g = grad[i];
            cache[i] = rho * cache[i] + (1.0 - rho) * g * g;
            value[i] -= lr * g / (cache[i].sqrt() + eps);
        }
    }
}

/// `Adam::new(lr)` with `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`; `t` is the
/// step counter the optimizer keeps.
pub fn adam(params: &mut [&mut Param], t: &mut u64, lr: f32) {
    let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    *t += 1;
    let b1t = 1.0 - beta1.powi(*t as i32);
    let b2t = 1.0 - beta2.powi(*t as i32);
    for p in params {
        let (value, grad, [m, v]) = p.sweep::<2>("reference", false);
        for i in 0..value.len() {
            let g = grad[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            let mhat = m[i] / b1t;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let vhat = v[i] / b2t;
            value[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// `AdaDelta::new()` with `ρ = 0.95`, `ε = 1e-6` and step scale `lr`.
pub fn adadelta(params: &mut [&mut Param], lr: f32) {
    let (rho, eps) = (0.95f32, 1e-6f32);
    for p in params {
        let (value, grad, [eg, ed]) = p.sweep::<2>("reference", false);
        for i in 0..value.len() {
            let g = grad[i];
            eg[i] = rho * eg[i] + (1.0 - rho) * g * g;
            let delta = -((ed[i] + eps).sqrt() / (eg[i] + eps).sqrt()) * g;
            ed[i] = rho * ed[i] + (1.0 - rho) * delta * delta;
            value[i] += lr * delta;
        }
    }
}

//! Reference optimizer updates: the indexed per-element loops the four
//! optimizers in `pelican_nn::optim` ran before they became zipped sweeps,
//! with the default hyper-parameters of each constructor passed in
//! explicitly. `tests/kernel_equivalence.rs` checks the sweeps against
//! them bit for bit, and `bench_kernels` times RMSprop against its loop.
//! Nothing outside tests and benches uses them.

// Each including crate uses a different subset.
#![allow(dead_code)]

use pelican_nn::Param;

/// `Sgd::new(lr)` (`momentum == 0`) and `Sgd::with_momentum(lr, momentum)`.
pub fn sgd(params: &mut [&mut Param], lr: f32, momentum: f32) {
    for p in params {
        if momentum == 0.0 {
            let grad = p.grad.clone();
            p.value.axpy(-lr, &grad).expect("sgd shapes");
        } else {
            p.ensure_state(1);
            let (g, v) = (p.grad.as_slice().to_vec(), &mut p.state[0]);
            for (vi, &gi) in v.as_mut_slice().iter_mut().zip(&g) {
                *vi = momentum * *vi - lr * gi;
            }
            let v = p.state[0].clone();
            p.value.add_assign(&v).expect("sgd momentum shapes");
        }
    }
}

/// `RmsProp::with_options(lr, rho, eps)`.
pub fn rmsprop(params: &mut [&mut Param], lr: f32, rho: f32, eps: f32) {
    for p in params {
        p.ensure_state(1);
        let n = p.value.len();
        for i in 0..n {
            let g = p.grad.as_slice()[i];
            let cache = &mut p.state[0].as_mut_slice()[i];
            *cache = rho * *cache + (1.0 - rho) * g * g;
            p.value.as_mut_slice()[i] -= lr * g / (cache.sqrt() + eps);
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
        p.ensure_state(2);
        let n = p.value.len();
        for i in 0..n {
            let g = p.grad.as_slice()[i];
            let m = &mut p.state[0].as_mut_slice()[i];
            *m = beta1 * *m + (1.0 - beta1) * g;
            let mhat = *m / b1t;
            let v = &mut p.state[1].as_mut_slice()[i];
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let vhat = *v / b2t;
            p.value.as_mut_slice()[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// `AdaDelta::new()` with `ρ = 0.95`, `ε = 1e-6` and step scale `lr`.
pub fn adadelta(params: &mut [&mut Param], lr: f32) {
    let (rho, eps) = (0.95f32, 1e-6f32);
    for p in params {
        p.ensure_state(2);
        let n = p.value.len();
        for i in 0..n {
            let g = p.grad.as_slice()[i];
            let eg = &mut p.state[0].as_mut_slice()[i];
            *eg = rho * *eg + (1.0 - rho) * g * g;
            let eg_v = *eg;
            let ed = &mut p.state[1].as_mut_slice()[i];
            let delta = -((*ed + eps).sqrt() / (eg_v + eps).sqrt()) * g;
            *ed = rho * *ed + (1.0 - rho) * delta * delta;
            p.value.as_mut_slice()[i] += lr * delta;
        }
    }
}

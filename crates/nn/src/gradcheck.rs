//! Finite-difference gradient checking.
//!
//! Every differentiable layer in this crate is verified against a central
//! finite-difference approximation of `d/dθ Σ (forward(x) ⊙ R)` for a fixed
//! random projection `R` — covering both the input gradient and every
//! parameter gradient. The checks run in the layer's own unit tests.
//!
//! [`check_layer_pooled`] repeats the same check with the
//! [`pelican_runtime`] worker pool forced on, so each layer's analytic
//! gradients are verified through the parallel tensor kernels as well as
//! the serial ones.

use crate::{Layer, Mode};
use pelican_runtime::{with_exec, ExecConfig};
use pelican_tensor::{SeededRng, Tensor};

/// Maximum number of coordinates probed per tensor; larger tensors are
/// subsampled deterministically.
const MAX_PROBES: usize = 64;

/// Scalar objective `Σ forward(x) ⊙ r` used by the checks.
fn objective<L: Layer>(layer: &mut L, x: &Tensor, r: &Tensor) -> f32 {
    let y = layer.forward(x, Mode::Train);
    assert_eq!(
        y.shape(),
        r.shape(),
        "projection shape mismatch: output {:?}",
        y.shape()
    );
    y.as_slice()
        .iter()
        .zip(r.as_slice())
        .map(|(&a, &b)| (a as f64 * b as f64) as f32)
        .sum()
}

fn probe_indices(len: usize, rng: &mut SeededRng) -> Vec<usize> {
    if len <= MAX_PROBES {
        (0..len).collect()
    } else {
        let mut idx: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut idx);
        idx.truncate(MAX_PROBES);
        idx
    }
}

/// Gradient-checks a layer on a random input of `input_shape`.
///
/// Verifies the input gradient and every parameter gradient against central
/// finite differences with relative tolerance `tol`.
///
/// # Panics
///
/// Panics (failing the test) when any probed coordinate disagrees beyond
/// `tol`, or if the layer's forward pass is not repeatable.
pub fn check_layer<L: Layer>(layer: L, input_shape: &[usize], seed: u64, tol: f32) {
    with_exec(ExecConfig::serial(), || {
        check_layer_here(layer, input_shape, seed, tol);
    });
}

/// Gradient-checks freshly built copies of a layer through the worker pool.
///
/// Runs the same finite-difference check as [`check_layer`] serially and
/// then with the pool forced on at 2, 3 and 7 workers (`force_parallel`
/// bypasses the FLOP threshold, so even small test shapes exercise the
/// parallel kernels). `make` must build an identically initialised layer on
/// every call.
///
/// # Panics
///
/// Panics (failing the test) when any configuration disagrees with finite
/// differences beyond `tol`.
pub fn check_layer_pooled<L: Layer>(
    make: impl Fn() -> L,
    input_shape: &[usize],
    seed: u64,
    tol: f32,
) {
    with_exec(ExecConfig::serial(), || {
        check_layer_here(make(), input_shape, seed, tol);
    });
    for workers in [2usize, 3, 7] {
        let cfg = ExecConfig {
            workers,
            force_parallel: true,
        };
        with_exec(cfg, || {
            check_layer_here(make(), input_shape, seed, tol);
        });
    }
}

/// The finite-difference check itself, run under whatever execution
/// configuration is already installed on this thread.
fn check_layer_here<L: Layer>(mut layer: L, input_shape: &[usize], seed: u64, tol: f32) {
    let mut rng = SeededRng::new(seed);
    let x_data: Vec<f32> = (0..input_shape.iter().product::<usize>())
        .map(|_| rng.normal_with(0.0, 1.0))
        .collect();
    let mut x = Tensor::from_vec(input_shape.to_vec(), x_data).expect("input shape");

    // Fixed projection over the output.
    let y0 = layer.forward(&x, Mode::Train);
    let r_data: Vec<f32> = (0..y0.len()).map(|_| rng.normal_with(0.0, 1.0)).collect();
    let r = Tensor::from_vec(y0.shape().to_vec(), r_data).expect("projection shape");

    // Forward must be repeatable for finite differences to make sense.
    let l0 = objective(&mut layer, &x, &r);
    let l1 = objective(&mut layer, &x, &r);
    assert!(
        (l0 - l1).abs() <= 1e-6 * l0.abs().max(1.0),
        "layer {} forward is not deterministic: {l0} vs {l1}",
        layer.name()
    );

    // Analytic gradients.
    layer.zero_grad();
    layer.forward(&x, Mode::Train);
    let dx = layer.backward(&r);
    let analytic_params: Vec<Tensor> = layer
        .params_mut()
        .iter()
        .map(|p| p.grad().clone())
        .collect();

    // Input gradient.
    {
        // Split borrows: perturb x, re-evaluate objective through the layer.
        let len = x.len();
        let analytic = dx.clone();
        let eval_layer = |x_ref: &Tensor, layer: &mut L| objective(layer, x_ref, &r);
        for i in probe_indices(len, &mut rng) {
            let orig = x.as_slice()[i];
            let h = 1e-2f32 * orig.abs().max(1.0);
            x.as_mut_slice()[i] = orig + h;
            let up = eval_layer(&x, &mut layer);
            x.as_mut_slice()[i] = orig - h;
            let down = eval_layer(&x, &mut layer);
            x.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            let a = analytic.as_slice()[i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            let rel = (a - numeric).abs() / denom;
            assert!(
                rel <= tol,
                "dX[{i}]: analytic {a} vs numeric {numeric} (rel err {rel}, tol {tol})"
            );
        }
    }

    // Parameter gradients: perturb each parameter coordinate in place.
    for (pi, analytic) in analytic_params.iter().enumerate() {
        for i in probe_indices(analytic.len(), &mut rng) {
            let orig = layer.params_mut()[pi].value.as_slice()[i];
            let h = 1e-2f32 * orig.abs().max(1.0);
            layer.params_mut()[pi].value.as_mut_slice()[i] = orig + h;
            let up = objective(&mut layer, &x, &r);
            layer.params_mut()[pi].value.as_mut_slice()[i] = orig - h;
            let down = objective(&mut layer, &x, &r);
            layer.params_mut()[pi].value.as_mut_slice()[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            let a = analytic.as_slice()[i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            let rel = (a - numeric).abs() / denom;
            assert!(
                rel <= tol,
                "dParam{pi}[{i}]: analytic {a} vs numeric {numeric} (rel err {rel}, tol {tol})"
            );
        }
    }
}

//! Property-based tests for the neural-network substrate.

use pelican_nn::loss::{Loss, SoftmaxCrossEntropy};
use pelican_nn::optim::{Optimizer, RmsProp, Sgd};
use pelican_nn::{
    Activation, ActivationKind, BatchNorm, Dropout, Layer, Mode, Param, Residual, Sequential,
};
use pelican_tensor::{SeededRng, Tensor};
use proptest::prelude::*;

fn random_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let data = (0..shape.iter().product::<usize>())
        .map(|_| rng.normal_with(0.0, 2.0))
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

proptest! {
    /// Activations stay in their mathematical ranges for any input.
    #[test]
    fn activation_ranges(x in -50.0f32..50.0) {
        prop_assert!(ActivationKind::Relu.apply(x) >= 0.0);
        prop_assert!((-1.0..=1.0).contains(&ActivationKind::Tanh.apply(x)));
        prop_assert!((0.0..=1.0).contains(&ActivationKind::Sigmoid.apply(x)));
        prop_assert!((0.0..=1.0).contains(&ActivationKind::HardSigmoid.apply(x)));
        // Derivatives are non-negative (all four are monotone).
        for k in [ActivationKind::Relu, ActivationKind::Tanh,
                  ActivationKind::Sigmoid, ActivationKind::HardSigmoid] {
            prop_assert!(k.derivative(x) >= 0.0);
        }
    }

    /// Cross-entropy is non-negative and its gradient rows sum to zero.
    #[test]
    fn cross_entropy_invariants(b in 1usize..8, c in 2usize..6, seed in 0u64..500) {
        let logits = random_tensor(vec![b, c], seed);
        let mut rng = SeededRng::new(seed ^ 1);
        let targets: Vec<usize> = (0..b).map(|_| rng.index(c)).collect();
        let (loss, grad) = SoftmaxCrossEntropy.loss(&logits, &targets);
        prop_assert!(loss >= 0.0, "CE must be non-negative: {loss}");
        prop_assert!(loss.is_finite());
        for row in grad.as_slice().chunks(c) {
            let sum: f32 = row.iter().sum();
            prop_assert!(sum.abs() < 1e-5, "gradient row sum {sum}");
        }
    }

    /// Inverted dropout preserves the expected value of a constant input.
    #[test]
    fn dropout_preserves_expectation(rate in 0.0f32..0.9, seed in 0u64..100) {
        let mut d = Dropout::new(rate, seed);
        let x = Tensor::ones(vec![64, 64]);
        let y = d.forward(&x, Mode::Train);
        let tolerance = 0.1 + rate * 0.15; // higher variance at higher rates
        prop_assert!((y.mean() - 1.0).abs() < tolerance, "mean {}", y.mean());
    }

    /// BatchNorm(train) output always has per-channel mean ≈ 0.
    #[test]
    fn batchnorm_centres_channels(b in 2usize..10, c in 1usize..6, seed in 0u64..200) {
        let mut bn = BatchNorm::new(c);
        let x = random_tensor(vec![b, c], seed);
        let y = bn.forward(&x, Mode::Train);
        let mean = y.mean_axis0().unwrap();
        for &m in mean.as_slice() {
            prop_assert!(m.abs() < 1e-3, "channel mean {m}");
        }
    }

    /// SGD moves every parameter opposite to its gradient.
    #[test]
    fn sgd_descends(v in -10.0f32..10.0, g in -5.0f32..5.0, lr in 0.001f32..0.5) {
        let mut p = Param::new(Tensor::from_vec(vec![1], vec![v]).unwrap());
        p.grad_mut(..)[0] = g;
        Sgd::new(lr).step(&mut [&mut p]);
        let moved = p.value.as_slice()[0] - v;
        if g != 0.0 {
            prop_assert!(moved.signum() == -g.signum(), "moved {moved} for grad {g}");
            prop_assert!((moved + lr * g).abs() < 1e-5);
        } else {
            prop_assert_eq!(moved, 0.0);
        }
    }

    /// RMSprop steps are bounded by ~lr/√(1-ρ) regardless of gradient size
    /// (the normalisation property that makes the paper's lr=0.01 safe).
    #[test]
    fn rmsprop_steps_are_scale_free(g in prop::num::f32::NORMAL.prop_filter("nonzero", |v| v.abs() > 1e-3 && v.abs() < 1e6)) {
        let mut p = Param::new(Tensor::from_vec(vec![1], vec![0.0]).unwrap());
        p.grad_mut(..)[0] = g;
        RmsProp::new(0.01).step(&mut [&mut p]);
        let step = p.value.as_slice()[0].abs();
        prop_assert!(step <= 0.01 / (0.1f32).sqrt() + 1e-4, "step {step} for grad {g}");
    }

    /// A residual wrapper with an empty body is exactly y = 2x, and its
    /// gradient is exactly 2·dy — for any shape.
    #[test]
    fn residual_identity_algebra(b in 1usize..5, f in 1usize..8, seed in 0u64..100) {
        let mut r = Residual::new(None, Sequential::new());
        let x = random_tensor(vec![b, f], seed);
        let y = r.forward(&x, Mode::Train);
        for (yv, xv) in y.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((yv - 2.0 * xv).abs() < 1e-6);
        }
        let dy = random_tensor(vec![b, f], seed ^ 3);
        let dx = r.backward(&dy);
        for (dxv, dyv) in dx.as_slice().iter().zip(dy.as_slice()) {
            prop_assert!((dxv - 2.0 * dyv).abs() < 1e-6);
        }
    }

    /// Eval-mode forward passes are pure: same input, same output, no
    /// state drift — for a stack with BN + dropout (the stateful layers).
    #[test]
    fn eval_forward_is_pure(seed in 0u64..100) {
        let mut net = Sequential::new();
        net.push(BatchNorm::new(4));
        net.push(Activation::new(ActivationKind::Tanh));
        net.push(Dropout::new(0.5, seed));
        let x = random_tensor(vec![3, 4], seed);
        let y1 = net.forward(&x, Mode::Eval);
        let y2 = net.forward(&x, Mode::Eval);
        prop_assert_eq!(y1, y2);
    }
}

//! Equivalence suite for the parallel execution engine.
//!
//! The engine's contract is *bit-identity*: every tensor kernel, layer
//! forward/backward pass and reduced gradient must produce exactly the
//! same bits under the worker pool as on the serial path, for every
//! worker count. These tests force the pool on (`force_parallel`
//! bypasses the FLOP thresholds) so tiny adversarial shapes — batch 1,
//! odd remainders, fewer rows than workers — exercise the parallel
//! machinery, and compare results to the serial path with `f32::to_bits`
//! so `-0.0` vs `0.0` or NaN-payload drift would also fail.

use pelican::nn::{Conv1d, Gru, Layer, Mode};
use pelican::prelude::*;
use pelican::runtime::with_exec;
use pelican::tensor::{SeededRng, Tensor};
use proptest::prelude::*;

/// Worker counts every property is checked at: the serial baseline, an
/// even split, an odd split, and more workers than most test shapes have
/// rows.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` serially, then under the forced-on pool at each non-serial
/// worker count, asserting the returned bit patterns never change.
fn assert_bit_stable<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let serial = with_exec(ExecConfig::serial(), &f);
    for workers in WORKER_COUNTS {
        let cfg = ExecConfig {
            workers,
            force_parallel: true,
        };
        let par = with_exec(cfg, &f);
        assert_eq!(par, serial, "{what} changed bits at {workers} workers");
    }
}

fn random_tensor(shape: Vec<usize>, rng: &mut SeededRng) -> Tensor {
    let data = (0..shape.iter().product::<usize>())
        .map(|_| rng.normal())
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Forward + backward through a layer, returning the bits of the output,
/// the input gradient and every parameter gradient (the reduced
/// gradients: `dW` flows through `matmul_at`, `db` through `sum_axis0`).
fn layer_fwd_bwd<L: Layer>(make: impl Fn() -> L, x: &Tensor, grad_seed: u64) -> Vec<Vec<u32>> {
    let mut layer = make();
    let y = layer.forward(x, Mode::Train);
    let mut rng = SeededRng::new(grad_seed);
    let g = random_tensor(y.shape().to_vec(), &mut rng);
    layer.zero_grad();
    let dx = layer.backward(&g);
    let mut out = vec![bits(&y), bits(&dx)];
    for p in layer.params_mut() {
        out.push(p.grad().as_slice().iter().map(|v| v.to_bits()).collect());
    }
    out
}

// ---------------------------------------------------------------------
// Deterministic adversarial shapes: the partition edge cases a chunked
// engine gets wrong first.
// ---------------------------------------------------------------------

#[test]
fn matmul_batch_one_is_bit_stable() {
    let mut rng = SeededRng::new(1);
    let a = random_tensor(vec![1, 9], &mut rng); // one row: nothing to split
    let b = random_tensor(vec![9, 4], &mut rng);
    assert_bit_stable("matmul [1,9]·[9,4]", || bits(&a.matmul(&b).unwrap()));
}

#[test]
fn matmul_odd_remainder_is_bit_stable() {
    let mut rng = SeededRng::new(2);
    // 7 rows over {2,3,7} workers: every chunking leaves a ragged tail.
    let a = random_tensor(vec![7, 5], &mut rng);
    let b = random_tensor(vec![5, 3], &mut rng);
    assert_bit_stable("matmul [7,5]·[5,3]", || bits(&a.matmul(&b).unwrap()));
}

#[test]
fn matmul_fewer_rows_than_workers_is_bit_stable() {
    let mut rng = SeededRng::new(3);
    let a = random_tensor(vec![2, 6], &mut rng); // 2 rows, up to 7 workers
    let b = random_tensor(vec![6, 5], &mut rng);
    assert_bit_stable("matmul [2,6]·[6,5]", || bits(&a.matmul(&b).unwrap()));
}

#[test]
fn transposed_kernels_are_bit_stable() {
    let mut rng = SeededRng::new(4);
    let a = random_tensor(vec![7, 5], &mut rng);
    let b_nk = random_tensor(vec![3, 5], &mut rng);
    let a_km = random_tensor(vec![6, 7], &mut rng);
    let b_kn = random_tensor(vec![6, 3], &mut rng);
    assert_bit_stable("matmul_bt", || bits(&a.matmul_bt(&b_nk).unwrap()));
    assert_bit_stable("matmul_at", || bits(&a_km.matmul_at(&b_kn).unwrap()));
}

#[test]
fn matmul_at_zero_skip_is_bit_stable() {
    // matmul_at skips zero activations (ReLU outputs are full of them);
    // the parallel path must take the identical skips.
    let mut rng = SeededRng::new(5);
    let mut a = random_tensor(vec![6, 7], &mut rng);
    for v in a.as_mut_slice().iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let b = random_tensor(vec![6, 5], &mut rng);
    assert_bit_stable("matmul_at with zeros", || bits(&a.matmul_at(&b).unwrap()));
}

#[test]
fn sum_axis0_is_bit_stable() {
    let mut rng = SeededRng::new(6);
    for shape in [vec![1, 7], vec![9, 1], vec![11, 7], vec![3, 2]] {
        let a = random_tensor(shape.clone(), &mut rng);
        assert_bit_stable(&format!("sum_axis0 {shape:?}"), || {
            bits(&a.sum_axis0().unwrap())
        });
    }
}

// ---------------------------------------------------------------------
// Layer-level equivalence: forward, backward and the reduced parameter
// gradients of the paper's block layers.
// ---------------------------------------------------------------------

#[test]
fn conv1d_fwd_bwd_is_bit_stable() {
    let mut rng = SeededRng::new(7);
    for (batch, cin) in [(1usize, 3usize), (4, 2), (2, 4)] {
        let x = random_tensor(vec![batch, 1, cin], &mut rng);
        assert_bit_stable(&format!("conv1d fwd/bwd batch={batch} cin={cin}"), || {
            layer_fwd_bwd(|| Conv1d::new(cin, 4, 3, &mut SeededRng::new(31)), &x, 97)
        });
    }
}

#[test]
fn gru_fwd_bwd_is_bit_stable() {
    let mut rng = SeededRng::new(8);
    for (batch, cin) in [(1usize, 3usize), (5, 2), (2, 3)] {
        let x = random_tensor(vec![batch, 1, cin], &mut rng);
        assert_bit_stable(&format!("gru fwd/bwd batch={batch} cin={cin}"), || {
            layer_fwd_bwd(|| Gru::new(cin, 3, &mut SeededRng::new(37)), &x, 101)
        });
    }
}

#[test]
fn residual_block_fwd_bwd_is_bit_stable() {
    // A full paper block (conv → GRU → dense inside a residual stack)
    // via the model zoo, covering layer composition.
    let mut rng = SeededRng::new(9);
    let x = random_tensor(vec![3, 121], &mut rng);
    assert_bit_stable("Residual-5 block fwd/bwd", || {
        layer_fwd_bwd(
            || {
                build_network(&NetConfig {
                    in_features: 121,
                    classes: 5,
                    blocks: 1,
                    residual: true,
                    kernel: 10,
                    dropout: 0.0,
                    seed: 11,
                })
            },
            &x,
            103,
        )
    });
}

// ---------------------------------------------------------------------
// Property tests: random adversarial shapes.
// ---------------------------------------------------------------------

proptest! {
    /// Parallel matmul is bit-identical to serial for arbitrary small
    /// shapes — including single rows, ragged chunks and rows < workers.
    #[test]
    fn prop_matmul_bit_identical((m, k, n) in (1usize..9, 1usize..9, 1usize..9),
                                 seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let a = random_tensor(vec![m, k], &mut rng);
        let b = random_tensor(vec![k, n], &mut rng);
        let serial = with_exec(ExecConfig::serial(), || bits(&a.matmul(&b).unwrap()));
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig { workers, force_parallel: true };
            let par = with_exec(cfg, || bits(&a.matmul(&b).unwrap()));
            prop_assert_eq!(&par, &serial, "matmul [{},{}]·[{},{}] @ {} workers",
                            m, k, k, n, workers);
        }
    }

    /// Parallel backward kernels (`matmul_at`, `sum_axis0`) are
    /// bit-identical to serial — the reduced-gradient guarantee.
    #[test]
    fn prop_gradient_kernels_bit_identical((k, m, n) in (1usize..9, 1usize..9, 1usize..9),
                                           seed in 0u64..500) {
        let mut rng = SeededRng::new(seed.wrapping_add(7777));
        let a = random_tensor(vec![k, m], &mut rng);
        let b = random_tensor(vec![k, n], &mut rng);
        let serial = with_exec(ExecConfig::serial(), || {
            (bits(&a.matmul_at(&b).unwrap()), bits(&b.sum_axis0().unwrap()))
        });
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig { workers, force_parallel: true };
            let par = with_exec(cfg, || {
                (bits(&a.matmul_at(&b).unwrap()), bits(&b.sum_axis0().unwrap()))
            });
            prop_assert_eq!(&par, &serial, "k={} m={} n={} @ {} workers", k, m, n, workers);
        }
    }

    /// A dense layer's forward, input gradient and parameter gradients
    /// are bit-identical across worker counts for arbitrary batch sizes.
    #[test]
    fn prop_dense_fwd_bwd_bit_identical((batch, fin, fout) in (1usize..8, 1usize..8, 1usize..8),
                                        seed in 0u64..200) {
        let mut rng = SeededRng::new(seed.wrapping_add(424242));
        let x = random_tensor(vec![batch, fin], &mut rng);
        let run = || layer_fwd_bwd(
            || pelican::nn::Dense::new(fin, fout, &mut SeededRng::new(13)), &x, 107);
        let serial = with_exec(ExecConfig::serial(), run);
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig { workers, force_parallel: true };
            let par = with_exec(cfg, run);
            prop_assert_eq!(&par, &serial,
                            "dense batch={} {}→{} @ {} workers", batch, fin, fout, workers);
        }
    }
}

//! Equivalence suite for the packed compute core.
//!
//! The blocked GEMM (`pelican::tensor::pack`) is checked against the seed
//! GEMM (`support/gemm_reference.rs`'s `gemm_bt_reference`), the
//! sequence-length-1 `Gru` step against its per-gate step
//! (`reference_fwd_bwd`), `Conv1d` against its seed per-tap path
//! (`support/layer_reference.rs`'s `Conv1dRef`), and `matmul_at_into`
//! against the serial scalar `matmul_at_rows`. These properties assert the optimized
//! paths are *bit-identical* to those references — compared through
//! `f32::to_bits`, so `-0.0` vs `0.0` drift would fail, and a NaN must land
//! where the reference puts one — across adversarial shapes (`k = 0`,
//! single rows, non-multiples of the register tile, ragged segment splits)
//! and at every worker count, with the pool forced on so tiny shapes still
//! exercise the parallel machinery. The four optimizers' zipped sweeps are
//! checked the same way against the indexed loops they replaced
//! (`support/optim_reference.rs`), and the one-pass `BatchNorm`,
//! `Dropout`, `Activation` and `MaxPool1d` against the passes they
//! replaced (`support/layer_reference.rs`), on inputs salted with signed
//! zeros, subnormals, infinities and NaN payloads.

#[path = "support/gemm_reference.rs"]
mod gemm_reference;
#[path = "support/layer_reference.rs"]
mod layer_reference;
#[path = "support/optim_reference.rs"]
mod optim_reference;

use pelican::nn::fault::Corruption;
use pelican::nn::io::{self, CheckpointMeta};
use pelican::nn::loss::{Loss, SoftmaxCrossEntropy};
use pelican::nn::optim::{AdaDelta, Adam, Optimizer, RmsProp, Sgd};
use pelican::nn::{BatchNorm, Conv1d, Dropout, Gru, Layer, MaxPool1d, Mode, Param, RecoveryPolicy};
use pelican::prelude::*;
use pelican::runtime::with_exec;
use pelican::tensor::{pack, SeededRng, Tensor};
// Read by `gemm_reference`.
use pack::dot_seg;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cell::Cell;
use std::ops::Range;

/// Serial baseline, an even split, an odd split, and more workers than
/// most test shapes have rows.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn raw_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_vec(len: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

fn random_tensor(shape: Vec<usize>, rng: &mut SeededRng) -> Tensor {
    let data = random_vec(shape.iter().product(), rng);
    Tensor::from_vec(shape, data).unwrap()
}

/// Bit-equal except that any NaN matches any NaN: the payload of a NaN is
/// not part of the contract, its position is.
fn same_nan_positions_and_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && first_mismatch(got, want).is_none()
}

/// Index of the first element of `got` that is not bit-equal to `want`,
/// where any NaN matches any NaN.
fn first_mismatch(got: &[f32], want: &[f32]) -> Option<usize> {
    got.iter().zip(want).position(|(g, w)| {
        if w.is_nan() {
            !g.is_nan()
        } else {
            g.to_bits() != w.to_bits()
        }
    })
}

const CORRUPTIONS: [Corruption; 4] = [
    Corruption::Nan,
    Corruption::PosInf,
    Corruption::NegInf,
    Corruption::Huge,
];

/// One poisoned element of a GRU step, `(target, value, pos)`: `target`
/// 0 is `x`, 1–9 index [`Layer::params_mut`], 10 is `grad_out`; `pos`
/// picks the element.
type Poison = (usize, f32, usize);

/// A GRU, its input and its output gradient, with the `poison` elements
/// overwritten. Deterministic, so every worker count sees the same case.
fn poisoned_gru_case(
    (batch, cin, units): (usize, usize, usize),
    poison: &[Poison],
    seed: u64,
) -> (Gru, Tensor, Tensor) {
    let mut rng = SeededRng::new(seed.wrapping_add(999));
    let mut x = random_tensor(vec![batch, 1, cin], &mut rng);
    let mut g = random_tensor(vec![batch, 1, units], &mut rng);
    let mut gru = Gru::new(cin, units, &mut SeededRng::new(43));
    let set = |t: &mut Tensor, pos: usize, value: f32| {
        let n = t.len();
        t.as_mut_slice()[pos % n] = value;
    };
    for &(target, value, pos) in poison {
        match target {
            0 => set(&mut x, pos, value),
            10 => set(&mut g, pos, value),
            i => set(&mut gru.params_mut()[i - 1].value, pos, value),
        }
    }
    (gru, x, g)
}

/// Runs an Eval forward and a Train step of the poisoned case at every
/// worker count against the reference: NaN lands where the reference
/// puts it, and every other element, forward and backward, is bit-equal.
fn check_poisoned_gru(
    dims: (usize, usize, usize),
    poison: &[Poison],
    seed: u64,
) -> Result<(), TestCaseError> {
    let (gru, x, g) = poisoned_gru_case(dims, poison, seed);
    let want_eval = gru.forward_reference(&x);
    let (want_y, want_dx, want_grads) = gru.reference_fwd_bwd(&x, &g);
    let case = format!("{dims:?} poison {poison:?}");
    for workers in WORKER_COUNTS {
        let cfg = ExecConfig {
            workers,
            force_parallel: true,
        };
        with_exec(cfg, || -> Result<(), TestCaseError> {
            let (mut gru, x, g) = poisoned_gru_case(dims, poison, seed);
            let y_eval = gru.forward(&x, Mode::Eval);
            prop_assert!(
                same_nan_positions_and_bits(y_eval.as_slice(), want_eval.as_slice()),
                "gru eval fwd {} @ {}",
                case,
                workers
            );
            let y = gru.forward(&x, Mode::Train);
            prop_assert!(
                same_nan_positions_and_bits(y.as_slice(), want_y.as_slice()),
                "gru fwd {} @ {}",
                case,
                workers
            );
            gru.zero_grad();
            let dx = gru.backward(&g);
            prop_assert!(
                same_nan_positions_and_bits(dx.as_slice(), want_dx.as_slice()),
                "gru dx {} @ {}",
                case,
                workers
            );
            for (i, (p, want)) in gru.params_mut().into_iter().zip(&want_grads).enumerate() {
                prop_assert!(
                    same_nan_positions_and_bits(p.grad().as_slice(), want.as_slice()),
                    "gru param {} grad {} @ {}",
                    i,
                    case,
                    workers
                );
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// A GRU case: `(batch, cin, units)` and its poisoned elements.
type GruCase = ((usize, usize, usize), &'static [Poison]);

/// Finite `x` and `Wr` whose product overflows: the forward guard fails.
const FORWARD_GUARD_CASE: GruCase = (
    (1, 2, 1),
    &[(0, 1e30, 0), (0, 1e30, 1), (2, 1e30, 0), (2, -1e30, 1)],
);

/// Finite `Uh` and output gradient whose product overflows: the backward
/// guard fails.
const BACKWARD_GUARD_CASE: GruCase = (
    (1, 1, 2),
    &[
        (0, 0.5, 0),
        (6, 1e30, 0),
        (6, -1e30, 1),
        (10, 1e30, 0),
        (10, 1e30, 1),
    ],
);

/// The backward guard failing over 257 rows, which the pool splits.
const FALLBACK_CASE: GruCase = (
    (257, 3, 5),
    &[(6, 1e30, 0), (6, -1e30, 1), (10, 1e30, 0), (10, 1e30, 1)],
);

/// Finite operands whose `x·Wr` overflows as `Inf − Inf`: the reset gate
/// is NaN, so the sequence-length-1 forward bound must send the step down
/// the path that propagates it. No single 1e30 reaches this bound.
#[test]
fn gru_forward_guard_bounds_the_reset_product() {
    let (dims, poison) = FORWARD_GUARD_CASE;
    let (gru, x, _) = poisoned_gru_case(dims, poison, 0);
    assert!(
        gru.forward_reference(&x).as_slice()[0].is_nan(),
        "case does not poison h̃"
    );
    check_poisoned_gru(dims, poison, 0).unwrap();
}

/// Finite `dh̃_pre` and `Uh` whose product `da` overflows as `Inf − Inf`:
/// `dr = da·0` is NaN, so the sequence-length-1 backward bound must keep
/// the reset gate's `dx`/`dWr`/`dbr` terms.
#[test]
fn gru_backward_guard_bounds_da() {
    let (dims, poison) = BACKWARD_GUARD_CASE;
    let (gru, x, g) = poisoned_gru_case(dims, poison, 0);
    let (_, _, grads) = gru.reference_fwd_bwd(&x, &g);
    assert!(grads[7].as_slice()[0].is_nan(), "case does not poison dbr");
    check_poisoned_gru(dims, poison, 0).unwrap();
}

/// `h̃_pre = bh` hits every branch of the candidate `tanh`: with `x = 0`
/// every input product is `+0.0`, so at sequence length 1 the candidate's
/// pre-activation is `bh` itself. Its 7 values per case span ±0, tiny and
/// subnormal inputs, each `expm1` case (k = 0, −1, k ≤ −2, k < 23,
/// 23 ≤ k ≤ 56, k > 56), saturation, ±Inf and NaN; `b·u = 35` puts them
/// in two 16-lane blocks and the scalar tail.
#[test]
fn gru_candidate_covers_every_tanh_branch() {
    let values = [
        0.0f32,
        -0.0,
        1e-20,
        -1e-40,
        1e-8,
        0.1,
        -0.3,
        0.6,
        -0.9,
        1.0,
        -3.5,
        9.0,
        -19.9,
        25.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        0.5,
        -7.7,
        15.0,
    ];
    let (batch, cin, units) = (5, 3, 7);
    for bh in values.chunks(units) {
        let mut poison: Vec<Poison> = (0..batch * cin).map(|i| (0, 0.0, i)).collect();
        poison.extend(bh.iter().enumerate().map(|(j, &v)| (9, v, j)));
        check_poisoned_gru((batch, cin, units), &poison, 0).unwrap();
    }
}

/// The sequence-length-1 forward runs its element passes in the GEMM's
/// epilogue, once per pool row chunk. Batches of 1, 3, 5 and 257 rows give
/// a serial product, a single short chunk, and chunks that end off a
/// 4-row tile at 2, 3 and 7 workers; Eval, Train and backward must each
/// match the reference.
#[test]
fn gru_seq1_epilogue_row_chunks_match_reference() {
    for batch in [1, 3, 5, 257] {
        check_poisoned_gru((batch, 5, 7), &[], 3).unwrap();
    }
}

/// A seq-1 backward whose guard fails (a huge `Uh` against a huge output
/// gradient) reruns the step on the per-gate path from the cached input
/// alone, since the seq-1 cache keeps no `z`: it writes the reset gate's
/// gradients and still matches the reference at every worker count.
#[test]
fn gru_seq1_backward_fallback_recomputes_from_the_input() {
    let (dims, poison) = FALLBACK_CASE;
    check_poisoned_gru(dims, poison, 0).unwrap();
    let (mut gru, x, g) = poisoned_gru_case(dims, poison, 0);
    gru.forward(&x, Mode::Train);
    gru.backward(&g);
    for (i, p) in gru.params_mut().into_iter().enumerate() {
        assert_eq!(
            p.written(),
            0..p.len(),
            "param {i}: the backward guard held"
        );
    }
}

/// The GRU's output, `dx` and nine parameter gradients on the three guard
/// cases above, hashed with any NaN payload made canonical. There the
/// layer takes the per-gate step, which is also the reference those tests
/// compare it with; these digests were recorded when the per-gate step
/// still ran any sequence length, and pin its bits at every worker count.
#[test]
fn gru_guard_fallback_bits_are_pinned() {
    let cases = [
        (FORWARD_GUARD_CASE, 0xff5a_cb3b_c994_72b8u64),
        (BACKWARD_GUARD_CASE, 0x8ced_9d14_efc0_f179),
        (FALLBACK_CASE, 0xa72f_95c9_efef_df20),
    ];
    for ((dims, poison), want) in cases {
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig {
                workers,
                force_parallel: true,
            };
            let digest = with_exec(cfg, || {
                let (mut gru, x, g) = poisoned_gru_case(dims, poison, 0);
                let mut out = gru.forward(&x, Mode::Train).into_vec();
                gru.zero_grad();
                out.extend(gru.backward(&g).into_vec());
                for p in gru.params_mut() {
                    out.extend_from_slice(p.grad().as_slice());
                }
                out.iter_mut()
                    .filter(|v| v.is_nan())
                    .for_each(|v| *v = f32::NAN);
                fnv1a(&out)
            });
            assert_eq!(digest, want, "{dims:?} @ {workers}: {digest:#018x}");
        }
    }
}

/// Tensor lengths in every optimizer parameter list: empty, one element,
/// one short of, exactly and one past 16 lanes, and a long run.
const OPTIM_LENS: [usize; 6] = [0, 1, 15, 16, 17, 1000];

/// Values an optimizer sweep must carry through bit for bit: signed zeros,
/// subnormals, gradients whose square overflows to +Inf, ±Inf and NaNs of
/// both signs with distinct payloads.
const OPTIM_SPECIALS: [f32; 10] = [
    0.0,
    -0.0,
    f32::from_bits(0x0000_0001),
    -f32::from_bits(0x007f_ffff),
    1e20,
    -3e19,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7fc0_1234),
    f32::from_bits(0xffc0_0042),
];

/// `len` values of spread `scale`, each replaced by a special with
/// probability `1/special_every` (never when `special_every` is 0).
fn optim_values(len: usize, scale: f32, special_every: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if special_every > 0 && rng.index(special_every) == 0 {
                OPTIM_SPECIALS[rng.index(OPTIM_SPECIALS.len())]
            } else {
                scale * rng.normal()
            }
        })
        .collect()
}

/// One parameter list with a tensor of every length in [`OPTIM_LENS`], in
/// a seeded order. Odd-indexed tensors start with `slots` pre-filled state
/// slots (small values, subnormals and specials); the others start
/// without, so the optimizer allocates them.
fn optim_params(slots: usize, special_every: usize, rng: &mut SeededRng) -> Vec<Param> {
    let mut lens = OPTIM_LENS.to_vec();
    rng.shuffle(&mut lens);
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            let value = optim_values(len, 1.0, special_every, rng);
            let mut p = Param::new(Tensor::from_vec(vec![len], value).unwrap());
            if i % 2 == 1 {
                let state = (0..slots)
                    .map(|_| {
                        let mut s = optim_values(len, 1e-3, special_every, rng);
                        for v in s.iter_mut().step_by(5) {
                            *v = f32::from_bits(rng.index(0x0080_0000) as u32);
                        }
                        Tensor::from_vec(vec![len], s).unwrap()
                    })
                    .collect();
                p.set_state(state);
            }
            p
        })
        .collect()
}

/// Runs 50 steps of `opt` and of its retained indexed loop `reference` on
/// identical parameter lists, feeding both the same gradients (specials
/// in about one element in `special_every`), and compares the raw bits of
/// every value and state slot after each step. Where the reference holds a
/// NaN the sweep must too, but its sign and payload are free: Rust leaves
/// them unspecified for an arithmetic result, and an optimized build does
/// pick them differently for the same loop compiled into two crates
/// (AdaDelta's, when two NaNs meet or the negation of a NaN is moved).
fn check_optimizer(
    name: &str,
    opt: &mut dyn Optimizer,
    reference: &mut dyn FnMut(&mut [&mut Param]),
    slots: usize,
    special_every: usize,
    seed: u64,
) {
    let mut rng = SeededRng::new(seed);
    let mut got = optim_params(slots, special_every, &mut rng);
    let mut want = got.clone();
    for step in 0..50 {
        for (g, w) in got.iter_mut().zip(&mut want) {
            let grad = optim_values(g.len(), 1.0, special_every, &mut rng);
            g.grad_mut(..).copy_from_slice(&grad);
            w.grad_mut(..).copy_from_slice(&grad);
        }
        opt.step(&mut got.iter_mut().collect::<Vec<_>>());
        reference(&mut want.iter_mut().collect::<Vec<_>>());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let case = format!("{name} seed {seed} step {step} param {i} (len {})", g.len());
            let at = first_mismatch(g.value.as_slice(), w.value.as_slice());
            assert_eq!(at, None, "{case}: value");
            assert_eq!(g.state().len(), w.state().len(), "{case}: slot count");
            for (s, (gs, ws)) in g.state().iter().zip(w.state()).enumerate() {
                let at = first_mismatch(gs.as_slice(), ws.as_slice());
                assert_eq!(at, None, "{case}: state slot {s}");
            }
        }
    }
}

/// Every optimizer's zipped sweep against its retained indexed loop, at a
/// working and a zero learning rate, on clean lists and on lists salted
/// with specials.
#[test]
fn optimizers_match_indexed_reference() {
    for seed in 0..4u64 {
        for special_every in [0, 8, 64] {
            for lr in [0.01f32, 0.0] {
                let check = |name: &str,
                             opt: &mut dyn Optimizer,
                             indexed: &mut dyn FnMut(&mut [&mut Param]),
                             slots: usize| {
                    opt.set_learning_rate(lr);
                    let name = format!("{name} lr {lr} specials 1/{special_every}");
                    check_optimizer(&name, opt, indexed, slots, special_every, seed);
                };
                check(
                    "sgd",
                    &mut Sgd::new(lr),
                    &mut |ps| optim_reference::sgd(ps, lr, 0.0),
                    0,
                );
                check(
                    "sgd momentum",
                    &mut Sgd::with_momentum(lr, 0.9),
                    &mut |ps| optim_reference::sgd(ps, lr, 0.9),
                    1,
                );
                check(
                    "rmsprop",
                    &mut RmsProp::new(lr),
                    &mut |ps| optim_reference::rmsprop(ps, lr, 0.9, 1e-7),
                    1,
                );
                let mut t = 0;
                check(
                    "adam",
                    &mut Adam::new(lr),
                    &mut |ps| optim_reference::adam(ps, &mut t, lr),
                    2,
                );
                check(
                    "adadelta",
                    &mut AdaDelta::new(),
                    &mut |ps| optim_reference::adadelta(ps, lr),
                    2,
                );
            }
        }
    }
}

/// A random sub-range of `within`, empty about one time in five.
fn random_range(within: Range<usize>, rng: &mut SeededRng) -> Range<usize> {
    if within.is_empty() || rng.index(5) == 0 {
        return within.start..within.start;
    }
    let (a, b) = (rng.index(within.len()), rng.index(within.len()));
    within.start + a.min(b)..within.start + a.max(b) + 1
}

/// Makes every element of every parameter live, so each optimizer sweeps
/// the whole parameter, as it did before `live` hulls existed.
fn force_full_hulls(params: &mut [&mut Param]) {
    for p in params {
        p.grad_mut(..);
    }
}

/// Runs 5 steps of the optimizer `make` builds on parameters whose
/// gradients are written only inside a random hull each (a fresh random
/// sub-range per step, zeroed in between) and whose state is salted inside
/// a random range and `+0.0` outside it; the values are salted everywhere
/// with ±0, subnormals, ±Inf and quiet NaN payloads. After every step,
/// value and state must match a copy whose hulls were forced full, run by
/// a second instance of the same optimizer, and the full-sweep reference
/// loop `reference`: bit for bit outside the hull (where the hull sweep
/// touches nothing), and inside it with NaN where the others hold NaN.
fn check_hull_sweep(
    name: &str,
    make: &dyn Fn() -> Box<dyn Optimizer>,
    reference: &mut dyn FnMut(&mut [&mut Param]),
    slots: usize,
    seed: u64,
) {
    let mut rng = SeededRng::new(seed);
    let mut hull: Vec<Param> = OPTIM_LENS
        .iter()
        .map(|&len| {
            let value = optim_values(len, 1.0, 8, &mut rng);
            let mut p = Param::new(Tensor::from_vec(vec![len], value).unwrap());
            let salted = random_range(0..len, &mut rng);
            let state = (0..slots)
                .map(|_| {
                    let mut s = vec![0.0f32; len];
                    s[salted.clone()].copy_from_slice(&optim_values(
                        salted.len(),
                        1e-3,
                        8,
                        &mut rng,
                    ));
                    Tensor::from_vec(vec![len], s).unwrap()
                })
                .collect();
            p.set_state(state);
            p
        })
        .collect();
    let writes: Vec<_> = hull
        .iter()
        .map(|p| random_range(0..p.len(), &mut rng))
        .collect();
    let mut full = hull.clone();
    force_full_hulls(&mut full.iter_mut().collect::<Vec<_>>());
    let mut want = hull.clone();
    let (mut opt, mut full_opt) = (make(), make());
    for step in 0..5 {
        for (i, w) in writes.iter().enumerate() {
            let r = random_range(w.clone(), &mut rng);
            let g = optim_values(r.len(), 1.0, 8, &mut rng);
            for p in [&mut hull[i], &mut full[i], &mut want[i]] {
                p.zero_grad();
                p.grad_mut(r.clone()).copy_from_slice(&g);
            }
        }
        opt.step(&mut hull.iter_mut().collect::<Vec<_>>());
        full_opt.step(&mut full.iter_mut().collect::<Vec<_>>());
        reference(&mut want.iter_mut().collect::<Vec<_>>());
        for (i, ((h, f), w)) in hull.iter().zip(&full).zip(&want).enumerate() {
            let live = h.live();
            let case = format!("{name} seed {seed} step {step} param {i} live {live:?}");
            let pairs =
                std::iter::once((h.value.as_slice(), f.value.as_slice(), w.value.as_slice()))
                    .chain(
                        h.state()
                            .iter()
                            .zip(f.state())
                            .zip(w.state())
                            .map(|((h, f), w)| (h.as_slice(), f.as_slice(), w.as_slice())),
                    );
            for (k, (h, f, w)) in pairs.enumerate() {
                let what = if k == 0 {
                    "value".to_string()
                } else {
                    format!("state slot {}", k - 1)
                };
                assert_eq!(first_mismatch(h, f), None, "{case}: {what} vs full hulls");
                assert_eq!(first_mismatch(h, w), None, "{case}: {what} vs reference");
                for outside in [0..live.start, live.end..h.len()] {
                    assert_eq!(
                        raw_bits(&h[outside.clone()]),
                        raw_bits(&f[outside.clone()]),
                        "{case}: {what} outside the hull"
                    );
                }
            }
        }
    }
}

/// Every optimizer configuration sweeping `live` hulls against full
/// sweeps, over random hulls, at the working learning rate and at
/// learning rates and RMSprop options outside the hull argument's domain
/// (−0.0, negative, infinite lr; ρ outside [0, 1] or infinite; ε ≤ 0),
/// where each must fall back to the full sweep.
#[test]
fn hull_sweeps_match_full_sweeps() {
    for seed in 0..3u64 {
        for lr in [0.01f32, 0.0, -0.0, -0.01, f32::INFINITY] {
            let name = |opt: &str| format!("{opt} lr {lr}");
            check_hull_sweep(
                &name("sgd"),
                &|| Box::new(Sgd::new(lr)),
                &mut |ps| optim_reference::sgd(ps, lr, 0.0),
                0,
                seed,
            );
            check_hull_sweep(
                &name("sgd momentum"),
                &|| Box::new(Sgd::with_momentum(lr, 0.9)),
                &mut |ps| optim_reference::sgd(ps, lr, 0.9),
                1,
                seed,
            );
            for (rho, eps) in [
                (0.9, 1e-7),
                (1.5, 1e-7),
                (-0.5, 1e-7),
                (f32::INFINITY, 1e-7),
                (0.9, 0.0),
                (0.9, -1e-7),
            ] {
                check_hull_sweep(
                    &format!("{} rho {rho} eps {eps}", name("rmsprop")),
                    &|| Box::new(RmsProp::with_options(lr, rho, eps)),
                    &mut |ps| optim_reference::rmsprop(ps, lr, rho, eps),
                    1,
                    seed,
                );
            }
            let mut t = 0;
            check_hull_sweep(
                &name("adam"),
                &|| Box::new(Adam::new(lr)),
                &mut |ps| optim_reference::adam(ps, &mut t, lr),
                2,
                seed,
            );
            check_hull_sweep(
                &name("adadelta"),
                &|| {
                    let mut o = AdaDelta::new();
                    o.set_learning_rate(lr);
                    Box::new(o)
                },
                &mut |ps| optim_reference::adadelta(ps, lr),
                2,
                seed,
            );
        }
    }
}

/// Why momentum SGD always sweeps whole parameters: a `-0.0` weight with a
/// `+0.0` gradient and velocity becomes `+0.0` (`v = 0.9·0 − lr·0 = +0`,
/// `θ + v = +0`), which a hull sweep that skipped it would not reproduce.
/// So its step makes the whole parameter live.
#[test]
fn momentum_sgd_turns_negative_zero_weights_positive() {
    let mut p = Param::new(Tensor::from_vec(vec![3], vec![-0.0, 1.0, -0.0]).unwrap());
    p.grad_mut(1..2)[0] = 1.0;
    Sgd::with_momentum(0.1, 0.9).step(&mut [&mut p]);
    assert_eq!(
        raw_bits(p.value.as_slice()),
        raw_bits(&[0.0, 1.0 - 0.1, 0.0])
    );
    assert_eq!(p.live(), 0..3);
    // Plain SGD leaves both −0.0 weights alone, inside the hull or not.
    let mut q = Param::new(Tensor::from_vec(vec![3], vec![-0.0, 1.0, -0.0]).unwrap());
    q.grad_mut(1..=2).fill(0.0);
    Sgd::new(0.1).step(&mut [&mut q]);
    assert_eq!(raw_bits(q.value.as_slice()), raw_bits(&[-0.0, 1.0, -0.0]));
    assert_eq!(q.live(), 1..3);
}

/// A two-block Residual network at 8 features (sequence length 1), one
/// batch of 16 rows for it, and its labels.
fn hull_model() -> (Sequential, Tensor, Vec<usize>) {
    let net = build_network(&NetConfig {
        in_features: 8,
        classes: 3,
        blocks: 2,
        residual: true,
        kernel: 10,
        dropout: 0.6,
        seed: 11,
    });
    let mut rng = SeededRng::new(12);
    let x = random_tensor(vec![16, 8], &mut rng);
    let y = (0..16).map(|i| i % 3).collect();
    (net, x, y)
}

/// One `Trainer::fit` step by hand: zero, forward, loss, backward, update.
fn train_step(net: &mut dyn Layer, opt: &mut dyn Optimizer, x: &Tensor, y: &[usize]) {
    net.zero_grad();
    let out = net.forward(x, Mode::Train);
    let (_, dout) = SoftmaxCrossEntropy.loss(&out, y);
    net.backward(&dout);
    opt.step(&mut net.params_mut());
}

/// Values and state slots of two models, bit for bit.
fn assert_same_params(a: &mut dyn Layer, b: &mut dyn Layer, case: &str) {
    for (i, (p, q)) in a.params_mut().into_iter().zip(b.params_mut()).enumerate() {
        assert_eq!(bits(&p.value), bits(&q.value), "{case}: param {i} value");
        assert_eq!(p.state().len(), q.state().len(), "{case}: param {i} slots");
        for (s, (ps, qs)) in p.state().iter().zip(q.state()).enumerate() {
            assert_eq!(bits(ps), bits(qs), "{case}: param {i} state slot {s}");
        }
    }
}

/// `params_mut()` index of the first block's GRU `Wr`: the block's
/// pre-BN, Conv1d and BN come first (two tensors each), then `Wz`.
const FIRST_GRU_WR: usize = 7;

/// A step whose GRU takes the per-gate (guard-fallback) path writes all
/// nine GRU gradients and widens their hulls for good; later seq-1 steps
/// sweep those hulls, and every step matches a model with full hulls.
#[test]
fn gru_guard_fallback_then_seq1_steps_match_full_hulls() {
    let (mut hull, x, y) = hull_model();
    let (mut full, _, _) = hull_model();
    force_full_hulls(&mut full.params_mut());
    let (mut opt, mut full_opt) = (RmsProp::new(0.01), RmsProp::new(0.01));
    // A huge `Wr` entry fails the forward guard (`c·max|x|·max|Wr|`).
    let wr0 = hull.params_mut()[FIRST_GRU_WR].value.as_slice()[0];
    for net in [&mut hull, &mut full] {
        net.params_mut()[FIRST_GRU_WR].value.as_mut_slice()[0] = f32::MAX;
    }
    train_step(&mut hull, &mut opt, &x, &y);
    train_step(&mut full, &mut full_opt, &x, &y);
    assert_same_params(&mut hull, &mut full, "fallback step");
    let wr = &hull.params_mut()[FIRST_GRU_WR];
    assert_eq!(wr.live(), 0..wr.len(), "the fallback wrote Wr's gradient");
    for net in [&mut hull, &mut full] {
        net.params_mut()[FIRST_GRU_WR].value.as_mut_slice()[0] = wr0;
    }
    for step in 0..4 {
        train_step(&mut hull, &mut opt, &x, &y);
        train_step(&mut full, &mut full_opt, &x, &y);
        assert_same_params(&mut hull, &mut full, &format!("seq-1 step {step}"));
    }
    // The second block's GRU never fell back: its `Wr` is still dead.
    assert_eq!(hull.params_mut()[FIRST_GRU_WR + 15].live(), 0..0);
}

/// A v2 checkpoint whose optimizer state is nonzero everywhere, also
/// where a fresh model's gradients never reach, loads into a fresh model
/// with every element live, and training on from it matches a model with
/// full hulls.
#[test]
fn checkpoint_state_outside_the_hull_widens_it() {
    let (mut trained, x, y) = hull_model();
    let mut opt = RmsProp::new(0.01);
    for _ in 0..2 {
        train_step(&mut trained, &mut opt, &x, &y);
    }
    let mut rng = SeededRng::new(13);
    for p in trained.params_mut() {
        let cache = (0..p.len())
            .map(|_| 1e-6 + rng.normal().abs() * 1e-3)
            .collect();
        p.set_state(vec![
            Tensor::from_vec(p.value.shape().to_vec(), cache).unwrap()
        ]);
    }
    let meta = CheckpointMeta {
        epoch: 2,
        learning_rate: 0.01,
    };
    let bytes = io::checkpoint_to_bytes(&mut trained, meta);
    let (mut hull, _, _) = hull_model();
    let (mut full, _, _) = hull_model();
    force_full_hulls(&mut full.params_mut());
    for net in [&mut hull, &mut full] {
        io::checkpoint_from_bytes(net, &bytes).expect("v2 load");
    }
    for p in hull.params_mut() {
        assert_eq!(p.live(), 0..p.len(), "loaded state widens the hull");
    }
    let (mut opt, mut full_opt) = (RmsProp::new(0.01), RmsProp::new(0.01));
    for step in 0..3 {
        train_step(&mut hull, &mut opt, &x, &y);
        train_step(&mut full, &mut full_opt, &x, &y);
        assert_same_params(&mut hull, &mut full, &format!("step {step} after load"));
    }
}

/// Softmax cross-entropy that reports a NaN loss on its `nan_at`-th call.
struct NanOnCall {
    calls: Cell<usize>,
    nan_at: usize,
}

impl Loss for NanOnCall {
    fn loss(&self, output: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        self.calls.set(self.calls.get() + 1);
        let (l, grad) = SoftmaxCrossEntropy.loss(output, targets);
        (
            if self.calls.get() == self.nan_at {
                f32::NAN
            } else {
                l
            },
            grad,
        )
    }
}

/// A `RecoveryPolicy` rollback restores values and optimizer state
/// through `Param::set_state`; the run that follows matches a model with
/// full hulls bit for bit.
#[test]
fn rollback_matches_full_hulls() {
    let (mut hull, x, y) = hull_model();
    let (mut full, _, _) = hull_model();
    force_full_hulls(&mut full.params_mut());
    let fit = |net: &mut Sequential| {
        Trainer::new(TrainerConfig {
            epochs: 3,
            batch_size: 4,
            recovery: Some(RecoveryPolicy::default()),
            ..Default::default()
        })
        .fit(
            net,
            &NanOnCall {
                calls: Cell::new(0),
                nan_at: 7,
            },
            &mut RmsProp::new(0.01),
            &x,
            &y,
            None,
        )
        .expect("one fault is recoverable")
    };
    assert_eq!(fit(&mut hull).total_recoveries, 1);
    assert_eq!(fit(&mut full).total_recoveries, 1);
    assert_same_params(&mut hull, &mut full, "after rollback");
}

/// Packed GEMM vs the retained seed kernel, at one (m, k, n, seg).
fn check_gemm(m: usize, k: usize, n: usize, seg: usize, seed: u64) {
    check_gemm_poisoned(m, k, n, seg, seed, &[]);
}

/// One poisoned operand element of a dense product, `(operand, value,
/// pos)`: `operand` 0 is the left-hand side, 1 the right-hand side; `pos`
/// picks the element.
type OperandPoison = (usize, f32, usize);

/// Random operands with the `poison` elements overwritten.
fn poisoned_operands(
    lens: (usize, usize),
    poison: &[OperandPoison],
    seed: u64,
) -> (Vec<f32>, Vec<f32>) {
    let mut rng = SeededRng::new(seed);
    let mut ops = [random_vec(lens.0, &mut rng), random_vec(lens.1, &mut rng)];
    for &(operand, value, pos) in poison {
        let op = &mut ops[operand];
        if !op.is_empty() {
            let len = op.len();
            op[pos % len] = value;
        }
    }
    let [lhs, rhs] = ops;
    (lhs, rhs)
}

/// Packed GEMM vs the retained seed kernel on poisoned operands: NaN where
/// the seed kernel puts it, every other element bit-equal.
fn check_gemm_poisoned(
    m: usize,
    k: usize,
    n: usize,
    seg: usize,
    seed: u64,
    poison: &[OperandPoison],
) {
    let (a, bt) = poisoned_operands((m * k, n * k), poison, seed);
    let mut want = vec![0.0f32; m * n];
    gemm_reference::gemm_bt_reference(&a, &bt, &mut want, k, n, seg);
    for workers in WORKER_COUNTS {
        let cfg = ExecConfig {
            workers,
            force_parallel: true,
        };
        let got = with_exec(cfg, || {
            let mut out = vec![0.0f32; m * n];
            pack::gemm_bt(&a, &bt, m, k, n, seg, &mut out);
            out
        });
        assert!(
            same_nan_positions_and_bits(&got, &want),
            "gemm_bt m={m} k={k} n={n} seg={seg} poison {poison:?} @ {workers} workers"
        );
    }
}

/// `matmul_at_into` (the funnel's engine, pooled) vs the serial scalar
/// `matmul_at_rows` on poisoned operands.
fn check_matmul_at_poisoned(k: usize, m: usize, n: usize, seed: u64, poison: &[OperandPoison]) {
    let (a, b) = poisoned_operands((k * m, k * n), poison, seed);
    let mut want = vec![0.0f32; m * n];
    pack::matmul_at_rows(&a, &b, &mut want, k, m, n, 0);
    for workers in WORKER_COUNTS {
        let cfg = ExecConfig {
            workers,
            force_parallel: true,
        };
        let got = with_exec(cfg, || {
            let mut out = vec![0.0f32; m * n];
            pack::matmul_at_into(&a, &b, k, m, n, &mut out);
            out
        });
        assert!(
            same_nan_positions_and_bits(&got, &want),
            "matmul_at k={k} m={m} n={n} poison {poison:?} @ {workers} workers"
        );
    }
}

/// Poison values for dense operands: both zeros (the `matmul_at`
/// zero-skip must skip them alike), NaN and both infinities.
const OPERAND_POISON: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

// ---------------------------------------------------------------------
// Deterministic adversarial GEMM shapes.
// ---------------------------------------------------------------------

#[test]
fn gemm_empty_reduction_matches_reference() {
    // k = 0: every output element is an empty dot (exactly 0.0).
    check_gemm(3, 0, 5, 0, 11);
}

#[test]
fn gemm_single_row_matches_reference() {
    check_gemm(1, 9, 7, 9, 12); // no MR pair, 1×4 + scalar edge only
}

#[test]
fn gemm_single_column_matches_reference() {
    check_gemm(6, 5, 1, 5, 13); // no NR quad anywhere
}

#[test]
fn gemm_non_multiple_of_tile_matches_reference() {
    // 7 rows (odd vs MR=2), 13 cols (13 = 3·4+1 vs NR=4), k=11 (ragged
    // 4-lane tail), segmented unevenly.
    check_gemm(7, 11, 13, 3, 14);
}

#[test]
fn gemm_wide_panel_split_matches_reference() {
    // n·k large enough to force more than one column panel.
    check_gemm(3, 700, 130, 700, 15);
}

/// A segment length dividing `k` (0, meaning "full k", when k = 0),
/// picked from its divisors.
fn gemm_seg(k: usize, pick: usize) -> usize {
    let divisors: Vec<usize> = (1..=k).filter(|d| k.is_multiple_of(*d)).collect();
    if divisors.is_empty() {
        0
    } else {
        divisors[pick % divisors.len()]
    }
}

// ---------------------------------------------------------------------
// Property tests: random shapes, segments and worker counts.
// ---------------------------------------------------------------------

proptest! {
    /// Blocked, packed, possibly parallel GEMM is bit-identical to the
    /// retained serial seed kernel for arbitrary shapes and segment sizes.
    /// m up to 11 and n up to 37 form the 4×16 register tile and every
    /// 8/4-column and single-row edge tile; k up to 41 leaves 4-lane tails.
    #[test]
    fn prop_packed_gemm_matches_reference(
        (m, k, n) in (1usize..12, 0usize..42, 1usize..38),
        seg_pick in 0usize..4,
        seed in 0u64..300,
    ) {
        check_gemm(m, k, n, gemm_seg(k, seg_pick), seed.wrapping_add(31337));
    }

    /// The same GEMM with zeros, NaN and ±Inf in either operand: NaN lands
    /// where the seed kernel puts it and every other element is bit-equal.
    #[test]
    fn prop_packed_gemm_non_finite_matches_reference(
        (m, k, n) in (1usize..12, 1usize..42, 1usize..38),
        seg_pick in 0usize..4,
        poison in proptest::collection::vec((0usize..2, 0usize..5, 0usize..512), 1..4),
        seed in 0u64..300,
    ) {
        let poison: Vec<OperandPoison> =
            poison.into_iter().map(|(op, v, pos)| (op, OPERAND_POISON[v], pos)).collect();
        check_gemm_poisoned(m, k, n, gemm_seg(k, seg_pick), seed.wrapping_add(4242), &poison);
    }

    /// `matmul_at_into` vs the serial scalar loop: ragged row tiles
    /// (m % 4 ≠ 0); the 96-column tile, the narrower tiles after it and
    /// the masked ragged columns (n % 16 ≠ 0, and n = 96, 112, 196, 392);
    /// reductions that cross the 128-row t block; and zeros, −0.0, NaN and
    /// ±Inf in both operands, which send their row tile down the
    /// zero-skipping loop while the others run the dense one.
    #[test]
    fn prop_matmul_at_matches_scalar(
        (k, m, n_pick) in (0usize..300, 1usize..14, 0usize..80),
        poison in proptest::collection::vec((0usize..2, 0usize..5, 0usize..1 << 17), 0..6),
        seed in 0u64..300,
    ) {
        let n = match n_pick {
            69.. => [96, 112, 196, 392][(n_pick - 69) % 4],
            p => p + 1,
        };
        let poison: Vec<OperandPoison> =
            poison.into_iter().map(|(op, v, pos)| (op, OPERAND_POISON[v], pos)).collect();
        check_matmul_at_poisoned(k, m, n, seed.wrapping_add(2718), &poison);
    }

    /// `Conv1d` forward/backward through `Layer` is bit-identical to the
    /// seed per-tap path (`Conv1dRef`), including the accumulated parameter
    /// gradients, with signed zeros, NaN and ±Inf salted into the input
    /// and the weights: the one live tap, which reads `x` and `dy` in
    /// place, must put NaN where the seed puts it and match every other
    /// bit. The weight gradient's hull is that tap's slab,
    /// `pad·c_in·c_out..(pad + 1)·c_in·c_out`.
    #[test]
    fn prop_conv1d_matches_reference(
        (batch, cin, cout, kernel) in (1usize..5, 1usize..5, 1usize..5, 1usize..8),
        poison in proptest::collection::vec((0usize..2, 0usize..5, 0usize..512), 0..4),
        seed in 0u64..150,
    ) {
        let mut rng = SeededRng::new(seed.wrapping_add(555));
        let mut x = random_tensor(vec![batch, 1, cin], &mut rng);
        let new_conv = || Conv1d::new(cin, cout, kernel, &mut SeededRng::new(97));
        let (mut weight, bias) = {
            let mut conv = new_conv();
            let params = conv.params_mut();
            (params[0].value.clone(), params[1].value.clone())
        };
        for &(operand, v, pos) in &poison {
            let op = if operand == 0 { x.as_mut_slice() } else { weight.as_mut_slice() };
            let len = op.len();
            op[pos % len] = OPERAND_POISON[v];
        }
        let g = random_tensor(vec![batch, 1, cout], &mut SeededRng::new(seed ^ 0xC0));
        let reference = layer_reference::Conv1dRef::new(weight.clone(), bias);
        let want_y = reference.forward(&x);
        let (want_dx, want_dw, want_db) = reference.backward(&x, &g);
        let pad = (kernel - 1) / 2;
        let tap_size = cin * cout;
        let hull = pad * tap_size..(pad + 1) * tap_size;
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig { workers, force_parallel: true };
            with_exec(cfg, || -> Result<(), proptest::test_runner::TestCaseError> {
                let mut conv = new_conv();
                conv.params_mut()[0].value = weight.clone();
                let y = conv.forward(&x, Mode::Train);
                prop_assert!(same_nan_positions_and_bits(y.as_slice(), want_y.as_slice()),
                    "conv fwd b={} cin={} cout={} k={} poison {:?} @ {}",
                    batch, cin, cout, kernel, poison, workers);
                conv.zero_grad();
                let dx = conv.backward(&g);
                prop_assert!(same_nan_positions_and_bits(dx.as_slice(), want_dx.as_slice()),
                    "conv dx poison {:?} @ {}", poison, workers);
                let params = conv.params_mut();
                prop_assert!(
                    same_nan_positions_and_bits(params[0].grad().as_slice(), want_dw.as_slice()),
                    "conv dW poison {:?} @ {}", poison, workers);
                prop_assert!(
                    same_nan_positions_and_bits(params[1].grad().as_slice(), want_db.as_slice()),
                    "conv db poison {:?} @ {}", poison, workers);
                prop_assert_eq!(params[0].written(), hull.clone(), "conv dW hull @ {}", workers);
                Ok(())
            })?;
        }
    }

    /// `Gru` through `Layer`, the sequence-length-1 step, is bit-identical
    /// to the retained per-gate step end to end.
    #[test]
    fn prop_gru_matches_reference(
        (batch, cin, units) in (1usize..5, 1usize..5, 1usize..6),
        seed in 0u64..150,
    ) {
        let mut rng = SeededRng::new(seed.wrapping_add(777));
        let x = random_tensor(vec![batch, 1, cin], &mut rng);
        let g = random_tensor(vec![batch, 1, units], &mut rng);
        for workers in WORKER_COUNTS {
            let cfg = ExecConfig { workers, force_parallel: true };
            with_exec(cfg, || -> Result<(), proptest::test_runner::TestCaseError> {
                let mut gru = Gru::new(cin, units, &mut SeededRng::new(41));
                let (want_y, want_dx, want_grads) = gru.reference_fwd_bwd(&x, &g);
                let y = gru.forward(&x, Mode::Train);
                prop_assert_eq!(bits(&y), bits(&want_y),
                    "gru fwd b={} cin={} u={} @ {}", batch, cin, units, workers);
                gru.zero_grad();
                let dx = gru.backward(&g);
                prop_assert_eq!(bits(&dx), bits(&want_dx), "gru dx @ {}", workers);
                for (p, want) in gru.params_mut().into_iter().zip(&want_grads) {
                    prop_assert_eq!(raw_bits(p.grad().as_slice()), bits(want),
                        "gru param grad @ {}", workers);
                }
                Ok(())
            })?;
        }
    }

    /// NaN, ±Inf and 1e30 in the input, any weight or bias, or the output
    /// gradient: the sequence-length-1 step must take its skips only where
    /// they are exact and otherwise compute the products, so NaN lands
    /// where the reference puts it and every other element, forward and
    /// backward, is bit-equal. Two poisoned operands can defeat a bound
    /// (1e30 in both `x` and `Wr`) that one alone cannot.
    #[test]
    fn prop_gru_non_finite_matches_reference(
        (batch, cin, units) in (1usize..5, 1usize..5, 1usize..6),
        poison in proptest::collection::vec((0usize..11, 0usize..4, 0usize..64), 1..3),
        seed in 0u64..150,
    ) {
        let dims = (batch, cin, units);
        let poison: Vec<Poison> = poison
            .into_iter()
            .map(|(target, kind, pos)| (target, CORRUPTIONS[kind].value(), pos))
            .collect();
        check_poisoned_gru(dims, &poison, seed)?;
    }
}

/// Bit-equal, shape included, except that any NaN matches any NaN: with
/// two NaN operands an optimised build may commute an operation and keep
/// the other payload, which Rust leaves unspecified. A NaN's position is
/// part of the contract; in a debug build the payloads match too.
fn assert_same_bits(got: &Tensor, want: &Tensor, case: &str, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{case}: {what} shape");
    let at = first_mismatch(got.as_slice(), want.as_slice());
    assert_eq!(
        at,
        None,
        "{case}: {what} {:?} vs {:?}",
        at.map(|i| got.as_slice()[i]),
        at.map(|i| want.as_slice()[i])
    );
}

/// The shapes the elementwise layers are checked at: rank 2 and rank 3
/// with one and three time steps, batches from one row to a ragged 257,
/// and channel counts on both sides of the 16-lane vector width, up to
/// UNSW-NB15's 196.
fn layer_shapes() -> Vec<Vec<usize>> {
    let mut shapes = Vec::new();
    for b in [1usize, 3, 64, 257] {
        for c in [1usize, 15, 16, 17, 196] {
            shapes.push(vec![b, c]);
            shapes.push(vec![b, 1, c]);
            shapes.push(vec![b, 3, c]);
        }
    }
    shapes
}

/// Signed zeros and subnormals, which every layer must carry through.
const FINITE_SPECIALS: [f32; 6] = [
    0.0,
    -0.0,
    f32::from_bits(0x0000_0001),
    f32::from_bits(0x8000_0001),
    f32::from_bits(0x0040_0000),
    f32::from_bits(0x807f_ffff),
];

/// Infinities and NaNs with distinct signs and payloads, one of them
/// signalling.
const NON_FINITE: [f32; 5] = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7fc0_1234),
    f32::from_bits(0xffc0_0005),
    f32::from_bits(0x7f80_0001),
];

/// A normal-valued tensor with a finite special in about one element of
/// eight and, when `non_finite`, three infinities or NaNs.
fn salted_tensor(shape: &[usize], non_finite: bool, rng: &mut SeededRng) -> Tensor {
    let len: usize = shape.iter().product();
    let mut data = random_vec(len, rng);
    for v in data.iter_mut() {
        if rng.index(8) == 0 {
            *v = FINITE_SPECIALS[rng.index(FINITE_SPECIALS.len())];
        }
    }
    if non_finite {
        for _ in 0..3 {
            data[rng.index(len)] = NON_FINITE[rng.index(NON_FINITE.len())];
        }
    }
    Tensor::from_vec(shape.to_vec(), data).unwrap()
}

/// Runs `check` for every layer shape, with and without non-finite
/// values, at every worker count with the pool forced on. `check` gets
/// the shape, the salted input, a second salted tensor of the same shape
/// (an output gradient or a second batch) and the worker count.
fn for_each_layer_case(seed: u64, check: impl Fn(&[usize], &Tensor, &Tensor, usize)) {
    for (i, shape) in layer_shapes().iter().enumerate() {
        for non_finite in [false, true] {
            let mut rng = SeededRng::new(seed.wrapping_add(i as u64 * 2 + non_finite as u64));
            let x = salted_tensor(shape, non_finite, &mut rng);
            let other = salted_tensor(shape, non_finite, &mut rng);
            for workers in WORKER_COUNTS {
                let cfg = ExecConfig {
                    workers,
                    force_parallel: true,
                };
                with_exec(cfg, || check(shape, &x, &other, workers));
            }
        }
    }
}

/// `BatchNorm` against its retained reference: a Train forward, its
/// backward, and an Eval forward of a second batch through the updated
/// running statistics. Output, `dx`, the `gamma`/`beta` gradients and the
/// running statistics must be bit-equal.
#[test]
fn batchnorm_matches_reference() {
    for_each_layer_case(9100, |shape, x, dy, workers| {
        let c = *shape.last().unwrap();
        let mut rng = SeededRng::new(c as u64);
        let gamma = salted_tensor(&[c], false, &mut rng);
        let beta = salted_tensor(&[c], false, &mut rng);
        let mut want = layer_reference::BatchNormRef::new(c);
        want.gamma = gamma.clone();
        want.beta = beta.clone();
        let mut bn = BatchNorm::new(c);
        {
            let mut ps = bn.params_mut();
            ps[0].value = gamma;
            ps[1].value = beta;
        }
        let case = format!("batchnorm {shape:?} @ {workers}");
        let y = bn.forward(x, Mode::Train);
        assert_eq!(y.shape(), shape, "{case}");
        assert_same_bits(&y, &want.forward(x, Mode::Train), &case, "y");
        let dx = bn.backward(dy);
        assert_eq!(dx.shape(), shape, "{case}");
        assert_same_bits(&dx, &want.backward(dy), &case, "dx");
        let ps = bn.params_mut();
        assert_same_bits(ps[0].grad(), &want.gamma_grad, &case, "dgamma");
        assert_same_bits(ps[1].grad(), &want.beta_grad, &case, "dbeta");
        assert_same_bits(bn.running_mean(), &want.running_mean, &case, "mean");
        assert_same_bits(bn.running_var(), &want.running_var, &case, "var");
        let y_eval = bn.forward(dy, Mode::Eval);
        assert_eq!(y_eval.shape(), shape, "{case}");
        assert_same_bits(&y_eval, &want.forward(dy, Mode::Eval), &case, "eval");
    });
}

/// `Dropout` against its retained reference at rates 0, 0.3 and 0.6:
/// two Train steps (so the RNG stream is compared across calls), then an
/// Eval forward.
#[test]
fn dropout_matches_reference() {
    for_each_layer_case(9200, |shape, x, dy, workers| {
        for rate in [0.0f32, 0.3, 0.6] {
            let seed = x.len() as u64;
            let mut want = layer_reference::DropoutRef::new(rate, seed);
            let mut d = Dropout::new(rate, seed);
            let case = format!("dropout {rate} {shape:?} @ {workers}");
            for step in 0..2 {
                let y = d.forward(x, Mode::Train);
                assert_eq!(y.shape(), shape, "{case}");
                assert_same_bits(
                    &y,
                    &want.forward(x, Mode::Train),
                    &format!("{case} step {step}"),
                    "y",
                );
                let dx = d.backward(dy);
                assert_same_bits(
                    &dx,
                    &want.backward(dy),
                    &format!("{case} step {step}"),
                    "dx",
                );
            }
            let y = d.forward(x, Mode::Eval);
            assert_same_bits(&y, &want.forward(x, Mode::Eval), &case, "eval");
            assert_same_bits(&d.backward(dy), &want.backward(dy), &case, "eval dx");
        }
    });
}

/// FNV-1a over the bits of every element, in order.
fn fnv1a(v: &[f32]) -> u64 {
    v.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The Table-I dropout masks (rate 0.6, a `[64, 196]` batch, two steps)
/// for seeds 0–3 are pinned: a rewrite of the mask pass must draw the
/// same uniforms in the same order and keep every mask bit.
#[test]
fn dropout_mask_stream_is_pinned() {
    const PINNED: [u64; 4] = [
        0xe7fb_6f46_94ce_5ed4,
        0xb60a_9b97_752b_2075,
        0xb45e_ddf3_3fe5_4f55,
        0xc4aa_2f1f_9351_8015,
    ];
    let ones = Tensor::ones(vec![64, 196]);
    for (seed, want) in PINNED.into_iter().enumerate() {
        let mut d = Dropout::new(0.6, seed as u64);
        let mut folds = Vec::new();
        for _ in 0..2 {
            // x = 1 makes the output the mask itself.
            folds.extend(d.forward(&ones, Mode::Train).into_vec());
        }
        assert_eq!(fnv1a(&folds), want, "seed {seed}: {:#018x}", fnv1a(&folds));
    }
}

/// Every `Activation` kind against its retained reference, forward and
/// backward, in both modes.
#[test]
fn activations_match_reference() {
    use pelican::nn::{Activation, ActivationKind};
    let kinds = [
        ActivationKind::Relu,
        ActivationKind::Tanh,
        ActivationKind::Sigmoid,
        ActivationKind::HardSigmoid,
    ];
    for_each_layer_case(9300, |shape, x, dy, workers| {
        for kind in kinds {
            for mode in [Mode::Train, Mode::Eval] {
                let mut want = layer_reference::ActivationRef::new(kind);
                let mut a = Activation::new(kind);
                let case = format!("{kind:?} {mode:?} {shape:?} @ {workers}");
                let y = a.forward(x, mode);
                assert_same_bits(&y, &want.forward(x, mode), &case, "y");
                let dx = a.backward(dy);
                assert_same_bits(&dx, &want.backward(dy), &case, "dx");
            }
        }
    });
}

/// `MaxPool1d` against its retained reference on the sequence-length-1
/// shapes, forward and backward, in both modes.
#[test]
fn maxpool_matches_reference() {
    for_each_layer_case(9400, |shape, x, dy, workers| {
        if shape.len() == 3 && shape[1] != 1 {
            return;
        }
        for mode in [Mode::Train, Mode::Eval] {
            let mut want = layer_reference::MaxPool1dRef::new(1);
            let mut p = MaxPool1d::new(1);
            let case = format!("maxpool {mode:?} {shape:?} @ {workers}");
            let y = p.forward(x, mode);
            let want_y = want.forward(x, mode);
            assert_eq!(y.shape(), want_y.shape(), "{case}");
            assert_same_bits(&y, &want_y, &case, "y");
            // The output gradient has the output's shape.
            let g = dy.reshape(want_y.shape().to_vec()).unwrap();
            let dx = p.backward(&g);
            assert_eq!(dx.shape(), shape, "{case}");
            assert_same_bits(&dx, &want.backward(&g), &case, "dx");
        }
    });
}

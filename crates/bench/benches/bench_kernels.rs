//! Compute-core kernel benchmark: packed/blocked GEMM, `matmul_at` and the
//! sequence-length-1 GRU step against the retained seed kernels they
//! replaced.
//!
//! The seed GEMM walks one `dot` per output element: on an out-of-order
//! core that is a single 4-lane accumulation chain, latency-bound on the
//! FP add. The blocked kernel keeps a register tile live (2×4 elements on
//! the SSE2 engine, 4×16 on the 512-bit one) over a packed, cache-resident
//! B panel, so the same arithmetic retires several times faster on one
//! thread — the speedup asserted here is single-thread ILP, not
//! parallelism, and results stay bit-identical (checked in-bench and,
//! exhaustively, by `tests/kernel_equivalence.rs`). The `matmul_at` entry
//! times the funnel's engine against the scalar loop at one shape, the
//! `matmul_at_train` entry times it at the GRU's Table-I weight-gradient
//! shape (4000 × 196 × 392) against `gemm_bt` at equal FLOPs, and the
//! `tanh` entry `math::tanh_in_place` against an `f32::tanh` loop over the
//! GRU candidate of a Table-I batch (4000 × 196), asserted bit-equal.
//!
//! Results go to `BENCH_kernels.json` at the workspace root, with the lane
//! engine the host ran (`pack::engine_name`). The run fails if the
//! L2-resident GEMM speedup drops below 2× — the floor the blocking exists
//! to clear.

#[path = "../../../tests/support/gemm_reference.rs"]
mod gemm_reference;

use pelican_nn::{Gru, Layer, Mode};
use pelican_runtime::with_workers;
// Read by `gemm_reference`.
use pelican_tensor::pack::dot_seg;
use pelican_tensor::{math, pack, SeededRng, Tensor};
use std::time::Instant;

fn random_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeededRng::new(seed);
    (0..len).map(|_| rng.normal()).collect()
}

fn random_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let data = random_vec(shape.iter().product(), seed);
    Tensor::from_vec(shape, data).expect("shape")
}

/// Best-of-`reps` wall time of `iters` calls to `f`, in seconds per call.
fn time_it(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches, workspace arena and any lazy state
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

struct GemmResult {
    shape: (usize, usize, usize),
    seed_ns: f64,
    packed_ns: f64,
    speedup: f64,
}

/// Seed kernel vs packed kernel on one serial-thread GEMM shape.
fn gemm_case(m: usize, k: usize, n: usize, iters: usize) -> GemmResult {
    let a = random_vec(m * k, 21);
    let bt = random_vec(n * k, 22);
    let mut out_ref = vec![0.0f32; m * n];
    let mut out_new = vec![0.0f32; m * n];
    let seed_s = time_it(5, iters, || {
        gemm_reference::gemm_bt_reference(&a, &bt, &mut out_ref, k, n, k);
    });
    let packed_s = time_it(5, iters, || {
        with_workers(1, || pack::gemm_bt(&a, &bt, m, k, n, k, &mut out_new));
    });
    let same = out_ref
        .iter()
        .zip(&out_new)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "packed GEMM drifted from seed at {m}x{k}x{n}");
    GemmResult {
        shape: (m, k, n),
        seed_ns: seed_s * 1e9,
        packed_ns: packed_s * 1e9,
        speedup: seed_s / packed_s,
    }
}

/// The funnel's `matmul_at` engine vs the scalar loop, single thread, at
/// one L2-resident shape; returns `(scalar_ns, engine_ns)`.
fn matmul_at_case(k: usize, m: usize, n: usize, iters: usize) -> (f64, f64) {
    let a = random_vec(k * m, 29);
    let b = random_vec(k * n, 30);
    let mut out_ref = vec![0.0f32; m * n];
    let mut out_new = vec![0.0f32; m * n];
    let scalar_s = time_it(5, iters, || {
        out_ref.fill(0.0);
        pack::matmul_at_rows(&a, &b, &mut out_ref, k, m, n, 0);
    });
    let engine_s = time_it(5, iters, || {
        out_new.fill(0.0);
        with_workers(1, || pack::matmul_at_into(&a, &b, k, m, n, &mut out_new));
    });
    let same = out_ref
        .iter()
        .zip(&out_new)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same,
        "matmul_at engine drifted from the scalar loop at {k}x{m}x{n}"
    );
    (scalar_s * 1e9, engine_s * 1e9)
}

/// The funnel's `matmul_at` engine at the GRU's train-shape weight
/// gradient `xᵀ·[dz | dh̃]` (`k` rows of `t`, `m` inputs, `n` gate
/// columns) against `gemm_bt` over the same FLOPs (`A (k×m) · Bᵀ`, `n`
/// columns), one thread; returns `(engine_ns, gemm_bt_ns)`. The engine's
/// result is checked bit-equal to the scalar loop once, untimed.
fn matmul_at_train_case(k: usize, m: usize, n: usize, iters: usize) -> (f64, f64) {
    let a = random_vec(k * m, 34);
    let b = random_vec(k * n, 35);
    let bt = random_vec(n * m, 36);
    let mut out = vec![0.0f32; m * n];
    let mut want = vec![0.0f32; m * n];
    let mut gemm_out = vec![0.0f32; k * n];
    pack::matmul_at_rows(&a, &b, &mut want, k, m, n, 0);
    let engine_s = time_it(5, iters, || {
        out.fill(0.0);
        with_workers(1, || pack::matmul_at_into(&a, &b, k, m, n, &mut out));
    });
    let gemm_s = time_it(5, iters, || {
        with_workers(1, || pack::gemm_bt(&a, &bt, k, m, n, m, &mut gemm_out));
    });
    let same = out
        .iter()
        .zip(&want)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same,
        "matmul_at engine drifted from the scalar loop at {k}x{m}x{n}"
    );
    (engine_s * 1e9, gemm_s * 1e9)
}

/// `math::tanh_in_place` vs an `f32::tanh` loop over `n` elements, one
/// thread; returns `(libm_ns, engine_ns)`. Both copy the input in first.
/// The bit-equality assert pins glibc 2.36's `tanhf`, which the port
/// reproduces: on a host with another libm it fails without the port
/// being wrong.
fn tanh_case(n: usize, iters: usize) -> (f64, f64) {
    let xs = random_vec(n, 31);
    let mut out_ref = vec![0.0f32; n];
    let mut out_new = vec![0.0f32; n];
    let libm_s = time_it(5, iters, || {
        out_ref.copy_from_slice(&xs);
        for v in out_ref.iter_mut() {
            *v = v.tanh();
        }
    });
    let engine_s = time_it(5, iters, || {
        out_new.copy_from_slice(&xs);
        math::tanh_in_place(&mut out_new);
    });
    let same = out_ref
        .iter()
        .zip(&out_new)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same,
        "tanh_in_place drifted from f32::tanh (glibc 2.36 tanhf bits) over {n} elements"
    );
    (libm_s * 1e9, engine_s * 1e9)
}

fn main() {
    let engine = pack::engine_name();
    eprintln!("[kernels] lane engine: {engine}");
    // L2-resident shapes: the training matmuls of the paper's networks
    // (121 = NSL-KDD width) plus square shapes whose packed B panel and
    // A rows sit comfortably in L2.
    let gemm_shapes = [
        (64usize, 121usize, 121usize, 400usize),
        (128, 128, 128, 300),
        (64, 256, 256, 150),
    ];
    let mut gemms = Vec::new();
    for &(m, k, n, iters) in &gemm_shapes {
        let r = gemm_case(m, k, n, iters);
        eprintln!(
            "[kernels] gemm {}x{}x{}: seed {:.0} ns, packed {:.0} ns → {:.2}×",
            m, k, n, r.seed_ns, r.packed_ns, r.speedup
        );
        gemms.push(r);
    }
    let min_speedup = gemms
        .iter()
        .map(|g| g.speedup)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_speedup >= 2.0,
        "L2-resident GEMM speedup fell below the 2x floor: {min_speedup:.2}x"
    );

    // matmul_at: the dW product `xᵀ·g` of a GRU at the NSL-KDD width
    // (batch 64, 121 inputs, 242 gate columns).
    let (at_k, at_m, at_n) = (64usize, 121usize, 242usize);
    let (at_scalar_ns, at_engine_ns) = matmul_at_case(at_k, at_m, at_n, 300);
    let at_speedup = at_scalar_ns / at_engine_ns;
    eprintln!(
        "[kernels] matmul_at {at_k}x{at_m}x{at_n}: scalar {at_scalar_ns:.0} ns, {engine} {at_engine_ns:.0} ns → {at_speedup:.2}×"
    );

    // matmul_at at the GRU's Table-I train shape (batch 4000, 196
    // inputs, 392 gate columns) against gemm_bt at equal FLOPs.
    let (tr_k, tr_m, tr_n) = (4000usize, 196usize, 392usize);
    let (tr_engine_ns, tr_gemm_ns) = matmul_at_train_case(tr_k, tr_m, tr_n, 5);
    let tr_ratio = tr_gemm_ns / tr_engine_ns;
    eprintln!(
        "[kernels] matmul_at_train {tr_k}x{tr_m}x{tr_n}: {engine} {tr_engine_ns:.0} ns, gemm_bt {tr_gemm_ns:.0} ns → {tr_ratio:.2}× gemm_bt's rate"
    );

    // tanh: the GRU candidate pass at b = 4000, u = 196.
    let tanh_n = 4000 * 196;
    let (tanh_libm_ns, tanh_engine_ns) = tanh_case(tanh_n, 10);
    let tanh_speedup = tanh_libm_ns / tanh_engine_ns;
    eprintln!(
        "[kernels] tanh n={tanh_n}: f32::tanh {tanh_libm_ns:.0} ns, {engine} {tanh_engine_ns:.0} ns → {tanh_speedup:.2}×"
    );

    // GRU: the h₀ = 0 step at sequence length 1 (the paper's shape), which
    // skips the recurrent products and the dead reset gate, vs the
    // per-gate seed path, full forward+backward step. The per-gate path
    // is also the step's fallback when its guard fails.
    let (gb, gc, gu) = (64usize, 121usize, 121usize);
    let gx = random_tensor(vec![gb, 1, gc], 26);
    let gg = random_tensor(vec![gb, 1, gu], 27);
    let mut gru = Gru::new(gc, gu, &mut SeededRng::new(28));
    let gru_ref = time_it(5, 60, || {
        std::hint::black_box(gru.reference_fwd_bwd(&gx, &gg));
    });
    let gru_new = time_it(5, 60, || {
        gru.zero_grad();
        std::hint::black_box(gru.forward(&gx, Mode::Train));
        std::hint::black_box(gru.backward(&gg));
    });
    let gru_seq1_speedup = gru_ref / gru_new;
    eprintln!("[kernels] gru t=1 fwd+bwd {gru_seq1_speedup:.2}×");

    let gemm_json: Vec<String> = gemms
        .iter()
        .map(|g| {
            format!(
                "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"seed_ns\": {:.0}, \"packed_ns\": {:.0}, \"speedup\": {:.3}}}",
                g.shape.0, g.shape.1, g.shape.2, g.seed_ns, g.packed_ns, g.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"bench_kernels\",\n  \"engine\": \"{}\",\n  \"gemm\": [\n{}\n  ],\n  \"gemm_min_speedup\": {:.3},\n  \"gemm_speedup_floor\": 2.0,\n  \"matmul_at\": {{\"k\": {}, \"m\": {}, \"n\": {}, \"scalar_ns\": {:.0}, \"engine_ns\": {:.0}, \"speedup\": {:.3}}},\n  \"matmul_at_train\": {{\"k\": {}, \"m\": {}, \"n\": {}, \"engine_ns\": {:.0}, \"gemm_bt_ns\": {:.0}, \"rate_vs_gemm_bt\": {:.3}}},\n  \"tanh\": {{\"n\": {}, \"libm_ns\": {:.0}, \"engine_ns\": {:.0}, \"speedup\": {:.3}}},\n  \"gru_seq1_step_speedup\": {:.3},\n  \"bit_identical_to_seed\": true,\n  \"note\": \"engine is the lane engine both funnels ran (avx512, sse2 or portable); gemm compares the blocked register tile (4x16 on avx512, 2x4 on sse2) against the retained seed one-dot-per-element kernel (single-thread ILP); matmul_at compares the funnel's engine against the scalar loop, one thread; matmul_at_train times the engine at the GRU's Table-I weight-gradient shape against gemm_bt at equal FLOPs, one thread (rate_vs_gemm_bt = gemm_bt_ns / engine_ns); tanh compares math::tanh_in_place (16 lanes on avx512, the scalar fdlibm port elsewhere) against an f32::tanh loop over the 4000x196 GRU candidate, one thread, bit-equal; gru_seq1_step_speedup compares the sequence-length-1 step, which skips the recurrent products and the dead reset gate, against the per-gate path, which is the seq-1 guard fallback; equivalence guaranteed by tests/kernel_equivalence.rs; timings are best of 5 on one thread and move by about 20% either way between runs on a shared host, so a ratio that moves by less than that is not a change\"\n}}\n",
        engine,
        gemm_json.join(",\n"),
        min_speedup,
        at_k,
        at_m,
        at_n,
        at_scalar_ns,
        at_engine_ns,
        at_speedup,
        tr_k,
        tr_m,
        tr_n,
        tr_engine_ns,
        tr_gemm_ns,
        tr_ratio,
        tanh_n,
        tanh_libm_ns,
        tanh_engine_ns,
        tanh_speedup,
        gru_seq1_speedup,
    );
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_kernels.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[kernels] wrote {}", path.display()),
        Err(e) => eprintln!("[kernels] could not write {}: {e}", path.display()),
    }
}

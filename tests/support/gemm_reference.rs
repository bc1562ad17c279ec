//! The seed GEMM: an unblocked row-major sweep with one `dot_seg` per
//! output element. This is byte-for-byte the pre-blocking serial GEMM
//! (with `seg == k`) and the reference that the equivalence tests and
//! `bench_kernels` check and time `pack::gemm_bt` against. Nothing outside
//! tests and benches uses it.
//!
//! Included with `#[path]` from a module that has `pack::dot_seg` in
//! scope: `pack.rs` itself, `tests/kernel_equivalence.rs` and
//! `crates/bench/benches/bench_kernels.rs`.

use super::dot_seg;

/// `out = a · btᵀ` for row-major `a` (`[rows, k]`) and `bt` (`[n, k]`),
/// `rows = out.len() / n`, each dot product segmented every `seg` terms.
pub fn gemm_bt_reference(a: &[f32], bt: &[f32], out: &mut [f32], k: usize, n: usize, seg: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let ar = &a[r * k..(r + 1) * k];
        let or = &mut out[r * n..(r + 1) * n];
        for (j, o) in or.iter_mut().enumerate() {
            *o = dot_seg(ar, &bt[j * k..(j + 1) * k], seg);
        }
    }
}

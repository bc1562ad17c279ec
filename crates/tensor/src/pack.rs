//! Register/cache-blocked GEMM core with explicit B-panel layout.
//!
//! Every product in the crate reduces to `A (m×k) · Bᵀ` where `bt` holds B
//! transposed — each row of `bt` is one column of B, i.e. exactly the packed
//! panel layout a blocked kernel wants. `matmul` packs its right-hand side
//! into that layout once per call (into workspace memory); `matmul_bt`'s
//! operand already *is* that layout and is consumed in place.
//!
//! # Bit-identity contract
//!
//! The repo's invariant is that kernel results are a pure function of their
//! inputs — never of worker count, and (since this module landed) never of
//! blocking strategy. The blocked kernel therefore:
//!
//! * **never splits the k dimension** (no KC blocking): each output element
//!   is produced by one microkernel invocation that walks the full reduction
//!   in order. Blocking is over output rows (MR), output columns (NR), and
//!   column panels (NC) only — pure output partitioning, like the pool.
//! * reproduces the exact accumulation order of the scalar seed kernel
//!   [`dot_seg`] for every element: four k-strided lanes per segment,
//!   reduced left-to-right, then the scalar tail, then segments accumulated
//!   in ascending order.
//!
//! The `seg` parameter generalises the seed `dot` to *segmented* products:
//! the lane reduction restarts at every `seg` boundary. With `seg == k` this
//! is byte-for-byte the original kernel; with `seg < k` it reproduces the
//! accumulation order of a chain of `k/seg` smaller products added in
//! sequence — which is precisely how the per-gate GRU (one product per gate
//! operand) accumulates. The bridge between the two orders is the fact that
//! `dot_seg` can never return `-0.0` (lane accumulators start at `+0.0`,
//! and under round-to-nearest `x + (-x) = +0.0`), so `acc += segment` is
//! bit-equal to the "first product assigns, later products add" chain, and
//! all-zero padding segments contribute exactly nothing. The same fact lets
//! Conv1d write its one live tap's product straight into its output where the
//! seed added it to zeros.
//!
//! # Lane engines
//!
//! Both funnels, [`gemm_bt`] and [`matmul_at_into`], run on one of three
//! engines, chosen once per process from the CPU: the 512-bit engine where
//! `is_x86_feature_detected!("avx512f")` holds, otherwise SSE2 on x86_64
//! and the portable scalar engine elsewhere ([`engine_name`]). All three
//! issue the same IEEE multiplies and adds per element in the same order —
//! a separate `mul` and `add`, never a fused multiply-add, which rounds
//! once and would change results — so every engine produces the same bits.
//! The 512-bit `gemm_bt` reads B from an interleaved copy of `bt` packed
//! per call, four columns' 4-lane chunks per 512-bit load; its `matmul_at`
//! blocks the reduction over `t`, which is exact there because each output
//! element is one ascending chain in `t` that may pause in `out`, unlike
//! the fixed lanes of `gemm_bt`.

use crate::PARALLEL_FLOP_THRESHOLD;
use pelican_runtime::{current_exec, Pool};
use std::ops::Range;
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Microkernel row tile: output rows computed together.
pub const MR: usize = 2;
/// Microkernel column tile: output columns computed together.
pub const NR: usize = 4;
/// k-strided accumulation lanes — fixed by the seed kernel's order.
const LANES: usize = 4;
/// Row tile of the 512-bit engine; pool row chunks are a multiple of it.
const WIDE_MR: usize = 4;
/// Column-panel budget in f32s (~256 KiB): columns per NC panel are chosen
/// so `nc × k` stays within it, keeping the panel L2-resident while every
/// row of A sweeps it.
const PANEL_F32S: usize = 64 * 1024;

/// Segmented dot product — the scalar seed kernel.
///
/// Accumulates `a·b` in `seg`-length runs: within a run, four k-strided
/// lanes reduced `((l0+l1)+l2)+l3` plus a scalar tail (the original `dot`
/// order); across runs, plain ascending adds into the running total.
/// `seg >= a.len()` (or `seg == 0`, normalised) gives the original
/// unsegmented kernel.
#[inline]
pub fn dot_seg(a: &[f32], b: &[f32], seg: usize) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let seg = if seg == 0 { k.max(1) } else { seg };
    let mut acc = 0.0f32;
    let mut s0 = 0;
    while s0 < k {
        let s1 = (s0 + seg).min(k);
        let sa = &a[s0..s1];
        let sb = &b[s0..s1];
        let chunks = sa.len() / LANES;
        let mut l = [0.0f32; LANES];
        for i in 0..chunks {
            let j = i * LANES;
            l[0] += sa[j] * sb[j];
            l[1] += sa[j + 1] * sb[j + 1];
            l[2] += sa[j + 2] * sb[j + 2];
            l[3] += sa[j + 3] * sb[j + 3];
        }
        let mut s = l[0] + l[1] + l[2] + l[3];
        for j in chunks * LANES..sa.len() {
            s += sa[j] * sb[j];
        }
        acc += s;
        s0 = s1;
    }
    acc
}

/// Transposes `src` (`rows×cols`, row-major) into `dst` (`cols×rows`), in
/// 32×32 tiles so both sides stay cache-friendly. This is the packing step
/// that turns `matmul`'s right-hand side into the `bt` panel layout.
///
/// # Panics
///
/// Panics if the slice lengths don't match `rows × cols`.
pub fn pack_transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "pack_transpose src len");
    assert_eq!(dst.len(), rows * cols, "pack_transpose dst len");
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// SSE2 lane engine for the microkernels (x86_64 baseline, so always
/// present there). One `__m128` per output element holds that element's
/// four k-strided lanes: each step issues exactly one `mulps` and one
/// `addps` per element — the *same* IEEE-754 multiply and add, in the
/// same order, as the scalar `l[e][q] += a[q] * b[q]` chains, just four
/// lanes per instruction. Lane reduction and tails stay scalar, so the
/// result is bit-identical to the portable path by construction.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{LANES, MR, NR};
    use core::arch::x86_64::*;

    /// Accumulates the LANES-aligned prefix of one A row against four B
    /// columns; returns the four lane partials per output element.
    #[inline]
    pub(super) fn mk1x4(sa0: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; NR] {
        let chunks = sa0.len() / LANES;
        let mut out = [[0.0f32; LANES]; NR];
        // SAFETY: every pointer read below is at offset < chunks*LANES,
        // which is within all five slices (sb slices match sa0's length).
        unsafe {
            let mut acc = [_mm_setzero_ps(); NR];
            let pa0 = sa0.as_ptr();
            let pb = [
                sb[0].as_ptr(),
                sb[1].as_ptr(),
                sb[2].as_ptr(),
                sb[3].as_ptr(),
            ];
            for i in 0..chunks {
                let j = i * LANES;
                let x0 = _mm_loadu_ps(pa0.add(j));
                acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(x0, _mm_loadu_ps(pb[0].add(j))));
                acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(x0, _mm_loadu_ps(pb[1].add(j))));
                acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(x0, _mm_loadu_ps(pb[2].add(j))));
                acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(x0, _mm_loadu_ps(pb[3].add(j))));
            }
            for e in 0..NR {
                _mm_storeu_ps(out[e].as_mut_ptr(), acc[e]);
            }
        }
        out
    }

    /// Accumulates the LANES-aligned prefix of two A rows against four B
    /// columns: eight `__m128` accumulators = 32 independent chains, with
    /// the B loads shared across both rows.
    #[inline]
    pub(super) fn mk2x4(sa0: &[f32], sa1: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; MR * NR] {
        let chunks = sa0.len() / LANES;
        let mut out = [[0.0f32; LANES]; MR * NR];
        // SAFETY: offsets stay below chunks*LANES <= len of all six slices
        // (sa1 and the sb slices match sa0's length).
        unsafe {
            let mut acc = [_mm_setzero_ps(); MR * NR];
            let pa0 = sa0.as_ptr();
            let pa1 = sa1.as_ptr();
            let pb = [
                sb[0].as_ptr(),
                sb[1].as_ptr(),
                sb[2].as_ptr(),
                sb[3].as_ptr(),
            ];
            for i in 0..chunks {
                let j = i * LANES;
                let x0 = _mm_loadu_ps(pa0.add(j));
                let x1 = _mm_loadu_ps(pa1.add(j));
                let y0 = _mm_loadu_ps(pb[0].add(j));
                let y1 = _mm_loadu_ps(pb[1].add(j));
                let y2 = _mm_loadu_ps(pb[2].add(j));
                let y3 = _mm_loadu_ps(pb[3].add(j));
                acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(x0, y0));
                acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(x0, y1));
                acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(x0, y2));
                acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(x0, y3));
                acc[4] = _mm_add_ps(acc[4], _mm_mul_ps(x1, y0));
                acc[5] = _mm_add_ps(acc[5], _mm_mul_ps(x1, y1));
                acc[6] = _mm_add_ps(acc[6], _mm_mul_ps(x1, y2));
                acc[7] = _mm_add_ps(acc[7], _mm_mul_ps(x1, y3));
            }
            for e in 0..MR * NR {
                _mm_storeu_ps(out[e].as_mut_ptr(), acc[e]);
            }
        }
        out
    }
}

/// Portable lane engine: the same accumulation chains in scalar code, for
/// non-x86_64 targets (and the shape the SSE path must mirror).
#[cfg(not(target_arch = "x86_64"))]
mod lanes {
    use super::{LANES, MR, NR};

    #[inline]
    pub(super) fn mk1x4(sa0: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; NR] {
        let mut l = [[0.0f32; LANES]; NR];
        let it = sa0
            .chunks_exact(LANES)
            .zip(sb[0].chunks_exact(LANES))
            .zip(sb[1].chunks_exact(LANES))
            .zip(sb[2].chunks_exact(LANES))
            .zip(sb[3].chunks_exact(LANES));
        for ((((ca, c0), c1), c2), c3) in it {
            for q in 0..LANES {
                let x = ca[q];
                l[0][q] += x * c0[q];
                l[1][q] += x * c1[q];
                l[2][q] += x * c2[q];
                l[3][q] += x * c3[q];
            }
        }
        l
    }

    #[inline]
    pub(super) fn mk2x4(sa0: &[f32], sa1: &[f32], sb: &[&[f32]; NR]) -> [[f32; LANES]; MR * NR] {
        let mut l = [[0.0f32; LANES]; MR * NR];
        let it = sa0
            .chunks_exact(LANES)
            .zip(sa1.chunks_exact(LANES))
            .zip(sb[0].chunks_exact(LANES))
            .zip(sb[1].chunks_exact(LANES))
            .zip(sb[2].chunks_exact(LANES))
            .zip(sb[3].chunks_exact(LANES));
        for (((((ca0, ca1), c0), c1), c2), c3) in it {
            for q in 0..LANES {
                let x0 = ca0[q];
                let x1 = ca1[q];
                l[0][q] += x0 * c0[q];
                l[1][q] += x0 * c1[q];
                l[2][q] += x0 * c2[q];
                l[3][q] += x0 * c3[q];
                l[4][q] += x1 * c0[q];
                l[5][q] += x1 * c1[q];
                l[6][q] += x1 * c2[q];
                l[7][q] += x1 * c3[q];
            }
        }
        l
    }
}

/// 1×NR microkernel: one A row against four packed B columns, segmented.
/// Each of the four outputs keeps its own four lanes, so the per-element
/// order is exactly [`dot_seg`]; the win is reusing the A row loads across
/// columns and giving the CPU 16 independent accumulation chains.
#[inline]
fn mk1x4(a0: &[f32], b: [&[f32]; NR], seg: usize, out: &mut [f32; NR]) {
    let k = a0.len();
    let mut acc = [0.0f32; NR];
    let mut s0 = 0;
    while s0 < k {
        let s1 = (s0 + seg).min(k);
        let sa0 = &a0[s0..s1];
        let sb: [&[f32]; NR] = [&b[0][s0..s1], &b[1][s0..s1], &b[2][s0..s1], &b[3][s0..s1]];
        let l = lanes::mk1x4(sa0, &sb);
        let tail = (sa0.len() / LANES) * LANES;
        for e in 0..NR {
            let mut s = l[e][0] + l[e][1] + l[e][2] + l[e][3];
            for j in tail..sa0.len() {
                s += sa0[j] * sb[e][j];
            }
            acc[e] += s;
        }
        s0 = s1;
    }
    *out = acc;
}

/// MR×NR microkernel: two A rows against four packed B columns, segmented.
/// Eight outputs × four lanes = 32 independent chains; B column loads are
/// shared across both rows.
#[inline]
fn mk2x4(a0: &[f32], a1: &[f32], b: [&[f32]; NR], seg: usize, out: &mut [f32; MR * NR]) {
    let k = a0.len();
    let mut acc = [0.0f32; MR * NR];
    let mut s0 = 0;
    while s0 < k {
        let s1 = (s0 + seg).min(k);
        let sa0 = &a0[s0..s1];
        let sa1 = &a1[s0..s1];
        let sb: [&[f32]; NR] = [&b[0][s0..s1], &b[1][s0..s1], &b[2][s0..s1], &b[3][s0..s1]];
        let l = lanes::mk2x4(sa0, sa1, &sb);
        let tail = (sa0.len() / LANES) * LANES;
        for e in 0..MR * NR {
            let sa = if e < NR { sa0 } else { sa1 };
            let sbe = sb[e % NR];
            let mut s = l[e][0] + l[e][1] + l[e][2] + l[e][3];
            for j in tail..sa.len() {
                s += sa[j] * sbe[j];
            }
            acc[e] += s;
        }
        s0 = s1;
    }
    *out = acc;
}

/// Columns per NC panel for reduction depth `k`: as many NR-aligned columns
/// as fit the panel budget, at least one tile.
fn panel_cols(k: usize, n: usize) -> usize {
    let fit = PANEL_F32S / k.max(1);
    (fit - fit % NR).clamp(NR, n.max(NR))
}

/// Blocked serial driver: computes output rows `row0..row0+out.len()/n` of
/// `A (·×k) · Bᵀ` into `out`, with segmented accumulation (see [`dot_seg`]).
///
/// Loop nest: NC column panels outermost (keeps a `nc×k` slab of `bt` hot
/// while all A rows sweep it), then MR row pairs, then NR column quads into
/// the 2×4 microkernel; ragged edges fall back to 1×4 and scalar
/// [`dot_seg`]. The k dimension is never split.
pub fn gemm_bt_rows(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    seg: usize,
    row0: usize,
) {
    if n == 0 || out.is_empty() {
        return;
    }
    let seg = if seg == 0 { k.max(1) } else { seg };
    let rows = out.len() / n;
    let nc = panel_cols(k, n);
    let mut jc = 0;
    while jc < n {
        let jhi = (jc + nc).min(n);
        let mut r = 0;
        while r + MR <= rows {
            let a0 = &a[(row0 + r) * k..(row0 + r + 1) * k];
            let a1 = &a[(row0 + r + 1) * k..(row0 + r + 2) * k];
            let mut j = jc;
            while j + NR <= jhi {
                let b = [
                    &bt[j * k..(j + 1) * k],
                    &bt[(j + 1) * k..(j + 2) * k],
                    &bt[(j + 2) * k..(j + 3) * k],
                    &bt[(j + 3) * k..(j + 4) * k],
                ];
                let mut res = [0.0f32; MR * NR];
                mk2x4(a0, a1, b, seg, &mut res);
                out[r * n + j..r * n + j + NR].copy_from_slice(&res[..NR]);
                out[(r + 1) * n + j..(r + 1) * n + j + NR].copy_from_slice(&res[NR..]);
                j += NR;
            }
            while j < jhi {
                let bj = &bt[j * k..(j + 1) * k];
                out[r * n + j] = dot_seg(a0, bj, seg);
                out[(r + 1) * n + j] = dot_seg(a1, bj, seg);
                j += 1;
            }
            r += MR;
        }
        if r < rows {
            let a0 = &a[(row0 + r) * k..(row0 + r + 1) * k];
            let mut j = jc;
            while j + NR <= jhi {
                let b = [
                    &bt[j * k..(j + 1) * k],
                    &bt[(j + 1) * k..(j + 2) * k],
                    &bt[(j + 2) * k..(j + 3) * k],
                    &bt[(j + 3) * k..(j + 4) * k],
                ];
                let mut res = [0.0f32; NR];
                mk1x4(a0, b, seg, &mut res);
                out[r * n + j..r * n + j + NR].copy_from_slice(&res);
                j += NR;
            }
            while j < jhi {
                out[r * n + j] = dot_seg(a0, &bt[j * k..(j + 1) * k], seg);
                j += 1;
            }
        }
        jc = jhi;
    }
}

/// Whether the 512-bit engine runs: detected once per process, and shared
/// with [`crate::math::tanh_in_place`]. x86_64 hosts without AVX-512 run
/// the SSE2 engine, other targets the portable one.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

/// The lane engine both funnels and [`crate::math::tanh_in_place`] run on
/// the running CPU: `"avx512"`, `"sse2"` or `"portable"`. Every engine
/// produces the same bits; off `"avx512"`, `tanh_in_place` runs the scalar
/// port.
pub fn engine_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        return "avx512";
    }
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "portable"
    }
}

/// The 512-bit engine behind both funnels.
///
/// `gemm_bt`: one zmm register holds the four k-strided lanes of four
/// output columns, so a register tile of 4 rows × 16 columns keeps 64
/// elements' lanes live in 16 accumulators. Each A chunk is broadcast to
/// all four 128-bit blocks (`_mm512_broadcast_f32x4`) and multiplied into
/// one interleaved panel load (see [`pack_panel`]), then added: separate
/// `mul` and `add`, never FMA, so lane q of element e runs exactly the
/// IEEE operations of `l[e][q]` in [`dot_seg`]. The lanes are reduced
/// in-register as `((l0+l1)+l2)+l3` into lane 0 of each block, the
/// `seg % 4` tail products are added one by one in k order, and segments
/// accumulate ascending — [`dot_seg`]'s order throughout.
///
/// `matmul_at`: a tile of 4 output rows × 96 columns in 24 accumulators
/// walks `t` ascending with the same zero-skip as the scalar loop, one
/// `mul` and one `add` per element per `t`. Each output element is one
/// chain in `t` starting from its value in `out`, so the chain may pause
/// in `out` between blocks of [`AT_TBLOCK`] rows of `t`. A row tile whose
/// `a` entries in a t block are all nonzero runs a loop without the
/// zero test: the test would pass at every `t`, so the operations are
/// the same. One narrower tile, its last register masked, takes the
/// columns past the last 96; ragged rows run the scalar loop.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{avx512, dot_seg, matmul_at_region, LANES, PANEL_F32S, WIDE_MR};
    use core::arch::x86_64::*;

    /// Columns per interleaved group: one zmm = four columns × four lanes.
    const GROUP: usize = 4;
    /// Floats per panel block: one zmm load.
    const BLOCK: usize = GROUP * LANES;
    /// Rows of `t` per `matmul_at` block: 128 × 96 columns of `b` (48 KiB)
    /// stay cache-resident while every row tile sweeps them.
    const AT_TBLOCK: usize = 128;
    /// `matmul_at` tile width in zmm registers (96 columns): 4 rows × 6
    /// registers give 24 independent add chains.
    const AT_NV: usize = 6;
    /// Floats per zmm register.
    const ZMM: usize = 16;

    /// The shape every `gemm_bt` tile of one call shares: reduction depth,
    /// output row stride, segment length and panel floats per group.
    #[derive(Clone, Copy)]
    struct Dims {
        k: usize,
        n: usize,
        seg: usize,
        glen: usize,
    }

    /// Panel floats per column group: one block per 4-wide k chunk of
    /// every segment, plus one for each segment's ragged tail.
    fn group_len(k: usize, seg: usize) -> usize {
        let (full, last) = (k / seg, k % seg);
        BLOCK * (full * seg.div_ceil(LANES) + last.div_ceil(LANES))
    }

    /// Length of the interleaved panel of an `n×k` `bt` at segment `seg`.
    pub(super) fn panel_len(k: usize, n: usize, seg: usize) -> usize {
        (n / GROUP) * group_len(k, seg)
    }

    /// Interleaves `bt` (`n×k`) into `dst`: for each group of four
    /// columns, each segment and each 4-wide k chunk, the four columns'
    /// chunks side by side (16 floats, one zmm load). A segment's ragged
    /// tail fills the first `seg % 4` floats of each column's quarter of
    /// one more block; the rest of that block is never added into a
    /// result. Columns past the last full group are not packed; the driver
    /// reads them from `bt`.
    pub(super) fn pack_panel(bt: &[f32], k: usize, n: usize, seg: usize, dst: &mut [f32]) {
        assert_eq!(dst.len(), panel_len(k, n, seg), "pack_panel dst len");
        let glen = group_len(k, seg);
        if glen == 0 {
            return;
        }
        for (g, grp) in dst.chunks_exact_mut(glen).enumerate() {
            let cols = &bt[g * GROUP * k..(g + 1) * GROUP * k];
            for (c, col) in cols.chunks_exact(k).enumerate() {
                let lane = c * LANES..(c + 1) * LANES;
                let mut blocks = grp.chunks_exact_mut(BLOCK);
                for s in col.chunks(seg) {
                    let chunks = s.chunks_exact(LANES);
                    let tail = chunks.remainder();
                    for (chunk, block) in chunks.zip(&mut blocks) {
                        block[lane.clone()].copy_from_slice(chunk);
                    }
                    if !tail.is_empty() {
                        let block = blocks.next().expect("one block per ragged tail");
                        block[lane.start..lane.start + tail.len()].copy_from_slice(tail);
                    }
                }
            }
        }
    }

    /// One `R`-row × `4·G`-column tile of `gemm_bt`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F; `a` points at `R` rows of `d.k` floats;
    /// `panel` points at `G` groups of `d.glen` floats; `out` points at `R`
    /// rows of `4·G` writable floats, `d.n` apart; `d.seg >= 1`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_tile<const R: usize, const G: usize>(
        d: Dims,
        a: *const f32,
        panel: *const f32,
        out: *mut f32,
    ) {
        let Dims { k, n, seg, glen } = d;
        // SAFETY (whole body): every offset below stays inside the
        // regions the caller guarantees: A reads at `r*k + j` with
        // `j < k`, panel reads at `g*glen + p` with `p < glen` (the
        // walk below visits each of a group's blocks once, in packing
        // order), out writes at `r*n + 4g + c`.
        unsafe {
            let mut tot = [[_mm512_setzero_ps(); G]; R];
            let mut p = panel;
            let mut s0 = 0;
            while s0 < k {
                let len = seg.min(k - s0);
                let chunks = len / LANES;
                let mut acc = [[_mm512_setzero_ps(); G]; R];
                for i in 0..chunks {
                    let j = s0 + i * LANES;
                    let mut x = [_mm512_setzero_ps(); R];
                    for (r, xr) in x.iter_mut().enumerate() {
                        *xr = _mm512_broadcast_f32x4(_mm_loadu_ps(a.add(r * k + j)));
                    }
                    let mut y = [_mm512_setzero_ps(); G];
                    for (g, yg) in y.iter_mut().enumerate() {
                        *yg = _mm512_loadu_ps(p.add(g * glen));
                    }
                    for (xr, row) in x.iter().zip(acc.iter_mut()) {
                        for (v, yg) in row.iter_mut().zip(&y) {
                            *v = _mm512_add_ps(*v, _mm512_mul_ps(*xr, *yg));
                        }
                    }
                    p = p.add(BLOCK);
                }
                // Lane 0 of each column's block becomes ((l0+l1)+l2)+l3.
                for row in acc.iter_mut() {
                    for v in row.iter_mut() {
                        let s = _mm512_add_ps(*v, _mm512_permute_ps::<0b01>(*v));
                        let s = _mm512_add_ps(s, _mm512_permute_ps::<0b10>(*v));
                        *v = _mm512_add_ps(s, _mm512_permute_ps::<0b11>(*v));
                    }
                }
                let tail = len % LANES;
                if tail > 0 {
                    let j = s0 + chunks * LANES;
                    let mut x = [_mm512_setzero_ps(); R];
                    for (r, xr) in x.iter_mut().enumerate() {
                        let mut t = [0.0f32; LANES];
                        core::ptr::copy_nonoverlapping(a.add(r * k + j), t.as_mut_ptr(), tail);
                        *xr = _mm512_broadcast_f32x4(_mm_loadu_ps(t.as_ptr()));
                    }
                    let mut y = [_mm512_setzero_ps(); G];
                    for (g, yg) in y.iter_mut().enumerate() {
                        *yg = _mm512_loadu_ps(p.add(g * glen));
                    }
                    for (xr, row) in x.iter().zip(acc.iter_mut()) {
                        for (v, yg) in row.iter_mut().zip(&y) {
                            // Tail products one by one, in k order.
                            let prod = _mm512_mul_ps(*xr, *yg);
                            *v = _mm512_add_ps(*v, prod);
                            if tail > 1 {
                                *v = _mm512_add_ps(*v, _mm512_permute_ps::<0b01>(prod));
                            }
                            if tail > 2 {
                                *v = _mm512_add_ps(*v, _mm512_permute_ps::<0b10>(prod));
                            }
                        }
                    }
                    p = p.add(BLOCK);
                }
                for (trow, row) in tot.iter_mut().zip(&acc) {
                    for (t, v) in trow.iter_mut().zip(row) {
                        *t = _mm512_add_ps(*t, *v);
                    }
                }
                s0 += len;
            }
            let mut buf = [0.0f32; ZMM];
            for (r, row) in tot.iter().enumerate() {
                for (g, v) in row.iter().enumerate() {
                    _mm512_storeu_ps(buf.as_mut_ptr(), *v);
                    for c in 0..GROUP {
                        *out.add(r * n + g * GROUP + c) = buf[c * LANES];
                    }
                }
            }
        }
    }

    /// Rows `r..r+R` of one column panel (groups `g0..g1`): 16-column
    /// tiles, then an 8- and a 4-column edge tile.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F; `a`, `panel` and `out` hold rows
    /// `r..r+R` and groups `g0..g1 <= n/4` as checked in [`gemm_bt_rows`].
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_sweep<const R: usize>(
        d: Dims,
        (a, panel, out): (&[f32], &[f32], &mut [f32]),
        r: usize,
        (g0, g1): (usize, usize),
    ) {
        let pa = a[r * d.k..].as_ptr();
        let po = out[r * d.n..].as_mut_ptr();
        // SAFETY: each tile reads groups g..g+G <= g1 of the panel and R
        // rows of `a` from row r, and writes R rows of `out` from row r at
        // columns 4g..4(g+G) <= n, all within the caller's checks.
        unsafe {
            let tile = |g: usize| (panel.as_ptr().add(g * d.glen), po.add(g * GROUP));
            let mut g = g0;
            while g + 4 <= g1 {
                let (pp, po) = tile(g);
                gemm_tile::<R, 4>(d, pa, pp, po);
                g += 4;
            }
            if g + 2 <= g1 {
                let (pp, po) = tile(g);
                gemm_tile::<R, 2>(d, pa, pp, po);
                g += 2;
            }
            if g < g1 {
                let (pp, po) = tile(g);
                gemm_tile::<R, 1>(d, pa, pp, po);
            }
        }
    }

    /// The 512-bit row driver of `gemm_bt`: output rows
    /// `row0..row0+out.len()/n` of `A · Bᵀ`, from the interleaved `panel`
    /// of `bt` (`pack_panel` at the same `seg`). Column panels of about
    /// 256 KiB outermost, then 4-row tiles, then single rows; columns past
    /// the last full group run [`dot_seg`] on `bt`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX-512F or a slice length does not match.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_bt_rows(
        a: &[f32],
        panel: &[f32],
        bt: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        seg: usize,
        row0: usize,
    ) {
        assert!(avx512(), "512-bit engine needs AVX-512F");
        if n == 0 || out.is_empty() {
            return;
        }
        let rows = out.len() / n;
        assert!(seg >= 1, "wide gemm_bt seg");
        assert_eq!(out.len(), rows * n, "wide gemm_bt out len");
        assert!(a.len() >= (row0 + rows) * k, "wide gemm_bt lhs len");
        assert_eq!(bt.len(), n * k, "wide gemm_bt rhs len");
        assert_eq!(panel.len(), panel_len(k, n, seg), "wide gemm_bt panel len");
        let a = &a[row0 * k..(row0 + rows) * k];
        let groups = n / GROUP;
        let d = Dims {
            k,
            n,
            seg,
            glen: group_len(k, seg),
        };
        let fit = (PANEL_F32S / d.glen.max(1)).max(4);
        let nc = fit - fit % 4;
        let mut g0 = 0;
        while g0 < groups {
            let g1 = (g0 + nc).min(groups);
            let mut r = 0;
            // SAFETY: AVX-512F is present (asserted above); rows, groups
            // and slice lengths are within the checked bounds.
            unsafe {
                while r + WIDE_MR <= rows {
                    gemm_sweep::<WIDE_MR>(d, (a, panel, out), r, (g0, g1));
                    r += WIDE_MR;
                }
                while r < rows {
                    gemm_sweep::<1>(d, (a, panel, out), r, (g0, g1));
                    r += 1;
                }
            }
            g0 = g1;
        }
        for r in 0..rows {
            let ar = &a[r * k..(r + 1) * k];
            for j in groups * GROUP..n {
                out[r * n + j] = dot_seg(ar, &bt[j * k..(j + 1) * k], seg);
            }
        }
    }

    /// One 4-row × `16·V`-column tile of `Aᵀ·B` over `t0..t1`, continuing
    /// the running sums in `out`. Lanes outside `last` in the tile's last
    /// register are neither read nor written. `DENSE` drops the zero-skip
    /// test: the caller passes it only when every `a` entry the tile reads
    /// is nonzero, where the test would take the add at every `t` anyway,
    /// so both loops issue the same operations in the same order.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F; for every `t` in `t0..t1`, `a` is
    /// readable at `t*m + 0..4` and `b` at `t*n + c` for every column `c`
    /// of the tile; `out` holds those columns in 4 writable rows, `n`
    /// apart. The tile's columns are `0..16·V` minus the lanes `last`
    /// clears in its last register.
    #[target_feature(enable = "avx512f")]
    unsafe fn at_tile<const V: usize, const DENSE: bool>(
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        (t0, t1): (usize, usize),
        last: __mmask16,
        out: *mut f32,
    ) {
        let mask = |v: usize| if v + 1 == V { last } else { !0 };
        // SAFETY (whole body): offsets are those the caller guarantees;
        // masked-off lanes are not accessed.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); V]; WIDE_MR];
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = _mm512_maskz_loadu_ps(mask(v), out.add(r * n + v * ZMM));
                }
            }
            for t in t0..t1 {
                let br = b.add(t * n);
                let mut y = [_mm512_setzero_ps(); V];
                for (v, yv) in y.iter_mut().enumerate() {
                    *yv = _mm512_maskz_loadu_ps(mask(v), br.add(v * ZMM));
                }
                let ar = a.add(t * m);
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *ar.add(r);
                    if DENSE || av != 0.0 {
                        let x = _mm512_set1_ps(av);
                        for (s, yv) in row.iter_mut().zip(&y) {
                            *s = _mm512_add_ps(*s, _mm512_mul_ps(x, *yv));
                        }
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, x) in row.iter().enumerate() {
                    _mm512_mask_storeu_ps(out.add(r * n + v * ZMM), mask(v), *x);
                }
            }
        }
    }

    /// [`at_tile`] for `vecs` registers (`1..=AT_NV`), dense or
    /// zero-skipping.
    ///
    /// # Safety
    ///
    /// As for [`at_tile`] with `V = vecs`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn at_tile_dyn(
        vecs: usize,
        dense: bool,
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        ts: (usize, usize),
        last: __mmask16,
        out: *mut f32,
    ) {
        macro_rules! tile {
            ($($v:literal)*) => {
                match (vecs, dense) {
                    $(
                        ($v, true) => at_tile::<$v, true>(a, m, b, n, ts, last, out),
                        ($v, false) => at_tile::<$v, false>(a, m, b, n, ts, last, out),
                    )*
                    _ => unreachable!("matmul_at tile of {vecs} registers"),
                }
            };
        }
        // SAFETY: the caller's guarantee is `at_tile`'s.
        unsafe { tile!(1 2 3 4 5 6) }
    }

    /// The 512-bit row driver of `matmul_at`: same contract as
    /// [`super::matmul_at_rows`] (`out` accumulates, so it must arrive
    /// zeroed). Blocks of [`AT_TBLOCK`] rows of `t` outermost, then
    /// `16·AT_NV`-column tiles and one narrower tile whose last register
    /// is masked to the `n % 16` ragged columns, then 4-row tiles; ragged
    /// rows run the scalar loop. A row tile whose `a` entries in the t
    /// block are all nonzero runs the dense loop.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX-512F or a slice length does not match.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn matmul_at_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
        n: usize,
        row0: usize,
    ) {
        assert!(avx512(), "512-bit engine needs AVX-512F");
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        assert_eq!(out.len(), rows * n, "wide matmul_at out len");
        assert_eq!(a.len(), k * m, "wide matmul_at lhs len");
        assert_eq!(b.len(), k * n, "wide matmul_at rhs len");
        assert!(row0 + rows <= m, "wide matmul_at rows");
        let full_rows = rows - rows % WIDE_MR;
        let tile_cols = AT_NV * ZMM;
        let mut dense = vec![false; full_rows / WIDE_MR];
        let mut t0 = 0;
        while t0 < k {
            let t1 = (t0 + AT_TBLOCK).min(k);
            for (tile, d) in dense.iter_mut().enumerate() {
                let rows = row0 + tile * WIDE_MR..row0 + (tile + 1) * WIDE_MR;
                *d = (t0..t1).all(|t| a[t * m..][rows.clone()].iter().all(|&v| v != 0.0));
            }
            let mut j = 0;
            while j < n {
                let width = tile_cols.min(n - j);
                let last = match width % ZMM {
                    0 => !0,
                    r => (1 << r) - 1,
                };
                for (tile, &d) in dense.iter().enumerate() {
                    let i = tile * WIDE_MR;
                    // SAFETY: AVX-512F is present (asserted above); the
                    // tile's rows row0+i..row0+i+4 <= m, its columns
                    // j..j+width <= n (lanes past `width` are masked off)
                    // and t < k are within the checked slice lengths.
                    unsafe {
                        at_tile_dyn(
                            width.div_ceil(ZMM),
                            d,
                            a.as_ptr().add(row0 + i),
                            m,
                            b.as_ptr().add(j),
                            n,
                            (t0, t1),
                            last,
                            out.as_mut_ptr().add(i * n + j),
                        );
                    }
                }
                j += width;
            }
            t0 = t1;
        }
        matmul_at_region(a, b, out, k, m, n, row0, full_rows..rows, 0..n);
    }
}

/// Computes output rows `row0..row0+out.len()/n` of `Aᵀ·B` where `a` is
/// `k×m` and `b` is `k×n`, both row-major — the scalar engine, and the
/// reference the 512-bit engine is tested against. The reduction over `t`
/// runs ascending with the zero-skip, so each output element sees the exact
/// per-element accumulation order of the serial kernel at every partition.
pub fn matmul_at_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    row0: usize,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    matmul_at_region(a, b, out, k, m, n, row0, 0..rows, 0..n);
}

/// The scalar `Aᵀ·B` loop over one rectangle of `out` (chunk-relative
/// `rows`, absolute `cols`): for every `t` ascending, each row with a
/// nonzero `a` entry adds `a·b` into its columns. `av != 0.0` skips ±0
/// and keeps NaN.
#[allow(clippy::too_many_arguments)]
fn matmul_at_region(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    row0: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    if rows.is_empty() || cols.is_empty() {
        return;
    }
    for t in 0..k {
        let ar = &a[t * m..(t + 1) * m];
        let br = &b[t * n + cols.start..t * n + cols.end];
        for i in rows.clone() {
            let av = ar[row0 + i];
            if av != 0.0 {
                let or = &mut out[i * n + cols.start..i * n + cols.end];
                for (o, &bv) in or.iter_mut().zip(br) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Whether a kernel of `flops` multiply-accumulates over `rows` partitionable
/// output rows should engage the pool, and with how many workers. Uses the
/// process-shared cached pool — no thread spawns on this path.
pub(crate) fn plan(flops: usize, rows: usize) -> Option<(Pool, usize)> {
    let exec = current_exec();
    if exec.workers < 2 || rows < 2 {
        return None;
    }
    if flops < PARALLEL_FLOP_THRESHOLD && !exec.force_parallel {
        return None;
    }
    let workers = exec.workers.min(rows);
    Some((Pool::cached(workers), rows.div_ceil(workers)))
}

/// Runs `rows(chunk, side_chunk, row0)` over the `m` output rows of `out`
/// (`n` columns each) and the same rows of `side` (`side.len() / m`
/// columns each): serially, or across the pool in chunks of a multiple of
/// [`WIDE_MR`] rows, so every chunk but the last fills whole 4-row tiles.
/// Each output row is written by exactly one call, so the result never
/// depends on the partition.
fn partition(
    flops: usize,
    m: usize,
    n: usize,
    (out, side): (&mut [f32], &mut [f32]),
    rows: impl Fn(&mut [f32], &mut [f32], usize) + Sync,
) {
    match plan(flops, m) {
        None => rows(out, side, 0),
        Some((pool, chunk_rows)) => {
            let chunk_rows = chunk_rows.next_multiple_of(WIDE_MR);
            let side_n = side.len() / m;
            let (mut out, mut side) = (out, side);
            let mut chunks = Vec::with_capacity(m.div_ceil(chunk_rows));
            while !out.is_empty() {
                let (o, out_rest) = out.split_at_mut((chunk_rows * n).min(out.len()));
                let (s, side_rest) = side.split_at_mut((chunk_rows * side_n).min(side.len()));
                chunks.push((o, s));
                (out, side) = (out_rest, side_rest);
            }
            pool.scope_chunks(&mut chunks, 1, |idx, chunk| {
                let (o, s) = &mut chunk[0];
                rows(o, s, idx * chunk_rows);
            });
        }
    }
}

/// Packed, pooled GEMM: `out = A (m×k) · Bᵀ` with `bt` in panel (n×k)
/// layout and segmented accumulation. Partitions output rows across the
/// cached pool above [`PARALLEL_FLOP_THRESHOLD`]; each row chunk runs the
/// same blocked serial driver, so the result is bit-identical at every
/// worker count. [`gemm_bt_then`] with a no-op epilogue.
///
/// This is the single funnel for dense products — `matmul`, `matmul_bt`,
/// Conv1d's per-tap products and the GRU step all land here, which is also
/// where the FLOP counters live. With the 512-bit engine, `bt` is first
/// interleaved into workspace memory once per call (for at least four
/// rows of A), and every row chunk reads that one panel.
///
/// # Panics
///
/// Panics if slice lengths don't match `m×k` / `n×k` / `m×n`.
pub fn gemm_bt(a: &[f32], bt: &[f32], m: usize, k: usize, n: usize, seg: usize, out: &mut [f32]) {
    gemm_bt_then(a, bt, (m, k, n, seg), out, &mut [], |_, _| {});
}

/// [`gemm_bt`] at `(m, k, n, seg)`, then `epilogue(out_rows, side_rows)`
/// on each finished row chunk, on the worker that computed it while the
/// rows are still in its cache. `side` holds `side.len() / m` columns per
/// row of `out`, and each call gets the same rows of both. A serial
/// product runs the epilogue once, over every row. The epilogue must
/// treat each row on its own, so its result is independent of the
/// partition, like the product's.
///
/// # Panics
///
/// Panics if slice lengths don't match `m×k` / `n×k` / `m×n`, or if
/// `side.len()` is not a multiple of `m`.
pub fn gemm_bt_then(
    a: &[f32],
    bt: &[f32],
    (m, k, n, seg): (usize, usize, usize, usize),
    out: &mut [f32],
    side: &mut [f32],
    epilogue: impl Fn(&mut [f32], &mut [f32]) + Sync,
) {
    assert_eq!(a.len(), m * k, "gemm_bt lhs len");
    assert_eq!(bt.len(), n * k, "gemm_bt rhs len");
    assert_eq!(out.len(), m * n, "gemm_bt out len");
    assert_eq!(side.len() % m.max(1), 0, "gemm_bt side len");
    pelican_observe::counter_add("tensor.matmul_calls", 1);
    pelican_observe::counter_add("tensor.matmul_flops", 2 * (m * k * n) as u64);
    if m * n == 0 {
        return;
    }
    // Below one full row tile the panel would be read once, so
    // interleaving it costs more than the wider lanes save.
    #[cfg(target_arch = "x86_64")]
    if avx512() && m >= WIDE_MR {
        let seg = if seg == 0 { k.max(1) } else { seg };
        let mut panel = crate::workspace::take(wide::panel_len(k, n, seg));
        wide::pack_panel(bt, k, n, seg, &mut panel);
        let panel = &*panel;
        partition(m * k * n, m, n, (out, side), |chunk, side, row0| {
            wide::gemm_bt_rows(a, panel, bt, chunk, k, n, seg, row0);
            epilogue(chunk, side);
        });
        return;
    }
    partition(m * k * n, m, n, (out, side), |chunk, side, row0| {
        gemm_bt_rows(a, bt, chunk, k, n, seg, row0);
        epilogue(chunk, side);
    });
}

/// Pooled `Aᵀ·B` into a caller buffer: `a` is `k×m`, `b` is `k×n`, `out` is
/// `m×n` and is *overwritten* (must arrive zeroed — workspace buffers are).
/// Same kernel, partitioning and counters as [`crate::Tensor::matmul_at`].
///
/// # Panics
///
/// Panics if slice lengths don't match `k×m` / `k×n` / `m×n`.
pub fn matmul_at_into(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_at_into lhs len");
    assert_eq!(b.len(), k * n, "matmul_at_into rhs len");
    assert_eq!(out.len(), m * n, "matmul_at_into out len");
    pelican_observe::counter_add("tensor.matmul_calls", 1);
    pelican_observe::counter_add("tensor.matmul_flops", 2 * (m * k * n) as u64);
    if m * n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        partition(m * k * n, m, n, (out, &mut []), |chunk, _, row0| {
            wide::matmul_at_rows(a, b, chunk, k, m, n, row0);
        });
        return;
    }
    partition(m * k * n, m, n, (out, &mut []), |chunk, _, row0| {
        matmul_at_rows(a, b, chunk, k, m, n, row0);
    });
}

#[cfg(test)]
#[path = "../../../tests/support/gemm_reference.rs"]
mod gemm_reference;

#[cfg(test)]
mod tests {
    use super::gemm_reference::gemm_bt_reference;
    use super::*;

    fn fill(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    #[test]
    fn dot_seg_full_matches_unsegmented_reference() {
        for len in [0usize, 1, 3, 4, 7, 8, 12, 31] {
            let a = fill(len, |i| (i as f32).sin());
            let b = fill(len, |i| (i as f32 * 0.3).cos());
            let full = dot_seg(&a, &b, len.max(1));
            assert_eq!(dot_seg(&a, &b, 0), full, "seg=0 normalisation @ {len}");
            assert_eq!(dot_seg(&a, &b, usize::MAX), full, "oversized seg @ {len}");
        }
    }

    #[test]
    fn dot_seg_segments_match_manual_chain() {
        // seg-chained dot must equal running `acc += dot(segment)`.
        let a = fill(12, |i| (i as f32) * 0.7 - 3.0);
        let b = fill(12, |i| (i as f32).cos());
        for seg in [1usize, 2, 3, 4, 5, 12] {
            let mut acc = 0.0f32;
            let mut s0 = 0;
            while s0 < 12 {
                let s1 = (s0 + seg).min(12);
                acc += dot_seg(&a[s0..s1], &b[s0..s1], seg);
                s0 = s1;
            }
            assert_eq!(dot_seg(&a, &b, seg), acc, "seg {seg}");
        }
    }

    #[test]
    fn dot_seg_never_returns_negative_zero() {
        // The bridge lemma behind the fused kernels: all-cancelling and
        // all-zero inputs still come out +0.0.
        let cases: [(&[f32], &[f32]); 4] = [
            (&[0.0; 8], &[-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0]),
            (&[1.0, -1.0, 2.0, -2.0, 5.0], &[3.0, 3.0, 1.0, 1.0, 0.0]),
            (&[-0.0, -0.0, -0.0], &[1.0, 2.0, 3.0]),
            (&[], &[]),
        ];
        for (a, b) in cases {
            for seg in [1usize, 2, 4, 8] {
                let r = dot_seg(a, b, seg);
                assert_eq!(r, 0.0);
                assert!(r.is_sign_positive(), "-0.0 leaked at seg {seg}");
            }
        }
    }

    #[test]
    fn pack_transpose_round_trips() {
        for (r, c) in [(1usize, 1usize), (3, 5), (33, 40), (64, 31)] {
            let src = fill(r * c, |i| i as f32);
            let mut dst = vec![0.0f32; r * c];
            pack_transpose(&src, r, c, &mut dst);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(dst[j * r + i], src[i * c + j]);
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit-equal, except that a NaN matches any NaN.
    fn same_nan_or_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| (w.is_nan() && g.is_nan()) || g.to_bits() == w.to_bits())
    }

    /// Every `gemm_bt` row driver this host can run: the SSE2 (portable
    /// off x86_64) driver always, the 512-bit one when the CPU has
    /// AVX-512F.
    fn gemm_engines() -> Vec<&'static str> {
        let mut engines = vec!["lanes"];
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            engines.push("avx512");
        }
        engines
    }

    /// Runs one engine's `gemm_bt` row driver, packing its panel first.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        engine: &str,
        a: &[f32],
        bt: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        seg: usize,
        row0: usize,
    ) {
        match engine {
            #[cfg(target_arch = "x86_64")]
            "avx512" => {
                let mut panel = vec![0.0f32; wide::panel_len(k, n, seg)];
                wide::pack_panel(bt, k, n, seg, &mut panel);
                wide::gemm_bt_rows(a, &panel, bt, out, k, n, seg, row0);
            }
            _ => gemm_bt_rows(a, bt, out, k, n, seg, row0),
        }
    }

    #[test]
    fn blocked_matches_reference_across_shapes_and_segments() {
        // m up to 11 and n up to 37 reach the 4×16 tile, every 8/4-column
        // and single-row edge tile, and the dot_seg columns; k = 41 and
        // 121 leave 4-lane tails.
        for &(m, k, n) in &[
            (1usize, 0usize, 1usize),
            (1, 1, 1),
            (2, 4, 4),
            (3, 5, 7),
            (5, 8, 4),
            (7, 12, 9),
            (16, 33, 17),
            (2, 121, 121),
            (11, 41, 37),
            (9, 16, 28),
            (4, 7, 16),
        ] {
            let a = fill(m * k, |i| ((i * 37 % 23) as f32 - 11.0) * 0.17);
            let bt = fill(n * k, |i| ((i * 29 % 19) as f32 - 9.0) * 0.23);
            for seg in [1usize, 2, 3, 4, 5, k.max(1)] {
                let mut want = vec![0.0f32; m * n];
                gemm_bt_reference(&a, &bt, &mut want, k, n, seg);
                for name in gemm_engines() {
                    let mut got = vec![0.0f32; m * n];
                    gemm_rows(name, &a, &bt, &mut got, k, n, seg, 0);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name} m={m} k={k} n={n} seg={seg}"
                    );
                    // A row chunk that starts mid-tile.
                    if m > 1 {
                        let mut tail = vec![0.0f32; (m - 1) * n];
                        gemm_rows(name, &a, &bt, &mut tail, k, n, seg, 1);
                        assert_eq!(
                            bits(&tail),
                            bits(&want[n..]),
                            "{name} row0=1 m={m} k={k} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_gemm_engine_keeps_non_finite_values_in_place() {
        let (m, k, n) = (9usize, 23usize, 37usize);
        let mut a = fill(m * k, |i| ((i * 13 % 17) as f32 - 8.0) * 0.31);
        let mut bt = fill(n * k, |i| ((i * 7 % 11) as f32 - 5.0) * 0.19);
        for (i, v) in [(3, f32::NAN), (40, f32::INFINITY), (77, -0.0), (150, 0.0)] {
            a[i] = v;
        }
        for (i, v) in [
            (5, f32::NEG_INFINITY),
            (100, f32::NAN),
            (400, 1e30),
            (700, -1e30),
        ] {
            bt[i] = v;
        }
        for seg in [4usize, 5, k] {
            let mut want = vec![0.0f32; m * n];
            gemm_bt_reference(&a, &bt, &mut want, k, n, seg);
            for name in gemm_engines() {
                let mut got = vec![0.0f32; m * n];
                gemm_rows(name, &a, &bt, &mut got, k, n, seg, 0);
                assert!(same_nan_or_bits(&got, &want), "{name} seg={seg}");
            }
        }
    }

    /// The textbook `Aᵀ·B`: one ascending, zero-skipping sum per element,
    /// independent of either engine's loop nest.
    fn matmul_at_naive(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for t in 0..k {
                    if a[t * m + i] != 0.0 {
                        s += a[t * m + i] * b[t * n + j];
                    }
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    /// Both `matmul_at` row drivers this host can run against
    /// [`matmul_at_naive`], from output row 0 and from row 1.
    fn check_matmul_at_engines(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, case: &str) {
        let want = matmul_at_naive(a, b, k, m, n);
        for row0 in [0usize, 1] {
            let rows = m - row0.min(m);
            let mut got = vec![0.0f32; rows * n];
            matmul_at_rows(a, b, &mut got, k, m, n, row0);
            assert!(
                same_nan_or_bits(&got, &want[row0 * n..]),
                "scalar {case} k={k} m={m} n={n} row0={row0}"
            );
            #[cfg(target_arch = "x86_64")]
            if avx512() {
                let mut got = vec![0.0f32; rows * n];
                wide::matmul_at_rows(a, b, &mut got, k, m, n, row0);
                assert!(
                    same_nan_or_bits(&got, &want[row0 * n..]),
                    "avx512 {case} k={k} m={m} n={n} row0={row0}"
                );
            }
        }
    }

    #[test]
    fn every_matmul_at_engine_matches_the_naive_sum() {
        // n = 96, 112, 196 and 392 reach the 96-column tile, the narrower
        // tiles after it and the masked ragged columns; m = 7 and 9 leave
        // ragged rows; k = 129 and 300 cross t blocks. Each shape runs
        // with zeros in `a` (the zero-skipping loop) and without (the
        // dense loop).
        for &(k, m, n) in &[
            (0usize, 3usize, 5usize),
            (1, 1, 1),
            (5, 4, 16),
            (300, 7, 53),
            (33, 9, 40),
            (129, 9, 96),
            (300, 8, 112),
            (129, 5, 196),
            (200, 4, 392),
        ] {
            for zeros in [true, false] {
                let mut a = fill(k * m, |i| ((i * 31 % 29) as f32 - 14.5) * 0.13);
                let mut b = fill(k * n, |i| ((i * 11 % 23) as f32 - 11.0) * 0.21);
                if zeros {
                    for i in (0..a.len()).step_by(5) {
                        a[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                if k * m > 20 {
                    a[17] = f32::NAN;
                    a[19] = f32::INFINITY;
                    // Non-finite b inside the column tiles: the rows whose
                    // `a` is ±0 there must skip them.
                    let mid = (k / 2) * n;
                    b[mid] = f32::NAN;
                    b[mid + n - 1] = f32::NEG_INFINITY;
                    if n > 20 {
                        b[mid + 20] = f32::INFINITY;
                    }
                }
                check_matmul_at_engines(&a, &b, k, m, n, if zeros { "zeros" } else { "dense" });
            }
        }
    }

    /// One zero in `a` among nonzero entries of the same 4-row tile and t
    /// block, over NaN and ±Inf in `b` in that `t`'s row: the zero-skip
    /// keeps the tile's row finite there, which the dense loop (a zero
    /// times NaN or Inf is NaN) would not. n = 100 puts one column in the
    /// masked edge tile.
    #[test]
    fn a_zero_in_a_dense_tile_still_skips_non_finite_b() {
        let (k, m, n) = (100usize, 4usize, 100usize);
        let mut a = fill(k * m, |i| 0.25 + (i % 7) as f32 * 0.5);
        let mut b = fill(k * n, |i| ((i * 13 % 17) as f32 - 8.0) * 0.3);
        let t = 37;
        for zero in [0.0f32, -0.0] {
            a[t * m + 2] = zero;
            b[t * n + 5] = f32::NAN;
            b[t * n + 50] = f32::INFINITY;
            b[t * n + 98] = f32::NEG_INFINITY;
            let want = matmul_at_naive(&a, &b, k, m, n);
            assert!(want[2 * n..3 * n].iter().all(|v| v.is_finite()));
            check_matmul_at_engines(&a, &b, k, m, n, "one zero");
        }
    }

    #[test]
    fn row0_offset_addresses_the_right_rows() {
        let (m, k, n) = (5usize, 6usize, 3usize);
        let a = fill(m * k, |i| (i as f32).sin());
        let bt = fill(n * k, |i| (i as f32).cos());
        let mut full = vec![0.0f32; m * n];
        gemm_bt_rows(&a, &bt, &mut full, k, n, k, 0);
        let mut tail = vec![0.0f32; 2 * n];
        gemm_bt_rows(&a, &bt, &mut tail, k, n, k, 3);
        assert_eq!(&full[3 * n..], &tail[..]);
    }
}

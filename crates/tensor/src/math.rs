//! Elementwise transcendental functions with pinned bits.
//!
//! [`tanh`] is a port of the fdlibm `tanhf` and the 5-term `expm1f` it
//! calls, as glibc 2.36 ships them, so it returns exactly the bits that
//! `f32::tanh` returns on such a host — on every host, whatever its libm.
//! [`tanh_in_place`] maps a buffer through the same function, 16 lanes per
//! instruction on the 512-bit engine ([`crate::pack::engine_name`]), and
//! with the scalar port elsewhere and on the ragged tail.
//!
//! Both engines issue the port's IEEE operations in its order: separate
//! `mul`, `add` and `div`, never a fused multiply-add, whose single
//! rounding would change results. The 16-lane engine evaluates every
//! branch of the port in every lane (the ±Inf/NaN branch only when some
//! lane holds one) and blends the lane's own branch by mask, so each lane
//! sees exactly the scalar operations for its input.

/// `ln 2` split so that `k·LN2_HI` is exact for the `k` `expm1` uses.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// glibc's scaled `expm1f` coefficients Q1..Q5.
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;

/// `|x|` bit thresholds of `tanhf`.
const TANH_NON_FINITE: i32 = 0x7f80_0000;
const TANH_SATURATED: i32 = 0x41b0_0000; // 22
const TANH_TINY: i32 = 0x2400_0000; // 2⁻⁵⁵
const TANH_ONE: i32 = 0x3f80_0000;
/// `|x|` bit thresholds of `expm1f`.
const EXPM1_REDUCE: i32 = 0x3eb1_7218; // 0.5·ln 2
const EXPM1_NEAR: i32 = 0x3f85_1592; // 1.5·ln 2
const EXPM1_TINY: i32 = 0x3300_0000; // 2⁻²⁵

/// Hyperbolic tangent, bit-equal to glibc 2.36's `tanhf` for every input,
/// NaN payloads included.
///
/// ```
/// use pelican_tensor::math;
///
/// assert_eq!(math::tanh(0.5).to_bits(), 0x3eec_9a9f); // glibc 2.36's bits
/// assert_eq!(math::tanh(-30.0), -1.0);
/// ```
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= TANH_NON_FINITE {
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < TANH_SATURATED {
        if ix == 0 {
            return x;
        }
        if ix < TANH_TINY {
            return x * (1.0 + x);
        }
        if ix >= TANH_ONE {
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `eˣ − 1` for the arguments [`tanh`] passes, `−2 < x < 44`: glibc's
/// `expm1f` without its overflow and `x < −27·ln 2` filters, which those
/// arguments never reach.
fn expm1(x: f32) -> f32 {
    let neg = x.is_sign_negative();
    let hx = (x.to_bits() & 0x7fff_ffff) as i32;
    let (x, c, k) = if hx > EXPM1_REDUCE {
        let (hi, lo, k) = if hx < EXPM1_NEAR {
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < EXPM1_TINY {
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = ((x * (e - c)) - c) - hxs;
    // Adds `k` to the exponent of `y`.
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => 1.0 + 2.0 * (x - e),
        k if k <= -2 || k > 56 => scale(1.0 - (e - x)) - 1.0,
        k if k < 23 => {
            let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 − 2⁻ᵏ
            scale(t - (e - x))
        }
        k => {
            let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
            scale((x - (e + t)) + 1.0)
        }
    }
}

/// Replaces every element with its [`tanh`], 16 lanes at a time where the
/// CPU has AVX-512F. Every engine gives the same bits.
pub fn tanh_in_place(v: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::pack::avx512() {
        // SAFETY: the CPU supports AVX-512F.
        unsafe { wide::tanh_in_place(v) };
        return;
    }
    for x in v {
        *x = tanh(*x);
    }
}

/// The 16-lane engine: every branch of [`tanh`] and its `expm1` in every
/// lane, blended by mask.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::*;
    use core::arch::x86_64::*;

    const LANES: usize = 16;

    /// [`tanh`] over 16-element chunks, the scalar port on the tail. Safe
    /// to call only where the CPU supports AVX-512F, which is why calls
    /// from code without that target feature are `unsafe`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn tanh_in_place(v: &mut [f32]) {
        let mut chunks = v.chunks_exact_mut(LANES);
        for c in &mut chunks {
            // SAFETY: `c` holds exactly 16 floats.
            unsafe { _mm512_storeu_ps(c.as_mut_ptr(), tanh16(_mm512_loadu_ps(c.as_ptr()))) };
        }
        for x in chunks.into_remainder() {
            *x = tanh(*x);
        }
    }

    #[target_feature(enable = "avx512f")]
    fn splat(v: f32) -> __m512 {
        _mm512_set1_ps(v)
    }

    #[target_feature(enable = "avx512f")]
    fn splat_i(v: i32) -> __m512i {
        _mm512_set1_epi32(v)
    }

    /// `-v`: the sign bit flipped, as scalar negation does.
    #[target_feature(enable = "avx512f")]
    fn negate(v: __m512) -> __m512 {
        _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), splat_i(i32::MIN)))
    }

    #[target_feature(enable = "avx512f")]
    fn tanh16(x: __m512) -> __m512 {
        let one = splat(1.0);
        let two = splat(2.0);
        let jx = _mm512_castps_si512(x);
        let ix = _mm512_and_si512(jx, splat_i(0x7fff_ffff));
        let neg = _mm512_cmplt_epi32_mask(jx, _mm512_setzero_si512());
        let ge1 = _mm512_cmpge_epi32_mask(ix, splat_i(TANH_ONE));
        let ax = _mm512_castsi512_ps(ix);

        // 2^-55 <= |x| < 22: one expm1, then 1 − 2/(t+2) or −t/(t+2) as
        // one division with the numerator picked per lane.
        let arg = _mm512_mask_blend_ps(ge1, _mm512_mul_ps(splat(-2.0), ax), _mm512_mul_ps(two, ax));
        let t = expm1_16(arg);
        let q = _mm512_div_ps(
            _mm512_mask_blend_ps(ge1, negate(t), two),
            _mm512_add_ps(t, two),
        );
        let z = _mm512_mask_blend_ps(ge1, q, _mm512_sub_ps(one, q));
        // |x| >= 22.
        let saturated = _mm512_cmpge_epi32_mask(ix, splat_i(TANH_SATURATED));
        let z = _mm512_mask_blend_ps(saturated, z, splat(1.0 - TINY));
        let z = _mm512_mask_blend_ps(neg, z, negate(z));
        // |x| < 2^-55: x·(1 + x), returned without the sign flip. At ±0
        // it is x, the `ix == 0` branch's result.
        let tiny = _mm512_cmplt_epi32_mask(ix, splat_i(TANH_TINY));
        let r = _mm512_mask_blend_ps(tiny, z, _mm512_mul_ps(x, _mm512_add_ps(one, x)));
        // ±Inf and NaN: 1/x ± 1.
        let non_finite = _mm512_cmpge_epi32_mask(ix, splat_i(TANH_NON_FINITE));
        if non_finite == 0 {
            return r;
        }
        let inv = _mm512_div_ps(one, x);
        let nf = _mm512_mask_blend_ps(neg, _mm512_add_ps(inv, one), _mm512_sub_ps(inv, one));
        _mm512_mask_blend_ps(non_finite, r, nf)
    }

    /// `expm1` over 16 lanes. Lanes outside its domain compute garbage
    /// that [`tanh16`] blends away.
    #[target_feature(enable = "avx512f")]
    pub(super) fn expm1_16(a: __m512) -> __m512 {
        let one = splat(1.0);
        let bits = _mm512_castps_si512(a);
        let hx = _mm512_and_si512(bits, splat_i(0x7fff_ffff));
        let neg = _mm512_cmplt_epi32_mask(bits, _mm512_setzero_si512());
        let reduce = _mm512_cmpgt_epi32_mask(hx, splat_i(EXPM1_REDUCE));
        let near = _mm512_cmplt_epi32_mask(hx, splat_i(EXPM1_NEAR));

        // Argument reduction: k = ±1 near 0.5·ln 2 .. 1.5·ln 2, else
        // k = trunc(x/ln 2 ± 0.5); hi − lo = x − k·ln 2.
        let half = _mm512_mask_blend_ps(neg, splat(0.5), splat(-0.5));
        let k_far = _mm512_cvttps_epi32(_mm512_add_ps(_mm512_mul_ps(splat(INVLN2), a), half));
        let t = _mm512_cvtepi32_ps(k_far);
        let hi_far = _mm512_sub_ps(a, _mm512_mul_ps(t, splat(LN2_HI)));
        let lo_far = _mm512_mul_ps(t, splat(LN2_LO));
        let hi_near = _mm512_mask_blend_ps(
            neg,
            _mm512_sub_ps(a, splat(LN2_HI)),
            _mm512_add_ps(a, splat(LN2_HI)),
        );
        let lo_near = _mm512_mask_blend_ps(neg, splat(LN2_LO), splat(-LN2_LO));
        let k_near = _mm512_mask_blend_epi32(neg, splat_i(1), splat_i(-1));
        let hi = _mm512_mask_blend_ps(near, hi_far, hi_near);
        let lo = _mm512_mask_blend_ps(near, lo_far, lo_near);
        let xr = _mm512_sub_ps(hi, lo);
        let cr = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);
        let x = _mm512_mask_blend_ps(reduce, a, xr);
        let c = _mm512_maskz_mov_ps(reduce, cr);
        let k = _mm512_maskz_mov_epi32(reduce, _mm512_mask_blend_epi32(near, k_far, k_near));

        // x is now in the primary range.
        let hfx = _mm512_mul_ps(splat(0.5), x);
        let hxs = _mm512_mul_ps(x, hfx);
        let mut p = _mm512_mul_ps(hxs, splat(Q[4]));
        for &q in Q[..4].iter().rev() {
            p = _mm512_mul_ps(hxs, _mm512_add_ps(splat(q), p));
        }
        let r1 = _mm512_add_ps(one, p);
        let t = _mm512_sub_ps(splat(3.0), _mm512_mul_ps(r1, hfx));
        let e = _mm512_mul_ps(
            hxs,
            _mm512_div_ps(
                _mm512_sub_ps(r1, t),
                _mm512_sub_ps(splat(6.0), _mm512_mul_ps(x, t)),
            ),
        );
        let r_k0 = _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e), hxs));
        let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e, c)), c), hxs);
        let e_minus_x = _mm512_sub_ps(e, x);
        let r_km1 = _mm512_sub_ps(_mm512_mul_ps(splat(0.5), _mm512_sub_ps(x, e)), splat(0.5));
        let below = _mm512_cmplt_ps_mask(x, splat(-0.25));
        let r_k1 = _mm512_mask_blend_ps(
            below,
            _mm512_add_ps(one, _mm512_mul_ps(splat(2.0), _mm512_sub_ps(x, e))),
            _mm512_mul_ps(splat(-2.0), _mm512_sub_ps(e, _mm512_add_ps(x, splat(0.5)))),
        );
        // Adds k to the exponent of y.
        let k23 = _mm512_slli_epi32::<23>(k);
        let scale = |y: __m512| _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), k23));
        let r_wide = _mm512_sub_ps(scale(_mm512_sub_ps(one, e_minus_x)), one);
        // 1 − 2^-k and 2^-k.
        let t_lt23 = _mm512_castsi512_ps(_mm512_sub_epi32(
            splat_i(0x3f80_0000),
            _mm512_srlv_epi32(splat_i(0x0100_0000), k),
        ));
        let r_lt23 = scale(_mm512_sub_ps(t_lt23, e_minus_x));
        let t_ge23 =
            _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_sub_epi32(splat_i(0x7f), k)));
        let r_ge23 = scale(_mm512_add_ps(
            _mm512_sub_ps(x, _mm512_add_ps(e, t_ge23)),
            one,
        ));

        let is = |v: i32| _mm512_cmpeq_epi32_mask(k, splat_i(v));
        let lt23 = _mm512_cmplt_epi32_mask(k, splat_i(23));
        let wide =
            _mm512_cmple_epi32_mask(k, splat_i(-2)) | _mm512_cmpgt_epi32_mask(k, splat_i(56));
        let r = _mm512_mask_blend_ps(lt23, r_ge23, r_lt23);
        let r = _mm512_mask_blend_ps(wide, r, r_wide);
        let r = _mm512_mask_blend_ps(is(1), r, r_k1);
        let r = _mm512_mask_blend_ps(is(-1), r, r_km1);
        let r = _mm512_mask_blend_ps(is(0), r, r_k0);
        // |x| < 2^-25: x − ((huge + x) − (huge + x)).
        let tiny = _mm512_cmplt_epi32_mask(hx, splat_i(EXPM1_TINY));
        let h = _mm512_add_ps(splat(HUGE), a);
        let r_tiny = _mm512_sub_ps(a, _mm512_sub_ps(h, _mm512_add_ps(splat(HUGE), a)));
        _mm512_mask_blend_ps(tiny, r, r_tiny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(x, tanh(x))` bits from glibc 2.36's `tanhf`, the bits the
    /// recorded digests were made with: each branch threshold ±1 ulp of
    /// both signs (`expm1`'s at half its argument), inputs reaching each
    /// unsaturated `expm1` case, then subnormals and NaN payloads.
    const GLIBC_TANH: &[(u32, u32)] = &[
        // tanhf and expm1f thresholds.
        (0x7f7fffff, 0x3f800000),
        (0xff7fffff, 0xbf800000),
        (0x7f800000, 0x3f800000),
        (0xff800000, 0xbf800000),
        (0x7f800001, 0x7fc00001),
        (0xff800001, 0xffc00001),
        (0x41afffff, 0x3f800000),
        (0xc1afffff, 0xbf800000),
        (0x41b00000, 0x3f800000),
        (0xc1b00000, 0xbf800000),
        (0x41b00001, 0x3f800000),
        (0xc1b00001, 0xbf800000),
        (0x23ffffff, 0x23ffffff),
        (0xa3ffffff, 0xa3ffffff),
        (0x24000000, 0x24000000),
        (0xa4000000, 0xa4000000),
        (0x24000001, 0x24000001),
        (0xa4000001, 0xa4000001),
        (0x3f7fffff, 0x3f42f7d5),
        (0xbf7fffff, 0xbf42f7d5),
        (0x3f800000, 0x3f42f7d6),
        (0xbf800000, 0xbf42f7d6),
        (0x3f800001, 0x3f42f7d6),
        (0xbf800001, 0xbf42f7d6),
        (0x3e317217, 0x3e2fb0cc),
        (0xbe317217, 0xbe2fb0cc),
        (0x3e317218, 0x3e2fb0cd),
        (0xbe317218, 0xbe2fb0cd),
        (0x3e317219, 0x3e2fb0cd),
        (0xbe317219, 0xbe2fb0cd),
        (0x3f051591, 0x3ef486f8),
        (0xbf051591, 0xbef486f8),
        (0x3f051592, 0x3ef486f8),
        (0xbf051592, 0xbef486f8),
        (0x3f051593, 0x3ef486fb),
        (0xbf051593, 0xbef486fb),
        (0x327fffff, 0x327fffff),
        (0xb27fffff, 0xb27fffff),
        (0x32800000, 0x32800000),
        (0xb2800000, 0xb2800000),
        (0x32800001, 0x32800001),
        (0xb2800001, 0xb2800001),
        // k = −3 … 0 and 3 … 23 inside expm1f.
        (0x3f9b43d5, 0x3f566b9a),
        (0xbf9b43d5, 0xbf566b9a),
        (0x3f851592, 0x3f471c72),
        (0xbf851592, 0xbf471c72),
        (0x3f5dce9e, 0x3f331638),
        (0xbf5dce9e, 0xbf331638),
        (0x3f317218, 0x3f19999a),
        (0xbf317218, 0xbf19999a),
        (0x3eb17218, 0x3eaaaaab),
        (0xbeb17218, 0xbeaaaaab),
        (0x00000000, 0x00000000),
        (0x80000000, 0x80000000),
        (0x40ee7150, 0x3f7ffff5),
        (0xc0ee7150, 0xbf7ffff5),
        (0x40f3fce1, 0x3f7ffff8),
        (0xc0f3fce1, 0xbf7ffff8),
        (0x40f98872, 0x3f7ffffa),
        (0xc0f98872, 0xbf7ffffa),
        (0x40ff1402, 0x3f7ffffc),
        (0xc0ff1402, 0xbf7ffffc),
        (0x41024fca, 0x3f7ffffd),
        (0xc1024fca, 0xbf7ffffd),
        // Subnormals and NaN payloads.
        (0x00000001, 0x00000001),
        (0x80000001, 0x80000001),
        (0x00400000, 0x00400000),
        (0x007fffff, 0x007fffff),
        (0x807fffff, 0x807fffff),
        (0x7fc00000, 0x7fc00000),
        (0x7fc00001, 0x7fc00001),
        (0xffc12345, 0xffc12345),
        (0xffbfffff, 0xffffffff),
    ];

    /// `(x, expm1(x))` bits from glibc 2.36's `expm1f` at k = −3 … 63,
    /// covering the cases `tanh` only reaches where it rounds to ±1.
    const GLIBC_EXPM1: &[(u32, u32)] = &[
        (0xc0051592, 0xbf600000),
        (0xbfb17218, 0xbf400000),
        (0xbf317218, 0xbf000000),
        (0x3e4ccccd, 0x3e62b768),
        (0x3f317218, 0x3f800000),
        (0x3fb17218, 0x40400000),
        (0x4173fce1, 0x4a7ffffd),
        (0x417f1402, 0x4afffff7),
        (0x421b43d5, 0x5b800001),
        (0x421e099d, 0x5bffffea),
        (0x422eac50, 0x5f00000d),
    ];

    /// The 16-lane engine against the scalar port, raw bits (NaN payloads
    /// included), over the whole slice: 16-lane blocks and tail.
    fn check(xs: &[f32]) {
        let mut lanes = xs.to_vec();
        tanh_in_place(&mut lanes);
        for (&x, &got) in xs.iter().zip(&lanes) {
            assert_eq!(
                got.to_bits(),
                tanh(x).to_bits(),
                "tanh_in_place at {:#010x}",
                x.to_bits()
            );
        }
    }

    /// `expm1` of the 16-lane engine against the scalar port.
    fn check_expm1(args: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if crate::pack::avx512() {
            use core::arch::x86_64::{_mm512_loadu_ps, _mm512_storeu_ps};
            for lanes in args.chunks_exact(16) {
                let mut got = [0.0f32; 16];
                // SAFETY: the CPU supports AVX-512F, and `lanes` and `got`
                // hold 16 floats each.
                unsafe {
                    let v = wide::expm1_16(_mm512_loadu_ps(lanes.as_ptr()));
                    _mm512_storeu_ps(got.as_mut_ptr(), v);
                }
                for (&a, g) in lanes.iter().zip(got) {
                    assert_eq!(g.to_bits(), expm1(a).to_bits(), "expm1 lanes at {a}");
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = args;
    }

    /// `bits − 1 ..= bits + 1` of both signs.
    fn around(bits: u32) -> Vec<f32> {
        (bits - 1..=bits + 1)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    #[test]
    fn pinned_glibc_bits() {
        let xs: Vec<f32> = GLIBC_TANH.iter().map(|&(x, _)| f32::from_bits(x)).collect();
        for (&x, &(_, want)) in xs.iter().zip(GLIBC_TANH) {
            assert_eq!(tanh(x).to_bits(), want, "tanh at {:#010x}", x.to_bits());
        }
        check(&xs);
        let args: Vec<f32> = GLIBC_EXPM1
            .iter()
            .map(|&(x, _)| f32::from_bits(x))
            .collect();
        for (&a, &(_, want)) in args.iter().zip(GLIBC_EXPM1) {
            assert_eq!(expm1(a).to_bits(), want, "expm1 at {a}");
        }
        let mut padded = args;
        padded.resize(16, 0.5);
        check_expm1(&padded);
    }

    /// Every 65 521st bit pattern: the engines agree, and the port's
    /// outputs fold (FNV-1a) to the value glibc 2.36's `tanhf` gives.
    #[test]
    fn every_65521st_pattern() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
        check(&xs);
        let fold = xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
            (h ^ u64::from(tanh(x).to_bits())).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fold, 0x22fc_8cdf_befd_8116);
    }

    #[test]
    fn branch_thresholds() {
        let tanh_th = [TANH_NON_FINITE, TANH_SATURATED, TANH_TINY, TANH_ONE];
        let mut xs: Vec<f32> = tanh_th.iter().flat_map(|&t| around(t as u32)).collect();
        // expm1 sees ±2|x|: its thresholds at half the argument.
        for t in [EXPM1_REDUCE, EXPM1_NEAR, EXPM1_TINY] {
            xs.extend(around(t as u32).into_iter().map(|a| a / 2.0));
        }
        check(&xs);
    }

    /// `tanh` reaches `expm1` with k ∈ {−3 … 0} (|x| < 1) and k ∈ {3 … 63}
    /// (|x| >= 1); 64 ulps each side of k·ln2/2 and of each rounding edge
    /// (k ± ½)·ln2/2 cover every result case, k ≤ −2 and k > 56 included.
    #[test]
    fn every_expm1_case() {
        let mut xs = Vec::new();
        for k in [-3i32, -2, -1, 0, 2, 3, 22, 23, 56, 57, 63] {
            for off in [-0.5f64, 0.0, 0.5] {
                let a = (f64::from(k) + off) * std::f64::consts::LN_2 / 2.0;
                let c = (a.abs() as f32).to_bits();
                xs.extend((c.saturating_sub(64)..c + 64).map(f32::from_bits));
            }
        }
        check(&xs);
        // Past |x| ≈ 9 every case rounds tanh to ±1, and k = 1, 2 arise
        // only from arguments tanh never passes: both engines' expm1 at
        // every k.
        let mut args = Vec::new();
        for k in [-3i32, -2, -1, 0, 1, 2, 22, 23, 56, 57, 63] {
            let a = if k == 0 {
                0.2
            } else {
                k as f32 * std::f32::consts::LN_2
            };
            let c = a.to_bits();
            args.extend((c - 64..c + 64).map(f32::from_bits));
        }
        check_expm1(&args);
    }

    #[test]
    fn zeros_subnormals_infinities_and_nans() {
        let bits = [
            0x0000_0000u32,
            0x8000_0000,
            0x0000_0001,
            0x8000_0001,
            0x0040_0000,
            0x007f_ffff,
            0x807f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0x7fc0_0001,
            0xffc1_2345,
            0x7f80_0001,
            0xffbf_ffff,
        ];
        check(&bits.map(f32::from_bits));
    }

    /// Slices around the 16-lane block: empty, tail only, one block, and
    /// blocks plus a tail, with every branch in both positions.
    #[test]
    fn slice_lengths_around_the_lane_block() {
        let pool = [
            0.0f32,
            -0.0,
            1e-40,
            1e-20,
            0.1,
            -0.3,
            0.7,
            -1.0,
            3.5,
            -9.0,
            19.9,
            25.0,
            -f32::INFINITY,
            f32::NAN,
            f32::from_bits(0xff81_2345),
            0.5,
        ];
        for len in [0usize, 1, 15, 16, 17, 33] {
            for rot in 0..pool.len() {
                let xs: Vec<f32> = (0..len).map(|i| pool[(i + rot) % pool.len()]).collect();
                check(&xs);
            }
        }
    }

    /// All 2³² inputs, both engines against the host's `f32::tanh`, bit for
    /// bit. Pins the glibc 2.36 fdlibm bits this port reproduces, so it
    /// passes only on a host whose `tanhf` is glibc 2.36's; run with
    /// `cargo test --release -p pelican-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, run in release"]
    fn exhaustive_matches_libm() {
        const CHUNK: u64 = 1 << 16;
        let threads = 2u64;
        let per = (1u64 << 32) / threads;
        std::thread::scope(|s| {
            for w in 0..threads {
                s.spawn(move || {
                    let mut xs = vec![0.0f32; CHUNK as usize];
                    let mut ys = xs.clone();
                    for start in (w * per..(w + 1) * per).step_by(CHUNK as usize) {
                        for (i, x) in xs.iter_mut().enumerate() {
                            *x = f32::from_bits((start + i as u64) as u32);
                        }
                        ys.copy_from_slice(&xs);
                        tanh_in_place(&mut ys);
                        for (&x, &y) in xs.iter().zip(&ys) {
                            let want = x.tanh().to_bits();
                            assert_eq!(
                                tanh(x).to_bits(),
                                want,
                                "scalar vs glibc 2.36 tanhf at {:#010x}",
                                x.to_bits()
                            );
                            assert_eq!(
                                y.to_bits(),
                                want,
                                "lanes vs glibc 2.36 tanhf at {:#010x}",
                                x.to_bits()
                            );
                        }
                    }
                });
            }
        });
    }
}

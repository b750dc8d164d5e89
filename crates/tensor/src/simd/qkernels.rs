//! Quantized integer kernels: i8×i8→i32 dot products and the transposed
//! GEMM they compose into.
//!
//! These are the arithmetic core of the int8 inference path. Unlike the
//! f32 kernels, every instantiation here accumulates in **exact integer
//! arithmetic** — two's-complement i32 addition is associative, so the
//! lane width, the load order, and the horizontal-sum tree cannot change
//! the result. Both backends are therefore **bitwise identical for
//! every input and every shape**, remainder lanes included: a fourth,
//! strongest determinism class (see `docs/NUMERICS.md`, "Quantized
//! inference").
//!
//! Instruction selection:
//!
//! * **scalar** — plain `i32` multiply-accumulate, the oracle.
//! * **avx2** — 32 lanes of i8 per step: two `vpmovsxbw` widenings feed
//!   two `vpmaddwd`, accumulating into one 8×i32 register.
//!
//! The widening-multiply shape (`madd` on sign-extended i16) is chosen
//! over `maddubs` deliberately: `maddubs` is u8×i8 and saturates its i16
//! pair-sum, which would make the kernel value-dependent; sign-extended
//! `madd` products are ≤ 2·127·128 and can never saturate.
//!
//! Overflow contract: the caller keeps `k ≤ 2^16` (≈ 65k accumulation
//! terms), which bounds `|Σ aᵢ·bᵢ| ≤ k · 127·128 < 2^31`. Every shape the
//! workspace produces (`k = cin·kernel` or `k = fc_in`) is orders of
//! magnitude below that; the bound is `debug_assert`ed.

use super::kernels::dispatch_kernel;
use super::SimdBackend;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Largest supported reduction length (see the overflow contract above).
pub const QDOT_MAX_K: usize = 1 << 16;

#[inline(always)]
fn qdot_scalar(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= QDOT_MAX_K);
    let mut s = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        s = s.wrapping_add(i32::from(x) * i32::from(y));
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn qdot_avx2(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= QDOT_MAX_K);
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    // 32 bytes per step: two 16-byte sign-extending loads, two pmaddwd.
    while i + 32 <= n {
        let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
        let a1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i + 16).cast()));
        let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i + 16).cast()));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a1, b1));
        i += 32;
    }
    if i + 16 <= n {
        let a0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a0, b0));
        i += 16;
    }
    let mut s = hsum_epi32_256(acc);
    while i < n {
        s = s.wrapping_add(i32::from(a[i]) * i32::from(b[i]));
        i += 1;
    }
    s
}

/// The scalar GEMM oracle: one [`qdot_scalar`] per output element.
///
/// # Safety
///
/// None: an `unsafe fn` only to match the calling convention the
/// dispatcher expects (the scalar instantiation has no hardware
/// preconditions).
#[inline(always)]
unsafe fn qgemm_scalar(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = qdot_scalar(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// In-register reduction of 8×i32 to one i32 (wrapping). The tree shape
/// differs from a left-to-right scalar sum, but i32 addition is
/// associative so the value cannot.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hsum_epi32_256(v: __m256i) -> i32 {
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b10_11_00_01));
    _mm_cvtsi128_si32(s)
}

/// Reduction lengths up to this bound take the pre-widened fast path in
/// [`qgemm_avx2`] (4 rows × 2 bytes × 512 = 4 KiB of stack panel). Every
/// shape the inference plan produces (`k = cin·kernel`, `k = fc_in`) fits;
/// larger `k` falls back to widen-in-loop.
#[cfg(target_arch = "x86_64")]
const QGEMM_WIDEN_MAX_K: usize = 512;

/// AVX2 GEMM with 4-row blocking: each 16-byte panel of the (transposed)
/// right-hand side is sign-extended **once** and fed to four independent
/// `pmaddwd` accumulator chains — one per output row — which both
/// amortizes the B loads and gives the multiply-add units a dependency-free
/// stream. For `k ≤ QGEMM_WIDEN_MAX_K` the 4-row A block is additionally
/// pre-widened to i16 once per block (reused across all `n` columns), so
/// the inner loop issues exactly one `cvtepi8_epi16` per 16 bytes of B.
/// Integer addition is associative, so none of this is observable: results
/// stay bitwise identical to the dot-at-a-time scalar oracle.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn qgemm_avx2(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    let widen = k <= QGEMM_WIDEN_MAX_K;
    let mut wide = [0i16; 4 * QGEMM_WIDEN_MAX_K];
    let mut i = 0;
    while i + 4 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        if widen {
            for (r, row) in [a0, a1, a2, a3].into_iter().enumerate() {
                for (p, &v) in row.iter().enumerate() {
                    wide[r * k + p] = i16::from(v);
                }
            }
        }
        for j in 0..n {
            let bj = &b[j * k..(j + 1) * k];
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut p = 0;
            if widen {
                let w = wide.as_ptr();
                while p + 16 <= k {
                    let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bj.as_ptr().add(p).cast()));
                    let v0 = _mm256_loadu_si256(w.add(p).cast());
                    let v1 = _mm256_loadu_si256(w.add(k + p).cast());
                    let v2 = _mm256_loadu_si256(w.add(2 * k + p).cast());
                    let v3 = _mm256_loadu_si256(w.add(3 * k + p).cast());
                    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(v0, vb));
                    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(v1, vb));
                    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(v2, vb));
                    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(v3, vb));
                    p += 16;
                }
            } else {
                while p + 16 <= k {
                    let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bj.as_ptr().add(p).cast()));
                    let v0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a0.as_ptr().add(p).cast()));
                    let v1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a1.as_ptr().add(p).cast()));
                    let v2 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a2.as_ptr().add(p).cast()));
                    let v3 = _mm256_cvtepi8_epi16(_mm_loadu_si128(a3.as_ptr().add(p).cast()));
                    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(v0, vb));
                    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(v1, vb));
                    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(v2, vb));
                    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(v3, vb));
                    p += 16;
                }
            }
            let mut s0 = hsum_epi32_256(acc0);
            let mut s1 = hsum_epi32_256(acc1);
            let mut s2 = hsum_epi32_256(acc2);
            let mut s3 = hsum_epi32_256(acc3);
            while p < k {
                let y = i32::from(bj[p]);
                s0 = s0.wrapping_add(i32::from(a0[p]) * y);
                s1 = s1.wrapping_add(i32::from(a1[p]) * y);
                s2 = s2.wrapping_add(i32::from(a2[p]) * y);
                s3 = s3.wrapping_add(i32::from(a3[p]) * y);
                p += 1;
            }
            out[i * n + j] = s0;
            out[(i + 1) * n + j] = s1;
            out[(i + 2) * n + j] = s2;
            out[(i + 3) * n + j] = s3;
        }
        i += 4;
    }
    while i < m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            out[i * n + j] = qdot_avx2(a_row, &b[j * k..(j + 1) * k]);
        }
        i += 1;
    }
}

// Scalar wrapper matching the unsafe-fn calling convention the dispatcher
// expects (the scalar instantiation has no hardware preconditions).
unsafe fn qdot_scalar_w(a: &[i8], b: &[i8]) -> i32 {
    qdot_scalar(a, b)
}

dispatch_kernel!(
    /// `Σ aᵢ·bᵢ` over two i8 slices, i32 accumulation. **Bitwise identical
    /// on every backend** (integer addition is associative); requires
    /// `a.len() ≤ 2^16` so the sum cannot wrap (see [`QDOT_MAX_K`]).
    qdot_i8 / qdot_i8_with(a: &[i8], b: &[i8]) -> i32,
    avx2: qdot_avx2, scalar: qdot_scalar_w
);
dispatch_kernel!(
    /// Quantized GEMM against a **transposed** right-hand side:
    /// `out[i·n + j] = Σ_p a[i·k + p] · b[j·k + p]` for `a: [m, k]` and
    /// `b: [n, k]`, both row-major i8, accumulating in i32. Keeping both
    /// operands' reduction axes contiguous is what lets every backend use
    /// its widening multiply-add directly. **Bitwise identical on every
    /// backend**; requires `k ≤ 2^16` (see [`QDOT_MAX_K`]).
    qgemm_i8t / qgemm_i8t_with(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize),
    avx2: qgemm_avx2, scalar: qgemm_scalar
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qdot_matches_reference_on_all_backends() {
        let a: Vec<i8> = (0..100).map(|i| ((i * 37 + 11) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..100).map(|i| ((i * 53 + 5) % 255 - 127) as i8).collect();
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 100] {
            let want: i32 =
                a[..len].iter().zip(&b[..len]).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
            for bk in [SimdBackend::Scalar, SimdBackend::Avx2] {
                assert_eq!(qdot_i8_with(bk, &a[..len], &b[..len]), want, "len={len} bk={bk:?}");
            }
        }
    }

    #[test]
    fn qdot_handles_extreme_codes() {
        // -128 · -128 per term: the case `maddubs` would mishandle and
        // saturating i16 sums would corrupt.
        let a = vec![-128i8; 33];
        let b = vec![-128i8; 33];
        let want = 33 * 128 * 128;
        for bk in [SimdBackend::Scalar, SimdBackend::Avx2] {
            assert_eq!(qdot_i8_with(bk, &a, &b), want, "bk={bk:?}");
        }
    }

    #[test]
    fn qgemm_small_shape_all_backends() {
        let (m, k, n) = (3usize, 19usize, 5usize);
        let a: Vec<i8> = (0..(m * k) as i32).map(|i| ((i * 41 + 3) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..(n * k) as i32).map(|i| ((i * 29 + 17) % 255 - 127) as i8).collect();
        let mut want = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] =
                    (0..k).map(|p| i32::from(a[i * k + p]) * i32::from(b[j * k + p])).sum();
            }
        }
        for bk in [SimdBackend::Scalar, SimdBackend::Avx2] {
            let mut out = vec![0i32; m * n];
            qgemm_i8t_with(bk, &mut out, &a, &b, m, k, n);
            assert_eq!(out, want, "bk={bk:?}");
        }
    }
}

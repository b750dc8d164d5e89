//! The x86-64 vector types: [`F32x8`] (AVX2 + FMA), which implements
//! [`SimdF32`], and [`F32x16`] (AVX-512F), which implements only the
//! register tile's [`TileLanes`].
//!
//! A thin `#[repr(transparent)]` wrapper over the architectural register
//! type with `#[inline(always)]` methods, so when a generic kernel from
//! [`super::kernels`] is instantiated inside a
//! `#[target_feature]`-annotated dispatcher the whole call tree collapses
//! into straight-line vector code.
//!
//! # Safety
//!
//! Every method lowers to `core::arch::x86_64` intrinsics that need AVX2
//! and FMA (and AVX-512F for [`F32x16`]), so each type must only be
//! instantiated after [`super::cpu_supports`](super::cpu_supports) has
//! confirmed its backend (the dispatchers in [`super::kernels`] are the
//! single place that does this).

use core::arch::x86_64::*;

use super::vec::{SimdF32, TileLanes};

/// Eight `f32` lanes in a `ymm` register (AVX2 + FMA).
#[derive(Copy, Clone)]
#[repr(transparent)]
pub(super) struct F32x8(__m256);

impl TileLanes for F32x8 {
    const LANES: usize = 8;
    const FUSED: bool = true;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x8(_mm256_set1_ps(v))
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= 8);
        F32x8(_mm256_loadu_ps(src.as_ptr()))
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= 8);
        _mm256_storeu_ps(dst.as_mut_ptr(), self.0)
    }
    #[inline(always)]
    unsafe fn mul_add_fast(self, b: Self, acc: Self) -> Self {
        // Fused: a·b+acc in a single rounding. The one place the AVX2
        // backend's bits diverge from the scalar oracle.
        F32x8(_mm256_fmadd_ps(self.0, b.0, acc.0))
    }
}

impl SimdF32 for F32x8 {
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        F32x8(_mm256_add_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        F32x8(_mm256_sub_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        F32x8(_mm256_mul_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        F32x8(_mm256_min_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        F32x8(_mm256_max_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn and_bits(self, o: Self) -> Self {
        F32x8(_mm256_and_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn or_bits(self, o: Self) -> Self {
        F32x8(_mm256_or_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn andnot_bits(self, o: Self) -> Self {
        F32x8(_mm256_andnot_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn is_nan(self) -> Self {
        F32x8(_mm256_cmp_ps::<_CMP_UNORD_Q>(self.0, self.0))
    }
    #[inline(always)]
    unsafe fn exp2_scale(self) -> Self {
        let n = _mm256_sub_epi32(_mm256_castps_si256(self.0), _mm256_set1_epi32(0x4B40_0000));
        F32x8(_mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        ))))
    }
    #[inline(always)]
    unsafe fn hsum(self) -> f32 {
        // Halves first (s_i = q_i + q_{i+4}), then (s0+s2) + (s1+s3) — the
        // same canonical pairing tree the scalar reduction folds.
        let s = _mm_add_ps(_mm256_castps256_ps128(self.0), _mm256_extractf128_ps::<1>(self.0));
        let hi = _mm_movehl_ps(s, s); // [s2, s3, s2, s3]
        let t = _mm_add_ps(s, hi); // [s0+s2, s1+s3, ..]
        let t1 = _mm_shuffle_ps::<0b01>(t, t); // lane0 = s1+s3
        _mm_cvtss_f32(_mm_add_ss(t, t1))
    }
}

/// Sixteen `f32` lanes in a `zmm` register (AVX-512F). Only the register
/// tile runs it; its multiply-add rounds like [`F32x8`]'s, once per term.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub(super) struct F32x16(__m512);

impl TileLanes for F32x16 {
    const LANES: usize = 16;
    const FUSED: bool = true;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x16(_mm512_set1_ps(v))
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(src.len() >= 16);
        F32x16(_mm512_loadu_ps(src.as_ptr()))
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(dst.len() >= 16);
        _mm512_storeu_ps(dst.as_mut_ptr(), self.0)
    }
    #[inline(always)]
    unsafe fn mul_add_fast(self, b: Self, acc: Self) -> Self {
        F32x16(_mm512_fmadd_ps(self.0, b.0, acc.0))
    }
}

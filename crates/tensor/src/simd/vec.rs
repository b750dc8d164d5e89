//! The lane abstraction shared by every SIMD backend.
//!
//! [`SimdF32`] is a minimal portable-vector trait: just enough single-
//! rounding IEEE-754 operations, bit manipulation, and lane plumbing to
//! express the kernels in [`super::kernels`] once, generically, and have
//! each backend (scalar / AVX2+FMA) instantiate them with its own
//! register type. Its supertrait [`TileLanes`] is the part the register
//! tile uses, and the only part the AVX-512 type implements.
//! [`ScalarVec`] is the 1-lane instantiation: it mirrors the x86
//! instruction semantics (`minps`/`maxps` operand ordering on NaN,
//! full-width compare masks, bitwise selects) exactly, so a generic kernel
//! run with `ScalarVec` is the *oracle* — bit-for-bit the reference the
//! vector backends are tested against.
//!
//! Every method is `unsafe fn`: the x86 implementations lower to
//! `core::arch` intrinsics that are only defined when the matching CPU
//! feature is present. The safety contract is uniform — *the caller must
//! only instantiate a backend's vector type when
//! [`super::cpu_supports`](super::cpu_supports) reports the backend
//! available* — and is discharged once, in the dispatchers of
//! [`super::kernels`], which select a vector type strictly according to the
//! resolved [`super::SimdBackend`].

/// The lane operations of the register tile [`super::gemm_tile`]: a
/// vector of `LANES` packed `f32` values with loads, stores, a broadcast
/// and the multiply-add. [`SimdF32`] adds what the other kernels need; the
/// 512-bit type, which only the tile runs, implements just this trait.
pub(super) trait TileLanes: Copy {
    /// Number of `f32` lanes.
    const LANES: usize;
    /// Whether [`mul_add_fast`](TileLanes::mul_add_fast) fuses (single
    /// rounding). Scalar tails of fused kernels consult this to match the
    /// vector body bit-for-bit via [`scalar_madd`].
    const FUSED: bool;

    /// Broadcasts `v` to every lane.
    unsafe fn splat(v: f32) -> Self;
    /// Loads `LANES` consecutive values from the front of `src`
    /// (unaligned). `src.len() >= LANES` required.
    unsafe fn load(src: &[f32]) -> Self;
    /// Stores `LANES` consecutive values to the front of `dst`
    /// (unaligned). `dst.len() >= LANES` required.
    unsafe fn store(self, dst: &mut [f32]);
    /// All lanes `+0.0`.
    unsafe fn zero() -> Self {
        Self::splat(0.0)
    }
    /// Lane-wise `self * b + acc`; fused iff [`FUSED`](TileLanes::FUSED).
    unsafe fn mul_add_fast(self, b: Self, acc: Self) -> Self;
}

/// A vector of packed `f32` values with the element-wise operations of
/// every kernel but the tile.
///
/// Semantic fine print (all mirrored exactly by [`ScalarVec`]):
///
/// * [`min`](SimdF32::min) / [`max`](SimdF32::max) follow `minps`/`maxps`:
///   `a.min(b)` is `if a < b { a } else { b }` per lane, so a NaN in `a`
///   yields `b` (and a NaN in `b` yields `b`). This asymmetry is what the
///   `exp` kernel relies on for NaN handling.
/// * [`is_nan`](SimdF32::is_nan) produces a full-width mask (all-ones or
///   all-zeros per lane) suitable for [`select`](SimdF32::select), which is
///   a pure bitwise blend.
/// * [`mul_add_fast`](TileLanes::mul_add_fast) is the *only* operation
///   whose rounding differs between backends: fused (single rounding) when
///   [`FUSED`](TileLanes::FUSED) is `true` (AVX2+FMA), an ordinary
///   multiply-then-add otherwise. Kernels that promise cross-backend
///   bitwise identity must not use it.
pub(super) trait SimdF32: TileLanes {
    /// Lane-wise `self + o` (single rounding).
    unsafe fn add(self, o: Self) -> Self;
    /// Lane-wise `self - o` (single rounding).
    unsafe fn sub(self, o: Self) -> Self;
    /// Lane-wise `self * o` (single rounding).
    unsafe fn mul(self, o: Self) -> Self;
    /// Lane-wise `minps` semantics: `if self < o { self } else { o }`.
    unsafe fn min(self, o: Self) -> Self;
    /// Lane-wise `maxps` semantics: `if self > o { self } else { o }`.
    unsafe fn max(self, o: Self) -> Self;

    /// Lane-wise bitwise AND.
    unsafe fn and_bits(self, o: Self) -> Self;
    /// Lane-wise bitwise OR.
    unsafe fn or_bits(self, o: Self) -> Self;
    /// Lane-wise `(!self) & o` (`andnps` semantics).
    unsafe fn andnot_bits(self, o: Self) -> Self;
    /// Full-width mask of lanes that are NaN (`cmpunord(self, self)`).
    unsafe fn is_nan(self) -> Self;
    /// Bitwise blend: lanes of `a` where `mask` is all-ones, else `b`.
    /// Masks must be full-width (from [`is_nan`](SimdF32::is_nan)).
    unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
        mask.and_bits(a).or_bits(mask.andnot_bits(b))
    }

    /// Given `t = 2²³·1.5 + n` (the round-to-nearest-even magic form, `n`
    /// an integer in `[-126, 127]`), returns `2ⁿ` per lane by integer bit
    /// manipulation of the exponent field. The core scaling step of
    /// [`super::kernels::exp_v`].
    unsafe fn exp2_scale(self) -> Self;

    /// Horizontal sum with the *canonical pairing tree* of the striped
    /// reductions (see [`super::kernels`]): for 8 lanes `[q0..q7]` the
    /// 128-bit halves are added first (`s_i = q_i + q_{i+4}`), then the
    /// result is `(s0+s2) + (s1+s3)`. Single-lane vectors return their
    /// value. Both backends reduce 8 stripes through the identical tree,
    /// which is what makes [`super::reduce_sum_sq`] bitwise
    /// backend-invariant.
    unsafe fn hsum(self) -> f32;
}

/// The 1-lane oracle backend: plain `f32` arithmetic with the exact x86
/// vector-instruction semantics (see [`SimdF32`]).
#[derive(Copy, Clone, Debug)]
pub(super) struct ScalarVec(pub f32);

/// All-ones / all-zeros scalar masks, as bit patterns.
const MASK_TRUE: u32 = u32::MAX;

impl TileLanes for ScalarVec {
    const LANES: usize = 1;
    const FUSED: bool = false;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        ScalarVec(v)
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        debug_assert!(!src.is_empty());
        ScalarVec(src[0])
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32]) {
        debug_assert!(!dst.is_empty());
        dst[0] = self.0;
    }
    #[inline(always)]
    unsafe fn mul_add_fast(self, b: Self, acc: Self) -> Self {
        ScalarVec(self.0 * b.0 + acc.0)
    }
}

impl SimdF32 for ScalarVec {
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        ScalarVec(self.0 + o.0)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        ScalarVec(self.0 - o.0)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        ScalarVec(self.0 * o.0)
    }
    #[inline(always)]
    unsafe fn min(self, o: Self) -> Self {
        // `minps` semantics, NOT `f32::min`: NaN in either operand → o.
        if self.0 < o.0 {
            self
        } else {
            o
        }
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        if self.0 > o.0 {
            self
        } else {
            o
        }
    }
    #[inline(always)]
    unsafe fn and_bits(self, o: Self) -> Self {
        ScalarVec(f32::from_bits(self.0.to_bits() & o.0.to_bits()))
    }
    #[inline(always)]
    unsafe fn or_bits(self, o: Self) -> Self {
        ScalarVec(f32::from_bits(self.0.to_bits() | o.0.to_bits()))
    }
    #[inline(always)]
    unsafe fn andnot_bits(self, o: Self) -> Self {
        ScalarVec(f32::from_bits(!self.0.to_bits() & o.0.to_bits()))
    }
    #[inline(always)]
    unsafe fn is_nan(self) -> Self {
        ScalarVec(f32::from_bits(if self.0.is_nan() { MASK_TRUE } else { 0 }))
    }
    #[inline(always)]
    unsafe fn exp2_scale(self) -> Self {
        // t.bits = 0x4B40_0000 + n for t = 1.5·2²³ + n, |n| ≤ 2²². Shift
        // the biased exponent `n + 127` into place.
        let n = (self.0.to_bits() as i32).wrapping_sub(0x4B40_0000);
        ScalarVec(f32::from_bits(((n + 127) as u32) << 23))
    }
    #[inline(always)]
    unsafe fn hsum(self) -> f32 {
        self.0
    }
}

/// `a * b + acc` with the rounding of `V::mul_add_fast`: the scalar-tail
/// companion that keeps remainder lanes bit-identical to the vector body.
#[inline(always)]
pub(super) fn scalar_madd<V: TileLanes>(a: f32, b: f32, acc: f32) -> f32 {
    if V::FUSED {
        a.mul_add(b, acc)
    } else {
        a * b + acc
    }
}

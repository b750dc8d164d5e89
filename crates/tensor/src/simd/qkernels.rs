//! The quantized integer kernel: the register tile [`qgemm_tile`] over
//! i16 pairs, accumulating in i32.
//!
//! This is the arithmetic core of the int8 inference path. Each `i32` of
//! both operands holds two sign-extended i16 values (an i8 code pair, low
//! half first), and one reduction step multiplies the pairs lane by lane
//! and adds both products to the accumulator — one `vpmaddwd` and one
//! `vpaddd` on AVX2 and AVX-512. Unlike the f32 kernels, every
//! instantiation here accumulates in **exact integer arithmetic**:
//! two's-complement i32 addition is associative, so the lane width, the
//! tiling and the loop order cannot change the result. All backends are
//! therefore **bitwise identical for every input and every shape**,
//! remainder lanes included: a fourth, strongest determinism class (see
//! `docs/NUMERICS.md`, "Quantized inference").
//!
//! The kernel is written once, generically over [`QLanes`], and
//! instantiated three times: with [`ScalarI32`], the oracle, with `I32x8`
//! (AVX2) and with `I32x16` (AVX-512BW). The widening multiply-add on
//! sign-extended i16 (`madd`) is chosen over `maddubs` deliberately: `maddubs` is u8×i8 and saturates
//! its i16 pair-sum, which would make the kernel value-dependent, while
//! `madd` products of i8 codes are ≤ 2·128·128 and can never saturate.
//!
//! Overflow contract: the caller keeps the reduction at `k ≤ 2^16` i8
//! products (≈ 65k terms), which bounds `|Σ aᵢ·bᵢ| ≤ k · 128·128 ≤ 2^30`.
//! Every shape the workspace produces (`k = cin·kernel` or `k = fc_in`)
//! is orders of magnitude below that;
//! [`QuantizedMatrix`](crate::qint::QuantizedMatrix) enforces it.

use super::kernels::{dispatch_kernel, Tile};
use super::SimdBackend;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Largest supported reduction length in i8 products (see the overflow
/// contract above).
pub const QDOT_MAX_K: usize = 1 << 16;

/// Output rows one [`qgemm_tile`] register block covers: six rows of four
/// `zmm` vectors are 24 accumulators, which leaves the 32 AVX-512
/// registers room for the four `b` vectors and one broadcast (on AVX2, six
/// rows of two `ymm` vectors take 12 of 16).
const QTILE_ROWS: usize = 6;

/// One `i16` pair per `i32`: `lo` in the low half, `hi` in the high half,
/// both sign-extended — the operand format of [`qgemm_tile`].
#[inline(always)]
pub fn i16_pair(lo: i8, hi: i8) -> i32 {
    (i32::from(hi) << 16) | i32::from(i16::from(lo) as u16)
}

/// `lo(a)·lo(b) + hi(a)·hi(b)` over the i16 halves of two pairs, wrapping
/// like `vpmaddwd` (which only `(−2^15)²·2` could make wrap).
#[inline(always)]
fn madd_pairs(a: i32, b: i32) -> i32 {
    let lo = i32::from(a as i16) * i32::from(b as i16);
    lo.wrapping_add((a >> 16) * (b >> 16))
}

/// A vector of `LANES` i32 accumulators or i16 pairs.
///
/// Only [`load`](QLanes::load) carries the backend's precondition: a
/// value of a vector type exists only once a load has run, so the methods
/// on a value may assume the CPU runs that backend.
trait QLanes: Copy {
    /// Number of `i32` lanes.
    const LANES: usize;
    /// Loads `LANES` consecutive values from the front of `src`.
    ///
    /// # Safety
    /// `src` must hold `LANES` values, and the CPU must run the backend
    /// of `Self`.
    unsafe fn load(src: &[i32]) -> Self;
    /// `self + madd(a, b)` lane by lane, with the pair `a` broadcast.
    fn madd(self, a: i32, b: Self) -> Self;
    /// Stores the lanes to the front of `dst` (panics if it is shorter).
    fn store(self, dst: &mut [i32]);
}

/// The one-lane oracle: plain `i32` arithmetic.
#[derive(Clone, Copy)]
struct ScalarI32(i32);

impl QLanes for ScalarI32 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn load(src: &[i32]) -> Self {
        ScalarI32(src[0])
    }
    #[inline(always)]
    fn madd(self, a: i32, b: Self) -> Self {
        ScalarI32(self.0.wrapping_add(madd_pairs(a, b.0)))
    }
    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        dst[0] = self.0;
    }
}

/// Eight `i32` lanes in a `ymm` register (AVX2).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct I32x8(__m256i);

#[cfg(target_arch = "x86_64")]
impl QLanes for I32x8 {
    const LANES: usize = 8;
    #[inline(always)]
    unsafe fn load(src: &[i32]) -> Self {
        debug_assert!(src.len() >= 8);
        I32x8(_mm256_loadu_si256(src.as_ptr().cast()))
    }
    #[inline(always)]
    fn madd(self, a: i32, b: Self) -> Self {
        // SAFETY: `self` came from `load`, whose caller confirmed AVX2.
        unsafe { I32x8(_mm256_add_epi32(self.0, _mm256_madd_epi16(_mm256_set1_epi32(a), b.0))) }
    }
    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        let dst = &mut dst[..8];
        // SAFETY: as in `madd`; `dst` holds the eight lanes.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0) }
    }
}

/// Sixteen `i32` lanes in a `zmm` register (AVX-512BW).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct I32x16(__m512i);

#[cfg(target_arch = "x86_64")]
impl QLanes for I32x16 {
    const LANES: usize = 16;
    #[inline(always)]
    unsafe fn load(src: &[i32]) -> Self {
        debug_assert!(src.len() >= 16);
        I32x16(_mm512_loadu_si512(src.as_ptr().cast()))
    }
    #[inline(always)]
    fn madd(self, a: i32, b: Self) -> Self {
        // SAFETY: `self` came from `load`, whose caller confirmed AVX-512BW.
        unsafe { I32x16(_mm512_add_epi32(self.0, _mm512_madd_epi16(_mm512_set1_epi32(a), b.0))) }
    }
    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        let dst = &mut dst[..16];
        // SAFETY: as in `madd`; `dst` holds the sixteen lanes.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), self.0) }
    }
}

#[cfg(not(target_arch = "x86_64"))]
type I32x8 = ScalarI32;

/// The integer register tile (see [`Tile`] for the operand layout, read
/// in `i32` elements): rows in blocks of up to [`QTILE_ROWS`], each block
/// over every column with its accumulators in registers for the whole
/// reduction. The columns go in tiles of `NV` vectors, then one tile of
/// the whole vectors left, then single lanes. Integer sums are exact, so
/// the width a column is computed at cannot show.
#[inline(always)]
unsafe fn qgemm_tile_g<V: QLanes, const NV: usize>(c: &mut [i32], a: &[i32], b: &[i32], t: &Tile) {
    if t.rows == 0 || t.n == 0 || t.k == 0 {
        return;
    }
    // Past this check `qtile_block` indexes `a` and `b` unchecked.
    t.check(c.len(), a.len(), b.len());
    let mut r0 = 0;
    while r0 < t.rows {
        let rows = (t.rows - r0).min(QTILE_ROWS);
        let (c, a) = (&mut c[r0 * t.ldc..], &a[r0 * t.lda..]);
        match rows {
            6 => qtile_rows::<V, NV, 6>(c, a, b, t),
            5 => qtile_rows::<V, NV, 5>(c, a, b, t),
            4 => qtile_rows::<V, NV, 4>(c, a, b, t),
            3 => qtile_rows::<V, NV, 3>(c, a, b, t),
            2 => qtile_rows::<V, NV, 2>(c, a, b, t),
            _ => qtile_rows::<V, NV, 1>(c, a, b, t),
        }
        r0 += rows;
    }
}

/// One block of `R` rows of [`qgemm_tile`], all `n` columns.
///
/// # Safety
/// `t` restricted to the block's `R` rows must pass [`Tile::check`] for
/// `c`, `a` and `b`, and the CPU must run the backend of `V`.
#[inline(always)]
unsafe fn qtile_rows<V: QLanes, const NV: usize, const R: usize>(
    c: &mut [i32],
    a: &[i32],
    b: &[i32],
    t: &Tile,
) {
    let w = V::LANES;
    let mut j0 = 0;
    while j0 + NV * w <= t.n {
        qtile_block::<V, NV, R>(c, a, b, t, j0);
        j0 += NV * w;
    }
    let left = (t.n - j0) / w;
    match left {
        0 => {}
        1 => qtile_block::<V, 1, R>(c, a, b, t, j0),
        2 => qtile_block::<V, 2, R>(c, a, b, t, j0),
        _ => qtile_block::<V, 3, R>(c, a, b, t, j0),
    }
    j0 += left * w;
    while j0 < t.n {
        qtile_block::<ScalarI32, 1, R>(c, a, b, t, j0);
        j0 += 1;
    }
}

/// `R` rows × `NV` vectors of [`qgemm_tile`] starting at column `j0`.
///
/// The per-step loops index instead of iterating, as in the f32 tile:
/// iterator adaptors cost several times more in unoptimized builds.
///
/// # Safety
/// As [`qtile_rows`], and `j0 + NV·LANES ≤ n`.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn qtile_block<V: QLanes, const NV: usize, const R: usize>(
    c: &mut [i32],
    a: &[i32],
    b: &[i32],
    t: &Tile,
    j0: usize,
) {
    // Seeded from `c`, which the tile adds to (the first load only
    // fills the array).
    let mut acc = [[V::load(&c[j0..]); NV]; R];
    for r in 0..R {
        for v in 0..NV {
            acc[r][v] = V::load(&c[r * t.ldc + j0 + v * V::LANES..]);
        }
    }
    let (mut p, mut run) = (0, 0);
    for _ in 0..t.k / t.b_run {
        let mut bp = run + j0;
        for _ in 0..t.b_run {
            // SAFETY: `Tile::check` bounds every `r·lda + p` in `a` and
            // every `off(p) + t` (`t < n`) in `b`; here `t` runs
            // `j0 .. j0 + NV·LANES ≤ n`.
            let mut bv = [acc[0][0]; NV];
            for v in 0..NV {
                bv[v] = V::load(b.get_unchecked(bp + v * V::LANES..));
            }
            for r in 0..R {
                let w = *a.get_unchecked(r * t.lda + p);
                for v in 0..NV {
                    acc[r][v] = acc[r][v].madd(w, bv[v]);
                }
            }
            p += 1;
            bp += t.b_step;
        }
        run += t.b_jump;
    }
    for r in 0..R {
        for v in 0..NV {
            acc[r][v].store(&mut c[r * t.ldc + j0 + v * V::LANES..]);
        }
    }
}

dispatch_kernel!(
    /// The integer register tile: `c += a · b` over i16 pairs, with the
    /// strided rows and offset-addressed `b` rows of [`Tile`], counted in
    /// `i32` elements. Each step `p` adds `lo·lo + hi·hi` of the pairs
    /// `a[r·lda + p]` and `b[off(p) + t]` to `c[r·ldc + t]` in i32
    /// ([`i16_pair`] builds the pairs). **Bitwise identical on every
    /// backend**; the reduction must stay within [`QDOT_MAX_K`] i8
    /// products. AVX2 runs blocks of 6 rows × 2 `ymm` vectors, AVX-512
    /// blocks of 6 rows × up to 4 `zmm` vectors.
    qgemm_tile / qgemm_tile_with(c: &mut [i32], a: &[i32], b: &[i32], t: &Tile),
    avx2: qgemm_tile_g::<I32x8, 2>, avx512: qgemm_tile_g::<I32x16, 4>,
    scalar: qgemm_tile_g::<ScalarI32, 1>
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_multiply_and_add_both_halves() {
        for (lo_a, hi_a, lo_b, hi_b) in
            [(3i8, -4i8, 5i8, 7i8), (-128, -128, -128, -128), (127, 0, -1, 9)]
        {
            let want = i32::from(lo_a) * i32::from(lo_b) + i32::from(hi_a) * i32::from(hi_b);
            assert_eq!(madd_pairs(i16_pair(lo_a, hi_a), i16_pair(lo_b, hi_b)), want);
        }
    }

    #[test]
    fn qgemm_small_shape_all_backends() {
        // 7 rows (a 6-row block and a 1-row block) over 19 columns (one
        // 16-wide block and a 3-column lane tail), 2 runs of 3 steps.
        let t = Tile { rows: 7, k: 6, n: 19, ldc: 19, lda: 6, b_step: 2, b_run: 3, b_jump: 25 };
        let code = |i: usize| ((i * 37 + 11) % 255) as u8 as i8;
        let a: Vec<i32> = (0..7 * 6).map(|i| i16_pair(code(i), code(i + 100))).collect();
        let b: Vec<i32> = (0..50).map(|i| i16_pair(code(i + 7), code(i + 8))).collect();
        let mut want = vec![0i32; 7 * 19];
        for r in 0..7 {
            for j in 0..19 {
                for p in 0..6 {
                    let off = (p / 3) * 25 + (p % 3) * 2;
                    want[r * 19 + j] += madd_pairs(a[r * 6 + p], b[off + j]);
                }
            }
        }
        for bk in [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512] {
            let mut c = vec![0i32; 7 * 19];
            qgemm_tile_with(bk, &mut c, &a, &b, &t);
            assert_eq!(c, want, "bk={bk:?}");
        }
    }
}

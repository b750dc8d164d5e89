//! Generic kernel bodies and the per-backend dispatchers.
//!
//! Every kernel is written once, generically over [`SimdF32`], then
//! instantiated by the `dispatch_kernel!` macro:
//!
//! * **scalar** — [`ScalarVec`], plain `f32` arithmetic, no `unsafe`
//!   preconditions. This instantiation *is* the oracle the vector
//!   backend is tested against (`tests/simd_equivalence.rs`).
//! * **avx2** — [`F32x8`], guarded by runtime detection, wrapped in
//!   `#[target_feature(enable = "avx2,fma")]` so the `#[inline(always)]`
//!   generic body compiles with the vector ISA enabled.
//! * **avx512** — only the register tile [`gemm_tile`] (and the integer
//!   tile in `qkernels`) has one: [`F32x16`] behind
//!   `avx512f,avx512bw,avx2,fma`. Every other kernel runs its avx2
//!   instantiation under [`SimdBackend::Avx512`], and the tile keeps each
//!   element's chain, so Avx512 gives Avx2's bits on every kernel.
//!
//! Determinism contract (see `docs/NUMERICS.md` for the full statement):
//!
//! * Element-wise kernels ([`add_assign`], [`sub_assign`], [`mul_assign`],
//!   [`scale`], [`sub_scalar`], [`axpy`], [`relu`]) and the exponentials
//!   ([`vec_exp`], [`sum_exp`]) perform the identical single-rounding
//!   operation sequence per element on every backend ⇒ **bitwise
//!   backend-invariant**.
//! * The striped reduction [`reduce_sum_sq`] accumulates into 8 fixed
//!   stripes combined by one canonical pairing tree ⇒ **bitwise
//!   backend-invariant**, though *not* equal to a plain left-to-right sum
//!   (for `n < 8` the stripe tree degenerates to exactly left-to-right).
//! * The one f32 GEMM kernel, [`gemm_tile`] (under every conv pass and
//!   every `Tensor::matmul`), uses [`TileLanes::mul_add_fast`]: the scalar
//!   oracle multiplies then adds; AVX2 and AVX-512 fuse multiply-add (one
//!   rounding instead of two) and therefore produce different — but
//!   equally deterministic, and on both fused backends the same — bits.

use super::vec::{scalar_madd, ScalarVec, SimdF32, TileLanes};
#[cfg(target_arch = "x86_64")]
use super::x86::{F32x16, F32x8};
use super::SimdBackend;

/// Stripe count of the canonical striped reduction. Eight stripes is one
/// AVX2 register or eight scalar accumulators — both backends walk the
/// same stripes and fold them with the same pairing tree
/// ([`SimdF32::hsum`]), so the reduced value is backend-invariant.
pub(crate) const REDUCE_STRIPES: usize = 8;

// ---------------------------------------------------------------------------
// Element-wise kernels (exact single-rounding ops ⇒ backend-invariant bits)
// ---------------------------------------------------------------------------

macro_rules! elementwise_binary {
    ($name:ident, |$x:ident, $y:ident| $vec:expr, |$a:ident, $b:ident| $scl:expr) => {
        #[inline(always)]
        unsafe fn $name<V: SimdF32>(out: &mut [f32], rhs: &[f32]) {
            debug_assert_eq!(out.len(), rhs.len());
            let n = out.len();
            let mut i = 0;
            while i + V::LANES <= n {
                let $x = V::load(&out[i..]);
                let $y = V::load(&rhs[i..]);
                ($vec).store(&mut out[i..]);
                i += V::LANES;
            }
            while i < n {
                let $a = out[i];
                let $b = rhs[i];
                out[i] = $scl;
                i += 1;
            }
        }
    };
}

elementwise_binary!(add_assign_g, |x, y| x.add(y), |a, b| a + b);
elementwise_binary!(sub_assign_g, |x, y| x.sub(y), |a, b| a - b);
elementwise_binary!(mul_assign_g, |x, y| x.mul(y), |a, b| a * b);

#[inline(always)]
unsafe fn scale_g<V: SimdF32>(out: &mut [f32], s: f32) {
    let n = out.len();
    let vs = V::splat(s);
    let mut i = 0;
    while i + V::LANES <= n {
        V::load(&out[i..]).mul(vs).store(&mut out[i..]);
        i += V::LANES;
    }
    while i < n {
        out[i] *= s;
        i += 1;
    }
}

#[inline(always)]
unsafe fn sub_scalar_g<V: SimdF32>(out: &mut [f32], s: f32) {
    let n = out.len();
    let vs = V::splat(s);
    let mut i = 0;
    while i + V::LANES <= n {
        V::load(&out[i..]).sub(vs).store(&mut out[i..]);
        i += V::LANES;
    }
    while i < n {
        out[i] -= s;
        i += 1;
    }
}

/// `out += rhs · s`, **unfused** on every backend (multiply then add, two
/// roundings) — the optimizer/accumulator axpy, backend-invariant bits.
#[inline(always)]
unsafe fn axpy_g<V: SimdF32>(out: &mut [f32], rhs: &[f32], s: f32) {
    debug_assert_eq!(out.len(), rhs.len());
    let n = out.len();
    let vs = V::splat(s);
    let mut i = 0;
    while i + V::LANES <= n {
        V::load(&out[i..]).add(V::load(&rhs[i..]).mul(vs)).store(&mut out[i..]);
        i += V::LANES;
    }
    while i < n {
        out[i] += rhs[i] * s;
        i += 1;
    }
}

/// `max(x, +0.0)` with `maxps` operand order: NaN and `-0.0` both map to
/// `+0.0`, matching the historical `f32::max(x, 0.0)` bit-for-bit.
#[inline(always)]
unsafe fn relu_g<V: SimdF32>(out: &mut [f32]) {
    let n = out.len();
    let z = V::zero();
    let mut i = 0;
    while i + V::LANES <= n {
        V::load(&out[i..]).max(z).store(&mut out[i..]);
        i += V::LANES;
    }
    while i < n {
        let x = out[i];
        out[i] = if x > 0.0 { x } else { 0.0 };
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Exponential (fixed polynomial algorithm ⇒ backend-invariant bits)
// ---------------------------------------------------------------------------

/// Input clamp range of [`exp_v`]. The lower bound keeps `2ⁿ` normal
/// (`n ≥ -126`); the upper bound keeps `n ≤ 127`, so the kernel *saturates*
/// at `exp(88.02) ≈ 1.68e38` instead of overflowing to `+inf` (softmax only
/// ever feeds it non-positive inputs).
const EXP_LO: f32 = -87.336_54;
/// See [`EXP_LO`].
const EXP_HI: f32 = 88.02;
/// `1.5 · 2²³`: adding it rounds `x·log2(e)` to the nearest integer
/// (ties-to-even) in the low mantissa bits.
const EXP_MAGIC: f32 = 12_582_912.0;
/// High part of `ln 2`: 355/512, exact in `f32`.
const LN2_HI: f32 = f32::from_bits(0x3F31_8000);
/// Low part: `LN2_HI + LN2_LO = ln 2` to extended precision.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Degree-5 minimax polynomial for `exp(r) - 1 - r` on `|r| ≤ ln2/2`
/// (Cephes `expf` coefficients), applied Horner-style, highest first.
const EXP_P: [f32; 6] =
    [1.987_569_2e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 5.000_000_3e-1];

/// One vector of `exp(x)`: range reduction `x = n·ln2 + r`, polynomial on
/// `r`, exponent scaling by integer bit manipulation. Every step is a
/// single-rounding op (no FMA), so all backends produce identical bits.
/// NaN lanes pass through unchanged; out-of-range lanes saturate (see
/// [`EXP_LO`]).
#[inline(always)]
unsafe fn exp_v<V: SimdF32>(x: V) -> V {
    let nan = x.is_nan();
    // maxps(x, LO): NaN lanes become LO here and are blended back at the end.
    let xc = x.max(V::splat(EXP_LO)).min(V::splat(EXP_HI));
    // n = round_to_nearest_even(x / ln2) via the magic-number trick; `t`
    // keeps the integer in its low mantissa bits for `exp2_scale`.
    let t = xc.mul(V::splat(std::f32::consts::LOG2_E)).add(V::splat(EXP_MAGIC));
    let n = t.sub(V::splat(EXP_MAGIC));
    let pow2n = t.exp2_scale();
    // r = x - n·ln2 in two pieces, keeping r exact to ~f64 precision.
    let r = xc.sub(n.mul(V::splat(LN2_HI))).sub(n.mul(V::splat(LN2_LO)));
    let mut y = V::splat(EXP_P[0]);
    y = y.mul(r).add(V::splat(EXP_P[1]));
    y = y.mul(r).add(V::splat(EXP_P[2]));
    y = y.mul(r).add(V::splat(EXP_P[3]));
    y = y.mul(r).add(V::splat(EXP_P[4]));
    y = y.mul(r).add(V::splat(EXP_P[5]));
    let z = r.mul(r);
    let e = y.mul(z).add(r).add(V::splat(1.0));
    V::select(nan, x, e.mul(pow2n))
}

/// In-place `exp(x)` through [`exp_v`].
#[inline(always)]
unsafe fn exp_g<V: SimdF32>(out: &mut [f32]) {
    let n = out.len();
    let mut i = 0;
    while i + V::LANES <= n {
        exp_v(V::load(&out[i..])).store(&mut out[i..]);
        i += V::LANES;
    }
    // Remainder lanes run the identical algorithm at width 1.
    while i < n {
        out[i] = exp_v(ScalarVec(out[i])).0;
        i += 1;
    }
}

/// `Σ exp(xᵢ)` accumulated strictly left-to-right (the exponentials come
/// from [`exp_v`], the sum is scalar in index order) — the log-sum-exp
/// inner loop of the softmax family, backend-invariant bits.
#[inline(always)]
unsafe fn sum_exp_g<V: SimdF32>(row: &[f32]) -> f32 {
    let n = row.len();
    let mut s = 0.0f32;
    let mut buf = [0.0f32; 8];
    debug_assert!(V::LANES <= buf.len());
    let mut i = 0;
    while i + V::LANES <= n {
        exp_v(V::load(&row[i..])).store(&mut buf[..V::LANES]);
        for &e in &buf[..V::LANES] {
            s += e;
        }
        i += V::LANES;
    }
    while i < n {
        s += exp_v(ScalarVec(row[i])).0;
        i += 1;
    }
    s
}

// ---------------------------------------------------------------------------
// GEMM micro-kernels (mul_add_fast ⇒ scalar unfused; AVX2 fuses)
// ---------------------------------------------------------------------------

/// Output rows one [`gemm_tile`] register block covers, on every backend.
/// Six rows of four `zmm` vectors are 24 accumulators, which leaves the 32
/// AVX-512 registers room for the four `b` vectors and one broadcast (on
/// AVX2, six rows of two `ymm` vectors take 12 of 16). The rows of a block
/// decide which steps are skipped (see [`gemm_tile`]), so the backends
/// must share this value to share their bits.
const TILE_ROWS: usize = 6;

/// Operand layout of one [`gemm_tile`] call:
///
/// `c[r·ldc + t] += Σ_p a[r·lda + p] · b[off(p) + t]` for `r < rows`,
/// `t < n`, `p < k`, where row `p` of `b` starts at
/// `off(p) = (p / b_run)·b_jump + (p % b_run)·b_step`. Each element is one
/// chain seeded by `c`, `c ← (…((c + a₀b₀) + a₁b₁) + …)`: a zeroed `c`
/// starts it at `+0.0`, and splitting the `k` range over several calls
/// continues one chain through memory.
///
/// The two-level `b` addressing lets a convolution read its unfold
/// straight from a zero-padded copy of the input: rows may overlap
/// (`b_step = 1` walks a sliding window), and a run of `b_run` rows per
/// input channel jumps `b_jump` to the next channel. Rows of `c` must not
/// overlap (`ldc ≥ n`), and `k` must be a multiple of `b_run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Output rows (walked in register blocks of up to six).
    pub rows: usize,
    /// Reduction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Distance between consecutive rows of `c`.
    pub ldc: usize,
    /// Distance between consecutive rows of `a`.
    pub lda: usize,
    /// Distance between consecutive rows of `b` within a run.
    pub b_step: usize,
    /// Rows of `b` per run.
    pub b_run: usize,
    /// Distance between the first rows of consecutive runs of `b`.
    pub b_jump: usize,
}

impl Tile {
    /// Columns of one vector of the tile under `bk`: 16 under
    /// [`SimdBackend::Avx512`], 8 otherwise. A caller that may pad its
    /// column count rounds it up to a multiple of this, so the tile runs
    /// whole vectors.
    pub fn lanes(bk: SimdBackend) -> usize {
        match super::effective(bk) {
            SimdBackend::Avx512 => 16,
            _ => 8,
        }
    }

    /// Panics unless every element a layout with `rows`, `k` and `n` all
    /// non-zero addresses lies inside `c`, `a` and `b` (of these lengths):
    /// the unchecked loads of [`gemm_tile`] and of the integer tile
    /// [`qgemm_tile`](super::qgemm_tile) rely on it.
    pub(super) fn check(&self, c: usize, a: usize, b: usize) {
        assert!(self.k.checked_rem(self.b_run) == Some(0), "gemm_tile: k not a multiple of b_run");
        assert!(self.rows < 2 || self.ldc >= self.n, "gemm_tile: rows of c overlap");
        // One past the last element each operand addresses, overflow-checked.
        let end = |terms: &[(usize, usize)], last: usize| {
            terms.iter().try_fold(last, |acc, &(count, step)| {
                (count - 1).checked_mul(step).and_then(|v| v.checked_add(acc))
            })
        };
        let c_end = end(&[(self.rows, self.ldc)], self.n);
        let a_end = end(&[(self.rows, self.lda)], self.k);
        let b_end = end(&[(self.k / self.b_run, self.b_jump), (self.b_run, self.b_step)], self.n);
        assert!(c_end.is_some_and(|e| e <= c), "gemm_tile: c too short");
        assert!(a_end.is_some_and(|e| e <= a), "gemm_tile: a too short");
        assert!(b_end.is_some_and(|e| e <= b), "gemm_tile: b too short");
    }
}

/// The register-tiled GEMM micro-kernel, the one f32 GEMM kernel: every
/// lowered convolution pass and every dense product
/// ([`crate::linalg::matmul_into`]) run it (see [`Tile`] for the operand
/// layout).
///
/// Rows are taken in blocks of up to [`TILE_ROWS`]; each block walks
/// column tiles of `NV` vectors, then one tile of the whole vectors left,
/// then a scalar tail, keeping its accumulators in registers for the whole
/// `k` reduction.
/// Per output element the terms accumulate `k`-ascending, one
/// [`TileLanes::mul_add_fast`] each, whatever the tiling. A step `p` is
/// skipped when the block's `a` values are all zero; when only some are,
/// each zero adds a `±0.0·b` term. For finite `b` that term leaves every
/// chain value but `−0.0` as it is (`acc + ±0.0 = acc`), and may turn
/// `−0.0` into `+0.0`. A chain seeded with `+0.0` holds `−0.0` only on
/// the fused backends, after a negative product below 2⁻¹⁵⁰ in magnitude
/// rounds to zero with its sign; unfused, that product rounds first and
/// `+0.0 + −0.0 = +0.0`. So for finite operands, how rows group into
/// blocks can flip the sign of an output that is exactly zero, and no
/// other bit. A non-finite `b` value at a step where only some of the
/// block's `a` values are zero gives NaN (`0·∞`).
#[inline(always)]
unsafe fn gemm_tile_g<V: TileLanes, const NV: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    t: &Tile,
) {
    if t.rows == 0 || t.n == 0 || t.k == 0 {
        return;
    }
    // Past this check the loops below index `a` and `b` unchecked.
    t.check(c.len(), a.len(), b.len());
    let mut r0 = 0;
    while r0 < t.rows {
        let rows = (t.rows - r0).min(TILE_ROWS);
        let (c, a) = (&mut c[r0 * t.ldc..], &a[r0 * t.lda..]);
        match rows {
            6 => tile_rows::<V, NV, 6>(c, a, b, t),
            5 => tile_rows::<V, NV, 5>(c, a, b, t),
            4 => tile_rows::<V, NV, 4>(c, a, b, t),
            3 => tile_rows::<V, NV, 3>(c, a, b, t),
            2 => tile_rows::<V, NV, 2>(c, a, b, t),
            _ => tile_rows::<V, NV, 1>(c, a, b, t),
        }
        r0 += rows;
    }
}

/// One block of `R` rows of [`gemm_tile`], all `n` columns.
///
/// # Safety
/// `t` restricted to the block's `R` rows must pass [`Tile::check`] for
/// `c`, `a` and `b`, and `V` must be supported by the CPU.
#[inline(always)]
unsafe fn tile_rows<V: TileLanes, const NV: usize, const R: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    t: &Tile,
) {
    let w = V::LANES;
    let mut j0 = 0;
    while j0 + NV * w <= t.n {
        tile_block::<V, NV, R>(c, a, b, t, j0);
        j0 += NV * w;
    }
    let left = (t.n - j0) / w;
    match left {
        0 => {}
        1 => tile_block::<V, 1, R>(c, a, b, t, j0),
        2 => tile_block::<V, 2, R>(c, a, b, t, j0),
        _ => tile_block::<V, 3, R>(c, a, b, t, j0),
    }
    j0 += left * w;
    while j0 < t.n {
        tile_column::<V, R>(c, a, b, t, j0);
        j0 += 1;
    }
}

/// Whether the `R` values of `a` at reduction step `p` are all `±0.0`, so
/// the step is skipped.
///
/// The test ORs the integer bits, read with volatile loads so the compiler
/// cannot reuse them for the row broadcasts: those then load straight from
/// memory instead of moving each value through the shuffle port, which on
/// AVX2 cost more than the multiply-adds.
///
/// # Safety
/// `(R - 1)·lda + p` must be in bounds of `a` ([`Tile::check`]).
#[inline(always)]
unsafe fn tile_step_is_zero<const R: usize>(a: &[f32], lda: usize, p: usize) -> bool {
    let mut bits = 0u32;
    for r in 0..R {
        // SAFETY: in bounds by the caller's contract; `u32` has the size
        // and alignment of `f32`.
        bits |= std::ptr::read_volatile(a.as_ptr().add(r * lda + p).cast::<u32>());
    }
    bits << 1 == 0
}

/// `R` rows × `NV` vectors of [`gemm_tile`] starting at column `j0`.
///
/// The per-step loops index instead of iterating: iterator adaptors
/// doubled this kernel's cost in unoptimized builds, which the test suite
/// runs on, and compile to the same code when optimized.
///
/// # Safety
/// As [`tile_rows`], and `j0 + NV·LANES ≤ n`.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn tile_block<V: TileLanes, const NV: usize, const R: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    t: &Tile,
    j0: usize,
) {
    let mut acc = [[V::zero(); NV]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        for (v, acc_rv) in acc_r.iter_mut().enumerate() {
            *acc_rv = V::load(&c[r * t.ldc + j0 + v * V::LANES..]);
        }
    }
    let (mut p, mut run) = (0, 0);
    for _ in 0..t.k / t.b_run {
        let mut bp = run + j0;
        for _ in 0..t.b_run {
            // SAFETY: `Tile::check` bounds every `r·lda + p` in `a` and
            // every `off(p) + t` (`t < n`) in `b`; here `t` runs
            // `j0 .. j0 + NV·LANES ≤ n`.
            if !tile_step_is_zero::<R>(a, t.lda, p) {
                let mut bv = [V::zero(); NV];
                for v in 0..NV {
                    bv[v] = V::load(b.get_unchecked(bp + v * V::LANES..));
                }
                for r in 0..R {
                    let s = V::splat(*a.get_unchecked(r * t.lda + p));
                    for v in 0..NV {
                        acc[r][v] = s.mul_add_fast(bv[v], acc[r][v]);
                    }
                }
            }
            p += 1;
            bp += t.b_step;
        }
        run += t.b_jump;
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (v, &acc_rv) in acc_r.iter().enumerate() {
            acc_rv.store(&mut c[r * t.ldc + j0 + v * V::LANES..]);
        }
    }
}

/// `R` rows of column `j` of [`gemm_tile`]: the scalar tail, rounding each
/// step like the vector body via [`scalar_madd`].
///
/// # Safety
/// As [`tile_rows`], and `j < n`.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn tile_column<V: TileLanes, const R: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    t: &Tile,
    j: usize,
) {
    let mut acc = [0.0f32; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        *acc_r = c[r * t.ldc + j];
    }
    let (mut p, mut run) = (0, 0);
    for _ in 0..t.k / t.b_run {
        let mut bp = run + j;
        for _ in 0..t.b_run {
            // SAFETY: as in `tile_block`, with `t = j < n`.
            if !tile_step_is_zero::<R>(a, t.lda, p) {
                let bv = *b.get_unchecked(bp);
                for r in 0..R {
                    acc[r] = scalar_madd::<V>(*a.get_unchecked(r * t.lda + p), bv, acc[r]);
                }
            }
            p += 1;
            bp += t.b_step;
        }
        run += t.b_jump;
    }
    for (r, &acc_r) in acc.iter().enumerate() {
        c[r * t.ldc + j] = acc_r;
    }
}

// ---------------------------------------------------------------------------
// Striped reductions (fixed 8-stripe canonical tree ⇒ backend-invariant)
// ---------------------------------------------------------------------------

/// `Σ xᵢ²` accumulated into [`REDUCE_STRIPES`] fixed stripes, held as `NV`
/// vectors of `V::LANES` lanes (`stripe[s] += x[s + 8m]²`), folded by one
/// canonical tree, with the tail (`n mod 8` values) appended strictly
/// left-to-right.
#[inline(always)]
unsafe fn reduce_sum_sq_g<V: SimdF32, const NV: usize>(x: &[f32]) -> f32 {
    debug_assert_eq!(NV * V::LANES, REDUCE_STRIPES);
    let n = x.len();
    let mut acc = [V::zero(); NV];
    let mut i = 0;
    while i + REDUCE_STRIPES <= n {
        for (v, acc_v) in acc.iter_mut().enumerate() {
            let vx = V::load(&x[i + v * V::LANES..]);
            *acc_v = vx.mul(vx).add(*acc_v);
        }
        i += REDUCE_STRIPES;
    }
    // Fold stripe vectors pairwise (s_i = p_i + p_{i+NV/2}·LANES …)
    // down to one vector, then the canonical in-register tree.
    let mut w = NV;
    while w > 1 {
        w /= 2;
        for v in 0..w {
            acc[v] = acc[v].add(acc[v + w]);
        }
    }
    let mut r = acc[0].hsum();
    // For n < 8 the whole reduction degenerates to a plain serial sum (at
    // exactly n = 8 the pairing tree runs).
    for &v in &x[i..] {
        r += v * v;
    }
    r
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

macro_rules! dispatch_kernel {
    ($(#[$doc:meta])* $name:ident / $with:ident ( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)?,
     avx2: $ga:expr, $(avx512: $gz:expr,)? scalar: $gc:expr) => {
        $(#[$doc])*
        ///
        /// The `_with` variant runs under an explicit backend (scalar if
        /// the CPU cannot run it) — the concurrency-safe entry point the
        /// equivalence tests use; the plain variant consults the resolved
        /// process-wide [`SimdBackend`].
        pub fn $with(bk: SimdBackend, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn w_avx2($($arg: $ty),*) $(-> $ret)? {
                ($ga)($($arg),*)
            }
            fn w_scalar($($arg: $ty),*) $(-> $ret)? {
                // SAFETY: ScalarVec has no hardware preconditions.
                unsafe { ($gc)($($arg),*) }
            }
            let bk = super::effective(bk);
            dispatch_kernel!(@avx512 bk, ($($arg: $ty),*) ($($ret)?), $($gz)?);
            match bk {
                // SAFETY: `effective` only yields a vector backend after
                // `cpu_supports` confirmed the features at detection time;
                // Avx512 includes AVX2+FMA, and a kernel without a 512-bit
                // instantiation runs its AVX2 one there.
                #[cfg(target_arch = "x86_64")]
                SimdBackend::Avx2 | SimdBackend::Avx512 => unsafe { w_avx2($($arg),*) },
                _ => w_scalar($($arg),*),
            }
        }

        $(#[$doc])*
        ///
        /// Runs under the process-wide backend (see
        /// [`backend`](super::backend)).
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            $with(super::backend(), $($arg),*)
        }
    };
    // The 512-bit instantiation, for the kernels that have one: runs it
    // and returns when `$bk` is Avx512.
    (@avx512 $bk:ident, ($($arg:ident : $ty:ty),*) ($($ret:ty)?), $gz:expr) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx2", enable = "fma")]
        unsafe fn w_avx512($($arg: $ty),*) $(-> $ret)? {
            ($gz)($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        if $bk == SimdBackend::Avx512 {
            // SAFETY: as for the AVX2 wrapper below.
            return unsafe { w_avx512($($arg),*) };
        }
    };
    (@avx512 $bk:ident, ($($arg:ident : $ty:ty),*) ($($ret:ty)?), ) => {};
}

// Shared with the sibling `qkernels` module, which stamps out the i8
// integer kernels through the same two-backend dispatcher.
pub(crate) use dispatch_kernel;

#[cfg(not(target_arch = "x86_64"))]
type F32x8 = ScalarVec;

dispatch_kernel!(
    /// Element-wise `out += rhs`. Bitwise backend-invariant.
    add_assign / add_assign_with(out: &mut [f32], rhs: &[f32]),
    avx2: add_assign_g::<F32x8>, scalar: add_assign_g::<ScalarVec>
);
dispatch_kernel!(
    /// Element-wise `out -= rhs`. Bitwise backend-invariant.
    sub_assign / sub_assign_with(out: &mut [f32], rhs: &[f32]),
    avx2: sub_assign_g::<F32x8>, scalar: sub_assign_g::<ScalarVec>
);
dispatch_kernel!(
    /// Element-wise `out *= rhs` (Hadamard). Bitwise backend-invariant.
    mul_assign / mul_assign_with(out: &mut [f32], rhs: &[f32]),
    avx2: mul_assign_g::<F32x8>, scalar: mul_assign_g::<ScalarVec>
);
dispatch_kernel!(
    /// `out *= s`. Bitwise backend-invariant.
    scale / scale_with(out: &mut [f32], s: f32),
    avx2: scale_g::<F32x8>, scalar: scale_g::<ScalarVec>
);
dispatch_kernel!(
    /// `out -= s` element-wise. Bitwise backend-invariant.
    sub_scalar / sub_scalar_with(out: &mut [f32], s: f32),
    avx2: sub_scalar_g::<F32x8>, scalar: sub_scalar_g::<ScalarVec>
);
dispatch_kernel!(
    /// `out += rhs · s`, unfused on every backend (two roundings per
    /// element, like the historical optimizer loops). Bitwise
    /// backend-invariant.
    axpy / axpy_with(out: &mut [f32], rhs: &[f32], s: f32),
    avx2: axpy_g::<F32x8>, scalar: axpy_g::<ScalarVec>
);
dispatch_kernel!(
    /// In-place `max(x, 0.0)`. Bitwise backend-invariant (NaN → `0.0`,
    /// `-0.0` → `+0.0`, exactly like `f32::max(x, 0.0)`).
    relu / relu_with(out: &mut [f32]),
    avx2: relu_g::<F32x8>, scalar: relu_g::<ScalarVec>
);
dispatch_kernel!(
    /// In-place vectorized `exp(x)` (polynomial kernel, ≤ 2 ulp). Bitwise
    /// backend-invariant; NaN passes through; saturates instead of
    /// producing `±inf`/denormals at the range edges.
    vec_exp / vec_exp_with(out: &mut [f32]),
    avx2: exp_g::<F32x8>, scalar: exp_g::<ScalarVec>
);
dispatch_kernel!(
    /// `Σ exp(xᵢ)`, exponentials from the [`vec_exp`] kernel, summed
    /// strictly left-to-right. Bitwise backend-invariant.
    sum_exp / sum_exp_with(row: &[f32]) -> f32,
    avx2: sum_exp_g::<F32x8>, scalar: sum_exp_g::<ScalarVec>
);
dispatch_kernel!(
    /// The register-tiled GEMM micro-kernel: `c += a · b` with strided
    /// rows and offset-addressed `b` rows (see [`Tile`]). Per element,
    /// `k`-ascending, one multiply-add per term. AVX2 fuses each
    /// multiply-add, on blocks of 6 rows × 2 `ymm` vectors; AVX-512 runs
    /// the same chains on blocks of 6 rows × up to 4 `zmm` vectors, so
    /// its bits are AVX2's.
    gemm_tile / gemm_tile_with(c: &mut [f32], a: &[f32], b: &[f32], t: &Tile),
    avx2: gemm_tile_g::<F32x8, 2>, avx512: gemm_tile_g::<F32x16, 4>,
    scalar: gemm_tile_g::<ScalarVec, 2>
);
dispatch_kernel!(
    /// `Σ xᵢ²` over 8 fixed stripes + canonical pairing tree; tail (< 8)
    /// appended left-to-right. Bitwise backend-invariant (and exactly the
    /// plain serial sum for `n < 8`).
    reduce_sum_sq / reduce_sum_sq_with(x: &[f32]) -> f32,
    avx2: reduce_sum_sq_g::<F32x8, 1>, scalar: reduce_sum_sq_g::<ScalarVec, 8>
);

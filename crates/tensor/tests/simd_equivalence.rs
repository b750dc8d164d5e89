//! Differential tests for the SIMD backend layer (`lightts_tensor::simd`).
//!
//! Every dispatched kernel has a scalar oracle (`SimdBackend::Scalar`) and
//! an AVX2+FMA instantiation; the register tile also has an AVX-512 one,
//! and every other kernel runs its AVX2 code under `SimdBackend::Avx512`.
//! `docs/NUMERICS.md` sorts the kernels into three determinism classes;
//! this suite checks each class's claim, via the `*_with` kernel variants
//! so backends can be compared concurrently from many test threads without
//! touching the process-wide toggle:
//!
//! 1. **Backend-invariant kernels** (element-wise ops, exponentials, the
//!    striped reduction, `log_softmax_row`) must agree *bitwise* across
//!    scalar, AVX2 and AVX-512 on every shape — including remainder lanes,
//!    empty and single-element inputs — and on NaN/±inf/±0 specials.
//! 2. **The FMA-sensitive kernel** (`gemm_tile`) must be bitwise
//!    identical between the scalar oracle and an unfused reference chain,
//!    and between each vector backend and a reference chain that uses
//!    `f32::mul_add` (both fused, same accumulation order). The 512-bit
//!    tile must give the 256-bit tile's bits on every shape.
//! 3. The `vec_exp` approximation must stay within its documented ULP
//!    budget of the correctly rounded result (≤ 2 ULP over the tested
//!    range; the measured worst case is 1).
//!
//! Only `set_simd_backend_clamps_and_installs` touches the process-wide
//! backend, and no other test reads it.

mod common;

use common::{fuses, gemm_row_ref};
use lightts_tensor::simd::{
    add_assign_with, axpy_with, cpu_supports, gemm_tile_with, log_softmax_row_with,
    mul_assign_with, reduce_sum_sq_with, relu_with, scale_with, set_simd_backend, sub_assign_with,
    sub_scalar_with, sum_exp_with, vec_exp_with, SimdBackend, Tile,
};
use proptest::prelude::*;

/// Every backend; `*_with` runs a request the CPU cannot run on scalar,
/// so on a host without AVX2+FMA (or AVX-512) those entries repeat the
/// (already covered) scalar comparisons rather than failing.
const BACKENDS: [SimdBackend; 3] = [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512];

/// The vector backends, each compared against the scalar oracle.
const VECTOR: [SimdBackend; 2] = [SimdBackend::Avx2, SimdBackend::Avx512];

/// Lengths that hit every remainder-lane case for 8-wide vectors.
const EDGE_LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33];

fn vec_data(len: usize, seed: u32) -> Vec<f32> {
    // Small deterministic LCG; values in roughly [-4, 4] so exp stays
    // comfortably in range and sums stay well-conditioned.
    let mut s = seed.wrapping_mul(2_654_435_761).max(1);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((s >> 8) as f32 / (1 << 24) as f32) * 8.0 - 4.0
        })
        .collect()
}

fn ordered(x: f32) -> i64 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        -i64::from(b & 0x7FFF_FFFF)
    } else {
        i64::from(b)
    }
}

/// Distance in representable floats; 0 iff bit-equal (treating ±0 as
/// equal); `u64::MAX` when exactly one side is NaN.
fn ulp_diff(a: f32, b: f32) -> u64 {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => 0,
        (false, false) => (ordered(a) - ordered(b)).unsigned_abs(),
        _ => u64::MAX,
    }
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: {g:?} ({:#010x}) != {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

// ---------------------------------------------------------------------
// Class 1: backend-invariant kernels, bitwise across both backends
// ---------------------------------------------------------------------

/// Runs an in-place kernel under each vector backend and asserts the
/// output is bitwise identical to the scalar oracle's.
fn check_invariant_inplace(xs: &[f32], what: &str, f: impl Fn(SimdBackend, &mut [f32])) {
    let mut oracle = xs.to_vec();
    f(SimdBackend::Scalar, &mut oracle);
    for bk in VECTOR {
        let mut out = xs.to_vec();
        f(bk, &mut out);
        assert_bits_eq(&out, &oracle, &format!("{what} [{}]", bk.name()));
    }
}

/// Same for scalar-returning reductions.
fn check_invariant_reduce(xs: &[f32], what: &str, f: impl Fn(SimdBackend, &[f32]) -> f32) {
    let oracle = f(SimdBackend::Scalar, xs);
    for bk in VECTOR {
        let got = f(bk, xs);
        let name = bk.name();
        assert_eq!(got.to_bits(), oracle.to_bits(), "{what} [{name}]: {got:?} != {oracle:?}");
    }
}

#[test]
fn elementwise_kernels_bitwise_invariant_on_edge_lengths() {
    for &n in &EDGE_LENS {
        let xs = vec_data(n, 11);
        let rhs = vec_data(n, 23);
        check_invariant_inplace(&xs, "add_assign", |bk, o| add_assign_with(bk, o, &rhs));
        check_invariant_inplace(&xs, "sub_assign", |bk, o| sub_assign_with(bk, o, &rhs));
        check_invariant_inplace(&xs, "mul_assign", |bk, o| mul_assign_with(bk, o, &rhs));
        check_invariant_inplace(&xs, "scale", |bk, o| scale_with(bk, o, 1.7));
        check_invariant_inplace(&xs, "sub_scalar", |bk, o| sub_scalar_with(bk, o, 0.3));
        check_invariant_inplace(&xs, "axpy", |bk, o| axpy_with(bk, o, &rhs, -2.5));
        check_invariant_inplace(&xs, "relu", relu_with);
        check_invariant_inplace(&xs, "vec_exp", vec_exp_with);
        check_invariant_inplace(&xs, "log_softmax_row", log_softmax_row_with);
        check_invariant_reduce(&xs, "sum_exp", sum_exp_with);
        check_invariant_reduce(&xs, "reduce_sum_sq", reduce_sum_sq_with);
    }
}

#[test]
fn transcendental_specials_bitwise_invariant() {
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-40, // subnormal
        88.02,
        88.03,
        200.0,
        -87.3,
        -88.0,
        -200.0,
        0.625,
        -0.625,
        f32::MAX,
        f32::MIN,
    ];
    check_invariant_inplace(&specials, "vec_exp/specials", vec_exp_with);
    check_invariant_inplace(&specials, "relu/specials", relu_with);

    // Pinned special-value semantics (scalar oracle; the loop above proved
    // the other backends identical).
    let mut v = specials.to_vec();
    vec_exp_with(SimdBackend::Scalar, &mut v);
    assert!(v[0].is_nan(), "exp(NaN) must stay NaN");
    assert!(v[1].is_finite(), "exp(+inf) saturates, never overflows");
    assert!(
        v[2] > 0.0 && v[2] <= 1.18e-38,
        "exp(-inf) saturates just above the smallest normal, got {:e}",
        v[2]
    );
    assert_eq!(v[3], 1.0);
}

#[test]
fn reductions_match_serial_sum_for_short_inputs() {
    // The striped scheme degenerates to the plain left-to-right fold for
    // n < 8 — exactly the pre-SIMD bits. (Not `Iterator::sum`, whose
    // identity element is `-0.0`.) At n = 8 the pairing tree kicks in.
    for n in 0..8usize {
        let xs = vec_data(n, 5);
        let serial_sq: f32 = xs.iter().fold(0.0, |a, &b| a + b * b);
        for bk in VECTOR {
            let sq = reduce_sum_sq_with(bk, &xs);
            assert_eq!(sq.to_bits(), serial_sq.to_bits(), "sq n={n} {bk:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Class 2: FMA-sensitive kernels
// ---------------------------------------------------------------------

/// Runs [`gemm_tile_with`] on `c` and checks it against a reference built
/// from one `gemm_row_ref` chain per row over `a` and `b` gathered into
/// dense operands, unfused under scalar and fused where `bk` fuses: same
/// bits on every row, and `c` untouched between rows.
fn check_tile(bk: SimdBackend, t: &Tile, a: &[f32], b: &[f32], c: &[f32], what: &str) {
    let mut want = c.to_vec();
    let dense_b: Vec<f32> = (0..t.k)
        .flat_map(|p| {
            let off = (p / t.b_run) * t.b_jump + (p % t.b_run) * t.b_step;
            b[off..off + t.n].to_vec()
        })
        .collect();
    for r in 0..t.rows {
        let a_r = &a[r * t.lda..r * t.lda + t.k];
        gemm_row_ref(&mut want[r * t.ldc..r * t.ldc + t.n], a_r, &dense_b, t.k, t.n, fuses(bk));
    }
    let mut got = c.to_vec();
    gemm_tile_with(bk, &mut got, a, b, t);
    assert_bits_eq(&got, &want, &format!("{what} [{}]", bk.name()));
}

#[test]
fn gemm_tile_matches_the_chain_reference_per_backend() {
    // The register tile must produce exactly the bits of independent
    // reference chains under the same backend's contract (unfused on
    // scalar, fused on AVX2 and AVX-512, same k-order per element) for
    // every row count of its 6-row block (and multi-block counts), every
    // column case of its NV-vector tiles, single-vector tiles and scalar
    // tail, dense and offset-addressed `b` rows (overlapping windows
    // jumping per run) and padded `a` rows (`lda > k`). The last five
    // shapes are the dense layers' widths (`n` = 12, 37, 42, 48, 70). `c`
    // is not zero, so each chain must start from it.
    for rows in [1usize, 2, 3, 4, 5, 6, 7, 13] {
        let shapes = [(5, 1), (9, 7), (16, 16), (21, 17), (33, 31), (40, 64)];
        let dense = [(42, 12), (18, 37), (48, 42), (12, 48), (32, 70)];
        for (k, n) in shapes.into_iter().chain(dense) {
            // Exact zeros: one whole reduction step (skipped) and
            // scattered single values (added as ±0 terms).
            let mut a = vec_data(rows * k, 51 + rows as u32);
            for (i, v) in a.iter_mut().enumerate() {
                if i % k == 2 || i % 5 == 1 {
                    *v = 0.0;
                }
            }
            let dense = Tile { rows, k, n, ldc: n + 3, lda: k, b_step: n, b_run: k, b_jump: 0 };
            let c = vec_data(rows * (n + 3), 61);
            let b = vec_data(k * n, 57);
            // `a` rows padded by 4 values (`lda = k + 4`), `b` as sliding
            // windows (`b_step = 1`) over `runs` channels of `k / runs`
            // rows each, placed `b_jump` apart.
            let runs = if k % 3 == 0 { 3 } else { 1 };
            let b_jump = n + k / runs + 2;
            let offset = Tile { lda: k + 4, b_step: 1, b_run: k / runs, b_jump, ..dense };
            let pad = vec_data(rows * 4, 53);
            let ap: Vec<f32> = a
                .chunks_exact(k)
                .zip(pad.chunks_exact(4))
                .flat_map(|(r, p)| [r, p].concat())
                .collect();
            let bw = vec_data(runs * b_jump, 59);
            let what = format!("rows={rows} k={k} n={n}");
            for bk in BACKENDS {
                check_tile(bk, &dense, &a, &b, &c, &format!("gemm_tile dense {what}"));
                check_tile(bk, &offset, &ap, &bw, &c, &format!("gemm_tile offset {what}"));
            }
        }
    }
}

/// The 512-bit tile gives the 256-bit tile's bits: every column count
/// from 1 to 70 (whole 64-column `zmm` tiles, one tile of three, two or
/// one left-over `zmm` vectors and single columns), every
/// row count of one and two 6-row blocks and a remainder, strided `a` rows
/// and offset-addressed `b` rows (sliding windows jumping per run) as well
/// as dense ones, on a non-zero `c`, with zeros in `a` so that some steps
/// are skipped and others add `±0.0` terms.
#[test]
fn gemm_tile_avx512_gives_the_avx2_bits() {
    if !cpu_supports(SimdBackend::Avx512) {
        eprintln!("gemm_tile_avx512_gives_the_avx2_bits: no AVX-512F/BW on this CPU, skipped");
        return;
    }
    for rows in 1..=13usize {
        for n in 1..=70usize {
            for (k, runs) in [(1usize, 1usize), (6, 2), (9, 3)] {
                let (lda, ldc, b_jump) = (k + 3, n + 5, n + k / runs + 1);
                let offset = Tile { rows, k, n, ldc, lda, b_step: 1, b_run: k / runs, b_jump };
                let dense = Tile { b_step: n, b_run: k, b_jump: 0, ..offset };
                let mut a = vec_data(rows * lda, (rows * 71 + n) as u32);
                for (i, v) in a.iter_mut().enumerate() {
                    if i % lda == 1 || i % 7 == 3 {
                        *v = 0.0;
                    }
                }
                let b = vec_data(runs * b_jump + k * n, (n * 13 + k) as u32);
                let c = vec_data(rows * ldc, 7);
                for t in [offset, dense] {
                    let mut wide = c.clone();
                    gemm_tile_with(SimdBackend::Avx512, &mut wide, &a, &b, &t);
                    let mut narrow = c.clone();
                    gemm_tile_with(SimdBackend::Avx2, &mut narrow, &a, &b, &t);
                    assert_bits_eq(&wide, &narrow, &format!("avx512 vs avx2 {t:?}"));
                }
            }
        }
    }
}

#[test]
fn gemm_tile_rejects_layouts_past_its_operands() {
    // The tile loads `a` and `b` unchecked past one up-front check of the
    // layout; a layout reaching one element too far, or overflowing, must
    // panic instead. The wide layout (70 columns over 7 rows) runs every
    // column path of the 512-bit tile.
    let narrow = Tile { rows: 2, k: 3, n: 4, ldc: 4, lda: 3, b_step: 4, b_run: 3, b_jump: 0 };
    let wide = Tile { rows: 7, k: 5, n: 70, ldc: 70, lda: 5, b_step: 70, b_run: 5, b_jump: 0 };
    let runs = |bk: SimdBackend, c: usize, a: usize, b: usize, t: Tile| {
        std::panic::catch_unwind(move || {
            gemm_tile_with(bk, &mut vec![0.0; c], &vec![1.0; a], &vec![1.0; b], &t)
        })
        .is_ok()
    };
    for (t, c, a, b) in [(narrow, 8, 6, 12), (wide, 490, 35, 350)] {
        for bk in BACKENDS {
            assert!(runs(bk, c, a, b, t));
            assert!(!runs(bk, c - 1, a, b, t), "c too short");
            assert!(!runs(bk, c, a - 1, b, t), "a too short");
            assert!(!runs(bk, c, a, b - 1, t), "b too short");
            assert!(!runs(bk, c, a, b, Tile { b_step: usize::MAX / 2, ..t }), "overflow");
            assert!(!runs(bk, c, a, b, Tile { b_run: 2, ..t }), "k not a multiple of b_run");
            assert!(!runs(bk, c, a, b, Tile { ldc: t.n - 1, ..t }), "overlapping rows of c");
        }
    }
}

// ---------------------------------------------------------------------
// Class 3: accuracy of the exponential approximation
// ---------------------------------------------------------------------

#[test]
fn vec_exp_ulp_budget_holds_over_dense_sweep() {
    // ~200k points spanning the full non-saturated range.
    let mut worst = 0u64;
    let mut x = -87.0f32;
    while x < 88.0 {
        let mut v = [x];
        vec_exp_with(SimdBackend::Scalar, &mut v);
        let want = (f64::from(x)).exp() as f32;
        worst = worst.max(ulp_diff(v[0], want));
        x += 0.000_9;
    }
    assert!(worst <= 2, "vec_exp worst-case {worst} ULP, budget 2");
}

#[test]
fn log_softmax_row_produces_normalized_probabilities() {
    for &n in &[1usize, 3, 9, 16, 33] {
        let mut row = vec_data(n, 81);
        log_softmax_row_with(SimdBackend::Avx2, &mut row);
        vec_exp_with(SimdBackend::Avx2, &mut row);
        let total: f32 = row.iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "probabilities sum to {total} for n={n}");
        assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

// ---------------------------------------------------------------------
// Randomized sweeps (vendored proptest, sliced fixed-size vectors)
// ---------------------------------------------------------------------

const MAX_N: usize = 257;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_elementwise_and_reductions_invariant(
        xs in proptest::collection::vec(-50.0f32..50.0, MAX_N),
        rhs in proptest::collection::vec(-50.0f32..50.0, MAX_N),
        n in 0usize..MAX_N,
    ) {
        let xs = &xs[..n];
        let rhs = &rhs[..n];
        check_invariant_inplace(xs, "p/add", |bk, o| add_assign_with(bk, o, rhs));
        check_invariant_inplace(xs, "p/mul", |bk, o| mul_assign_with(bk, o, rhs));
        check_invariant_inplace(xs, "p/relu", relu_with);
        check_invariant_reduce(xs, "p/sumsq", reduce_sum_sq_with);
    }

    #[test]
    fn prop_exp_and_softmax_invariant(
        xs in proptest::collection::vec(-30.0f32..30.0, MAX_N),
        n in 1usize..MAX_N,
    ) {
        let xs = &xs[..n];
        check_invariant_inplace(xs, "p/exp", vec_exp_with);
        check_invariant_inplace(xs, "p/lsm", log_softmax_row_with);
        check_invariant_reduce(xs, "p/sum_exp", sum_exp_with);
    }

    #[test]
    fn prop_reduce_sum_sq_tracks_f64_reference(
        xs in proptest::collection::vec(-100.0f32..100.0, MAX_N),
        n in 0usize..MAX_N,
    ) {
        let xs = &xs[..n];
        let want: f64 = xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        let got = reduce_sum_sq_with(SimdBackend::Avx2, xs);
        prop_assert!((f64::from(got) - want).abs() <= 1e-3 + want * 1e-5);
    }
}

// ---------------------------------------------------------------------
// Process-wide backend state
// ---------------------------------------------------------------------

#[test]
fn set_simd_backend_clamps_and_installs() {
    let before = lightts_tensor::simd::backend();
    for bk in BACKENDS {
        let installed = set_simd_backend(bk);
        assert!(cpu_supports(installed), "installed backend must be runnable");
        let want = if cpu_supports(bk) { bk } else { SimdBackend::Scalar };
        assert_eq!(installed, want, "request {bk:?}");
        assert_eq!(lightts_tensor::simd::backend(), installed);
    }
    // Restore the resolution for any later test in this binary.
    set_simd_backend(before);
    assert_eq!(lightts_tensor::simd::backend(), before);
}

#[test]
fn backend_names_are_stable() {
    assert_eq!(SimdBackend::Scalar.name(), "scalar");
    assert_eq!(SimdBackend::Avx2.name(), "avx2");
    assert_eq!(SimdBackend::Avx512.name(), "avx512");
    assert!(SimdBackend::Scalar < SimdBackend::Avx2);
    assert!(SimdBackend::Avx2 < SimdBackend::Avx512);
}

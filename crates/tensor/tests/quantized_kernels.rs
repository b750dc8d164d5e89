//! Property tests for the int8 kernel family (`simd::qdot_i8` /
//! `simd::qgemm_i8t` and the `qint` conv driver).
//!
//! The quantized kernels sit in the *integer-exact* determinism class
//! (`docs/NUMERICS.md`, "Quantized inference"), so unlike the f32 suites
//! these properties demand **exact equality**:
//!
//! * every backend's GEMM equals an i64 brute-force reference bit for bit
//!   (the i64 reference also proves the i32 accumulator never wraps on
//!   supported shapes);
//! * both forced backends agree bitwise on remainder-lane shapes
//!   (lengths straddling the 16- and 32-lane strides);
//! * quantize→dequantize round-trips stay within half a quantization step;
//! * the lowered quantized conv equals a direct integer convolution with
//!   explicit zero-point padding.

use lightts_tensor::qint::{qconv1d_same_into, ActQuant, QuantizedMatrix};
use lightts_tensor::simd::{qdot_i8_with, qgemm_i8t_with, SimdBackend};
use proptest::prelude::*;

const BACKENDS: [SimdBackend; 2] = [SimdBackend::Scalar, SimdBackend::Avx2];

fn dot_i64(a: &[i8], b: &[i8]) -> i64 {
    a.iter().zip(b).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum()
}

/// Brute-force i64 reference for the transposed GEMM.
fn qgemm_ref(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i64> {
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = dot_i64(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
    out
}

/// Direct integer "same" convolution with zero-point padding — the oracle
/// for the lowered `qconv1d_same_into`.
fn qconv_ref(
    qw: &[i8],
    qx: &[i8],
    cout: usize,
    cin: usize,
    l: usize,
    k: usize,
    pad: i8,
) -> Vec<i64> {
    let pl = (k - 1) / 2;
    let mut out = vec![0i64; cout * l];
    for co in 0..cout {
        for t in 0..l {
            let mut acc = 0i64;
            for ci in 0..cin {
                for j in 0..k {
                    let src = t + j;
                    let x = if src >= pl && src - pl < l { qx[ci * l + (src - pl)] } else { pad };
                    acc += i64::from(qw[(co * cin + ci) * k + j]) * i64::from(x);
                }
            }
            out[co * l + t] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every backend's GEMM equals the i64 brute-force reference exactly.
    #[test]
    fn qgemm_matches_i64_reference_on_all_backends(
        m in 1usize..5,
        k in 1usize..70,
        n in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u8 as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i8> = (0..n * k).map(|_| next()).collect();
        let want = qgemm_ref(&a, &b, m, k, n);
        for bk in BACKENDS {
            let mut out = vec![0i32; m * n];
            qgemm_i8t_with(bk, &mut out, &a, &b, m, k, n);
            for (i, (&got, &exp)) in out.iter().zip(&want).enumerate() {
                prop_assert!(i64::from(got) == exp, "bk={:?} elem {}: {} vs {}", bk, i, got, exp);
            }
        }
    }

    /// The two forced backends agree bitwise on dot products whose
    /// lengths straddle the SIMD strides (0/15/16/17/31/32/33/...): the
    /// remainder-lane handling must be invisible.
    #[test]
    fn qdot_backends_bitwise_identical_on_remainder_shapes(
        extra in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u8 as i8
        };
        for base in [0usize, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65] {
            let len = base + extra;
            let a: Vec<i8> = (0..len).map(|_| next()).collect();
            let b: Vec<i8> = (0..len).map(|_| next()).collect();
            let want = qdot_i8_with(SimdBackend::Scalar, &a, &b);
            prop_assert_eq!(i64::from(want), dot_i64(&a, &b));
            let got = qdot_i8_with(SimdBackend::Avx2, &a, &b);
            prop_assert!(got == want, "len={} avx2: {} vs {}", len, got, want);
        }
    }

    /// Symmetric weight quantization round-trips within half a step per
    /// row, and the stored row sums match the codes.
    #[test]
    fn weight_roundtrip_error_within_half_step(
        rows in 1usize..4,
        k in 1usize..32,
        vals in proptest::collection::vec(-8.0f32..8.0, 1..128),
    ) {
        let need = rows * k;
        let src: Vec<f32> = (0..need).map(|i| vals[i % vals.len()]).collect();
        let qm = QuantizedMatrix::quantize_rows_symmetric(&src, rows, k).unwrap();
        for r in 0..rows {
            let deq = qm.dequantize_row(r);
            let half = qm.scales()[r] * 0.5 + 1e-6;
            for (a, b) in src[r * k..(r + 1) * k].iter().zip(&deq) {
                prop_assert!((a - b).abs() <= half, "row {}: {} vs {}", r, a, b);
            }
            let sum: i32 = qm.data()[r * k..(r + 1) * k].iter().map(|&q| i32::from(q)).sum();
            prop_assert_eq!(sum, qm.row_sums()[r]);
        }
    }

    /// Activation quantization round-trips within half a step, keeps codes
    /// in range, and represents 0.0 exactly.
    #[test]
    fn activation_roundtrip_error_within_half_step(
        vals in proptest::collection::vec(-100.0f32..100.0, 1..256),
    ) {
        let aq = ActQuant::fit(&vals);
        prop_assert!(aq.scale > 0.0);
        prop_assert_eq!(aq.dequantize(aq.zero_point), 0.0);
        let mut codes = vec![0i8; vals.len()];
        aq.quantize_into(&vals, &mut codes);
        let half = aq.scale * 0.5 + aq.scale * 1e-4;
        for (&v, &q) in vals.iter().zip(&codes) {
            prop_assert!((v - aq.dequantize(q)).abs() <= half, "{} -> {}", v, q);
        }
    }

    /// The lowered quantized conv (qim2row + qgemm) equals the direct
    /// integer convolution exactly, for kernels shorter and longer than
    /// the series, on every backend via the process-wide entry point.
    #[test]
    fn qconv_matches_direct_integer_reference(
        cin in 1usize..4,
        cout in 1usize..4,
        l in 1usize..14,
        k in 1usize..10,
        pad in -5i8..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u8 as i8
        };
        let wsrc: Vec<f32> = (0..cout * cin * k).map(|_| f32::from(next()) / 16.0).collect();
        let w = QuantizedMatrix::quantize_rows_symmetric(&wsrc, cout, cin * k).unwrap();
        let qx: Vec<i8> = (0..cin * l).map(|_| next()).collect();
        let mut out = vec![0i32; cout * l];
        let mut patch = Vec::new();
        qconv1d_same_into(&mut out, &mut patch, &qx, cin, l, &w, k, pad).unwrap();
        let want = qconv_ref(w.data(), &qx, cout, cin, l, k, pad);
        for (i, (&got, &exp)) in out.iter().zip(&want).enumerate() {
            prop_assert!(i64::from(got) == exp, "elem {}: {} vs {}", i, got, exp);
        }
    }
}

/// Reduction lengths past the AVX2 pre-widening bound (k > 512) take a
/// widen-in-loop fallback; it must agree with the i64 reference and the
/// other backends just as exactly.
#[test]
fn qgemm_large_k_fallback_is_exact_on_all_backends() {
    let (m, k, n) = (5usize, 700usize, 3usize);
    let code = |i: usize| ((i as u64).wrapping_mul(2_654_435_761) >> 24) as u8 as i8;
    let a: Vec<i8> = (0..m * k).map(code).collect();
    let b: Vec<i8> = (0..n * k).map(|i| code(i + 1)).collect();
    let want = qgemm_ref(&a, &b, m, k, n);
    for bk in BACKENDS {
        let mut out = vec![0i32; m * n];
        qgemm_i8t_with(bk, &mut out, &a, &b, m, k, n);
        for (i, (&got, &exp)) in out.iter().zip(&want).enumerate() {
            assert_eq!(i64::from(got), exp, "bk={bk:?} elem {i}");
        }
    }
}

/// Non-proptest spot check: a padded position dequantizes to exactly 0.0
/// through the zero-point correction (the property that makes "same"
/// padding exact in the quantized plan).
#[test]
fn zero_point_padding_cancels_exactly() {
    // One weight row, k=3, input length 2: every output position sees
    // padding. Correct the accumulator by zp·row_sum and the padded terms
    // must vanish.
    let wsrc = [0.5f32, -1.0, 0.25];
    let w = QuantizedMatrix::quantize_rows_symmetric(&wsrc, 1, 3).unwrap();
    let data = [1.25f32, -0.75];
    let aq = ActQuant::fit(&data);
    let mut qx = vec![0i8; 2];
    aq.quantize_into(&data, &mut qx);
    let mut out = vec![0i32; 2];
    let mut patch = Vec::new();
    qconv1d_same_into(&mut out, &mut patch, &qx, 1, 2, &w, 3, aq.zero_point).unwrap();
    // f32 reference conv over the *dequantized* codes with literal zero
    // padding.
    let deq: Vec<f32> = qx.iter().map(|&q| aq.dequantize(q)).collect();
    let wdeq = w.dequantize_row(0);
    for (t, &acc) in out.iter().enumerate() {
        let mut want = 0.0f32;
        for (j, &wj) in wdeq.iter().enumerate() {
            let src = t as isize + j as isize - 1;
            if (0..2).contains(&src) {
                want += wj * deq[src as usize];
            }
        }
        let zp = i32::from(aq.zero_point);
        let got = (acc - zp * w.row_sums()[0]) as f32 * (aq.scale * w.scales()[0]);
        assert!((got - want).abs() < 1e-5, "t={t}: {got} vs {want}");
    }
}

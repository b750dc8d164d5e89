//! Property tests for the int8 kernel (`simd::qgemm_tile`, the integer
//! register tile) and the `qint` conv driver built on it.
//!
//! The quantized kernel sits in the *integer-exact* determinism class
//! (`docs/NUMERICS.md`, "Quantized inference"), so unlike the f32 suites
//! these properties demand **exact equality**:
//!
//! * on every forced backend, the tile run as a "same" convolution equals
//!   an i64 brute-force convolution bit for bit (the i64 reference also
//!   proves the i32 accumulator never wraps on supported shapes), across
//!   remainder columns and rows, odd and even filter lengths, reductions
//!   past 512 products and extreme codes;
//! * the 512-bit tile equals the 256-bit one on every column count from 1
//!   to 70, with strided `a` and offset `b`, and rejects the same layouts;
//! * quantize→dequantize round-trips stay within half a quantization step;
//! * the quantized conv driver equals a direct integer convolution with
//!   explicit zero-point padding.

use lightts_tensor::qint::{qconv1d_same_into, ActQuant, QuantizedMatrix};
use lightts_tensor::simd::{cpu_supports, i16_pair, qgemm_tile_with, SimdBackend, Tile};
use proptest::prelude::*;

/// Every backend; one the CPU cannot run repeats the scalar oracle.
const BACKENDS: [SimdBackend; 3] = [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512];

/// The "same" convolution on [`qgemm_tile_with`], with the operands laid
/// out here from first principles: filter tap pairs `(w[2m], w[2m+1])`
/// (zero partner past an odd `k`) and, per channel, pairs `(xpad[s],
/// xpad[s+1])` of the zero-point-padded codes, read with `b_step` 2.
#[allow(clippy::too_many_arguments)]
fn conv_on_tile(
    bk: SimdBackend,
    qw: &[i8],
    qx: &[i8],
    cout: usize,
    cin: usize,
    l: usize,
    k: usize,
    pad: i8,
) -> Vec<i32> {
    let (pl, half, lp) = ((k - 1) / 2, k.div_ceil(2), l + k - 1);
    let tap = |co: usize, ci: usize, j: usize| if j < k { qw[(co * cin + ci) * k + j] } else { 0 };
    let mut a = Vec::new();
    for co in 0..cout {
        for ci in 0..cin {
            a.extend((0..half).map(|m| i16_pair(tap(co, ci, 2 * m), tap(co, ci, 2 * m + 1))));
        }
    }
    let code =
        |ci: usize, s: usize| if (pl..pl + l).contains(&s) { qx[ci * l + s - pl] } else { pad };
    let mut b = Vec::new();
    for ci in 0..cin {
        b.extend((0..lp).map(|s| i16_pair(code(ci, s), code(ci, s + 1))));
    }
    let t = Tile {
        rows: cout,
        k: cin * half,
        n: l,
        ldc: l,
        lda: cin * half,
        b_step: 2,
        b_run: half,
        b_jump: lp,
    };
    let mut out = vec![0i32; cout * l];
    qgemm_tile_with(bk, &mut out, &a, &b, &t);
    out
}

/// Requires [`conv_on_tile`] to equal [`qconv_ref`] on every backend.
#[allow(clippy::too_many_arguments)]
fn assert_tile_conv_exact(
    qw: &[i8],
    qx: &[i8],
    cout: usize,
    cin: usize,
    l: usize,
    k: usize,
    pad: i8,
) {
    let want = qconv_ref(qw, qx, cout, cin, l, k, pad);
    for bk in BACKENDS {
        let got = conv_on_tile(bk, qw, qx, cout, cin, l, k, pad);
        for (i, (&g, &e)) in got.iter().zip(&want).enumerate() {
            assert_eq!(i64::from(g), e, "bk={bk:?} cout={cout} cin={cin} l={l} k={k} elem {i}");
        }
    }
}

/// Deterministic i8 codes from a seed (an LCG's high bits).
fn codes(n: usize, seed: u64) -> Vec<i8> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u8 as i8
        })
        .collect()
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

    /// On both backends the tile, run as a "same" convolution, equals the
    /// i64 convolution exactly: filter counts off the 6-row block, output
    /// lengths off the 8- and 16-lane widths, odd and even filter lengths.
    #[test]
    fn qgemm_matches_i64_reference_on_all_backends(
        cin in 1usize..4,
        cout in 1usize..14,
        l in 1usize..40,
        k in 1usize..12,
        pad in -128i16..128,
        seed in 0u64..u64::MAX,
    ) {
        let qw = codes(cout * cin * k, seed);
        let qx = codes(cin * l, seed ^ 0x9e37_79b9);
        assert_tile_conv_exact(&qw, &qx, cout, cin, l, k, pad as i8);
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

    /// The quantized conv driver equals the direct integer convolution
    /// exactly, for kernels shorter and longer than the series, on every
    /// backend via the process-wide entry point.
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
        let mut pairs = Vec::new();
        qconv1d_same_into(&mut out, &mut pairs, &qx, cin, l, &w, k, pad).unwrap();
        let want = qconv_ref(w.data(), &qx, cout, cin, l, k, pad);
        for (i, (&got, &exp)) in out.iter().zip(&want).enumerate() {
            prop_assert!(i64::from(got) == exp, "elem {}: {} vs {}", i, got, exp);
        }
    }
}

/// Reductions past 512 products: the student's `cin·k = 18·40 = 720`,
/// and `96·40 = 3840`, on 7 filters over 37 positions.
#[test]
fn tile_conv_is_exact_on_long_reductions() {
    for (cin, k) in [(18usize, 40usize), (96, 40), (18, 21)] {
        let (cout, l) = (7, 37);
        let qw = codes(cout * cin * k, cin as u64);
        let qx = codes(cin * l, k as u64);
        assert_tile_conv_exact(&qw, &qx, cout, cin, l, k, -3);
    }
}

/// Extreme codes: −128 inputs and padding against ±127 weights, the
/// largest products the scheme produces, on both signs.
#[test]
fn tile_conv_is_exact_on_extreme_codes() {
    let (cout, cin, l) = (7usize, 18usize, 29usize);
    for k in [39usize, 40] {
        let qw: Vec<i8> =
            (0..cout * cin * k).map(|i| if (i / 3) % 2 == 0 { 127 } else { -127 }).collect();
        let all_pos = vec![127i8; cout * cin * k];
        let qx = vec![-128i8; cin * l];
        assert_tile_conv_exact(&qw, &qx, cout, cin, l, k, -128);
        assert_tile_conv_exact(&all_pos, &qx, cout, cin, l, k, -128);
    }
}

/// The 512-bit tile equals the 256-bit one, and both the scalar oracle:
/// every column count from 1 to 70 (whole 64-column `zmm` tiles, three,
/// two or one left-over `zmm` vectors and single lanes),
/// rows 1 to 13, strided `a` rows (`lda > k`) and offset `b` rows (pairs
/// read with `b_step` 2, jumping per run), on a non-zero `c`.
#[test]
fn qgemm_avx512_equals_avx2_on_every_column_count() {
    if !cpu_supports(SimdBackend::Avx512) {
        eprintln!("qgemm_avx512_equals_avx2_on_every_column_count: no AVX-512F/BW, skipped");
        return;
    }
    let pairs = |n: usize, seed: u64| -> Vec<i32> {
        let c = codes(2 * n, seed);
        c.chunks_exact(2).map(|p| i16_pair(p[0], p[1])).collect()
    };
    for rows in 1..=13usize {
        for n in 1..=70usize {
            let (k, b_run) = (6usize, 3usize);
            let (lda, ldc, b_jump) = (k + 2, n + 3, 2 * (b_run - 1) + n + 4);
            let t = Tile { rows, k, n, ldc, lda, b_step: 2, b_run, b_jump };
            let a = pairs(rows * lda, (rows * 97 + n) as u64);
            let b = pairs(k / b_run * b_jump, n as u64);
            let c: Vec<i32> = codes(rows * ldc, 5).into_iter().map(i32::from).collect();
            let run = |bk| {
                let mut out = c.clone();
                qgemm_tile_with(bk, &mut out, &a, &b, &t);
                out
            };
            let wide = run(SimdBackend::Avx512);
            assert_eq!(wide, run(SimdBackend::Avx2), "avx512 vs avx2 {t:?}");
            assert_eq!(wide, run(SimdBackend::Scalar), "avx512 vs scalar {t:?}");
        }
    }
}

/// The integer tile shares the f32 tile's up-front layout check: on every
/// backend, and on a 70-column layout that runs every column path of the
/// 512-bit tile, a layout one element past an operand panics.
#[test]
fn qgemm_rejects_layouts_past_its_operands() {
    let wide = Tile { rows: 7, k: 5, n: 70, ldc: 70, lda: 5, b_step: 70, b_run: 5, b_jump: 0 };
    let (c, a, b) = (490usize, 35usize, 350usize);
    let runs = |bk: SimdBackend, c: usize, a: usize, b: usize, t: Tile| {
        std::panic::catch_unwind(move || {
            qgemm_tile_with(bk, &mut vec![0; c], &vec![1; a], &vec![1; b], &t)
        })
        .is_ok()
    };
    for bk in BACKENDS {
        assert!(runs(bk, c, a, b, wide));
        assert!(!runs(bk, c - 1, a, b, wide), "c too short");
        assert!(!runs(bk, c, a - 1, b, wide), "a too short");
        assert!(!runs(bk, c, a, b - 1, wide), "b too short");
        assert!(!runs(bk, c, a, b, Tile { b_run: 2, ..wide }), "k not a multiple of b_run");
        assert!(!runs(bk, c, a, b, Tile { ldc: 69, ..wide }), "overlapping rows of c");
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
    let mut pairs = Vec::new();
    qconv1d_same_into(&mut out, &mut pairs, &qx, 1, 2, &w, 3, aq.zero_point).unwrap();
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

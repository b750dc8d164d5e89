//! True int8 quantized storage and the integer conv built on it.
//!
//! [`crate::quant`] implements the paper's *fake* quantization: values are
//! snapped to a `2^b`-level grid but stay `f32`, which is what
//! quantization-aware training needs. This module is the deployment-side
//! counterpart: weights and activations are stored as real `i8` codes and
//! multiplied in pure integer arithmetic (`i8×i8→i32` by
//! [`qconv1d_same_into`] on the integer register tile
//! [`crate::simd::qgemm_tile`]), with one `f32` rescale at the very end.
//!
//! # Scheme
//!
//! * **Weights** ([`QuantizedMatrix`]): symmetric per-row affine,
//!   `w ≈ scale[r] · q` with `q ∈ [−127, 127]` and zero-point 0. Rows are
//!   output channels (conv filters or FC rows), so each channel keeps its
//!   own dynamic range — the same per-channel granularity the folded
//!   BatchNorm affine already uses. The per-row code sums are precomputed
//!   so activation zero-points can be corrected exactly (see below).
//! * **Activations** ([`ActQuant`]): asymmetric per-buffer affine fitted at
//!   run time, `x ≈ scale · (q − zero_point)` with `q ∈ [−128, 127]`. The
//!   fitted range always includes 0.0 so the zero code is exact — which
//!   makes "same" conv padding exact too: padded positions are filled with
//!   the zero-point code and their contribution is cancelled by the
//!   `zero_point · row_sum` correction term.
//!
//! For an accumulated dot `acc = Σ q_w · q_x` the dequantized result is
//!
//! ```text
//! y = scale_w · scale_x · (acc − zero_point_x · Σ q_w)
//! ```
//!
//! computed per output element in scalar `f32` (fixed rounding sequence),
//! so the only inexact steps are the two quantizations themselves. Code
//! assignment rounds half away from zero (`f32::round`'s rule) everywhere,
//! and activation codes saturate ([`ActQuant::quantize_into`]).
//!
//! # Determinism
//!
//! Everything here is in the **integer-exact** class (`docs/NUMERICS.md`,
//! "Quantized inference"): the integer kernels are bitwise identical across
//! all SIMD backends, and the f32 fit/dequantize steps are element-wise
//! scalar code — so quantized inference is bitwise reproducible across
//! backends and batch splits.

use crate::simd::{self, Tile};
use crate::{Result, TensorError};

/// Quantized-code magnitude bound for symmetric weight rows (±127; −128 is
/// excluded so negation stays in range and the scheme stays symmetric).
pub const WEIGHT_QMAX: f32 = 127.0;

/// An `i8` matrix with per-row symmetric quantization metadata, laid out
/// row-major `[rows, k]` — the filter bank of [`qconv1d_same_into`].
///
/// `rows` is the output-channel axis (conv filters, FC output features);
/// `k` is the reduction axis (`cin·kernel` or `in_features`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    data: Vec<i8>,
    rows: usize,
    k: usize,
    scales: Vec<f32>,
    row_sums: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[rows, k]` f32 matrix with a symmetric
    /// per-row scheme: `scale[r] = max|row| / 127`, codes
    /// `round(w / scale)` clamped to `[−127, 127]`, zero-point 0.
    ///
    /// An all-zero (or empty-range) row gets scale 1.0 and all-zero codes,
    /// which round-trips exactly. Fails if `src.len() != rows · k`, if
    /// either dimension is zero, or if `k` exceeds the integer-overflow
    /// bound of the quantized kernels ([`simd::QDOT_MAX_K`]).
    pub fn quantize_rows_symmetric(src: &[f32], rows: usize, k: usize) -> Result<Self> {
        if rows == 0 || k == 0 {
            return Err(TensorError::Empty { op: "QuantizedMatrix::quantize_rows_symmetric" });
        }
        if src.len() != rows * k {
            return Err(TensorError::LengthMismatch { len: src.len(), expected: rows * k });
        }
        if k > simd::QDOT_MAX_K {
            return Err(TensorError::LengthMismatch { len: k, expected: simd::QDOT_MAX_K });
        }
        let mut data = vec![0i8; rows * k];
        let mut scales = vec![1.0f32; rows];
        let mut row_sums = vec![0i32; rows];
        for r in 0..rows {
            let row = &src[r * k..(r + 1) * k];
            let maxabs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if maxabs > 0.0 && maxabs.is_finite() { maxabs / WEIGHT_QMAX } else { 1.0 };
            let inv = 1.0 / scale;
            let dst = &mut data[r * k..(r + 1) * k];
            let mut sum = 0i32;
            for (d, &v) in dst.iter_mut().zip(row.iter()) {
                let q = (v * inv).round().clamp(-WEIGHT_QMAX, WEIGHT_QMAX) as i32;
                sum += q;
                *d = q as i8;
            }
            scales[r] = scale;
            row_sums[r] = sum;
        }
        Ok(QuantizedMatrix { data, rows, k, scales, row_sums })
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction-axis length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `i8` codes, row-major `[rows, k]`.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row scales (`w ≈ scale[r] · q`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row code sums `Σ_j q[r, j]`, precomputed for the activation
    /// zero-point correction.
    pub fn row_sums(&self) -> &[i32] {
        &self.row_sums
    }

    /// Dequantizes row `r` back to f32 (test/debug helper).
    pub fn dequantize_row(&self, r: usize) -> Vec<f32> {
        let s = self.scales[r];
        self.data[r * self.k..(r + 1) * self.k].iter().map(|&q| f32::from(q) * s).collect()
    }

    /// Heap bytes held by the quantized codes plus per-row metadata —
    /// the number the README size table quotes against `4 · rows · k`
    /// for the f32 equivalent.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
            + self.scales.len() * std::mem::size_of::<f32>()
            + self.row_sums.len() * std::mem::size_of::<i32>()
    }
}

/// A fitted asymmetric activation quantizer: `x ≈ scale · (q − zero_point)`
/// with codes in `[−128, 127]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuant {
    /// Real-valued step between adjacent codes.
    pub scale: f32,
    /// Code representing 0.0 exactly.
    pub zero_point: i8,
}

impl ActQuant {
    /// Fits the quantizer to the value range of `data`, widened to include
    /// 0.0 so the zero code is exact. Non-finite values are ignored during
    /// the range scan; a degenerate (empty or all-zero) range yields the
    /// identity-ish quantizer `scale = 1, zero_point = 0`.
    pub fn fit(data: &[f32]) -> ActQuant {
        // Eight running bounds, so the scan vectorizes; the tail is padded
        // with 0.0, and a non-finite value counts as 0.0, which the range
        // holds already. Min and max are exact, so the striping cannot show.
        let (chunks, tail) = data.as_chunks::<8>();
        let mut last = [0.0f32; 8];
        last[..tail.len()].copy_from_slice(tail);
        let (mut lo, mut hi) = ([0.0f32; 8], [0.0f32; 8]);
        for c in chunks.iter().chain([&last]) {
            for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(c) {
                let v = if v.is_finite() { v } else { 0.0 };
                *l = l.min(v);
                *h = h.max(v);
            }
        }
        let lo = lo.into_iter().fold(0.0f32, f32::min);
        let hi = hi.into_iter().fold(0.0f32, f32::max);
        if hi <= lo {
            return ActQuant { scale: 1.0, zero_point: 0 };
        }
        let scale = (hi - lo) / 255.0;
        // Code for 0.0: −128 maps to `lo`, so zero sits at −128 − lo/scale.
        let zp = (-128.0 - lo / scale).round().clamp(-128.0, 127.0) as i8;
        ActQuant { scale, zero_point: zp }
    }

    /// Quantizes a buffer into `dst` (`dst.len()` must equal `src.len()`):
    /// `round(v · (1/scale)) + zero_point` (half away from zero), saturated
    /// to `[−128, 127]`. `+inf` gives 127, `−inf` −128 and NaN the zero
    /// point.
    pub fn quantize_into(&self, src: &[f32], dst: &mut [i8]) {
        debug_assert_eq!(src.len(), dst.len());
        let inv = 1.0 / self.scale;
        let zp = i32::from(self.zero_point);
        for (d, &v) in dst.iter_mut().zip(src.iter()) {
            // Past ±256 every code saturates whatever the zero point, so
            // the clamp changes no code and keeps the sum below in range.
            let y = (v * inv).clamp(-256.0, 256.0);
            // `f32::round` without its library call, so the loop
            // vectorizes: `t` truncates (NaN casts to 0) and `y − t` is
            // exact. Equal to `y.round()` on every f32.
            let t = y as i32;
            let f = y - t as f32;
            let r = t + i32::from(f >= 0.5) - i32::from(f <= -0.5);
            *d = (r + zp).clamp(-128, 127) as i8;
        }
    }

    /// Dequantizes one code.
    pub fn dequantize(&self, code: i8) -> f32 {
        (i32::from(code) - i32::from(self.zero_point)) as f32 * self.scale
    }
}

/// Quantized "same" 1-D convolution for one sample, on the integer
/// register tile [`simd::qgemm_tile`]: `out[co·l + t] = Σ_ci Σ_j
/// w[co, ci, j] · xpad[ci][t + j]` in i32, where `xpad[ci]` is row `ci` of
/// `qx` padded with `pl = (kernel − 1)/2` codes `pad` on the left and the
/// rest on the right.
///
/// The tile reads the padded codes in place, two taps per step: each
/// channel becomes one row of i16 pairs `(xpad[s], xpad[s+1])`, each
/// filter's taps the pairs `(w[2m], w[2m+1])` with a zero partner for odd
/// `kernel`, and tap pair `m` of output `t` is pair `t + 2m` of the row.
///
/// `w` must be a `[cout, cin·kernel]` [`QuantizedMatrix`] (the flattened
/// conv weight), `qx` the quantized `[cin, l]` activation map, `pad` the
/// activation zero-point code. `pairs` is a caller-owned scratch buffer
/// for both operands' pairs, grown as needed and never shrunk; `out` must
/// hold `cout · l` elements. Integer-exact: bitwise identical on every
/// SIMD backend.
#[allow(clippy::too_many_arguments)]
pub fn qconv1d_same_into(
    out: &mut [i32],
    pairs: &mut Vec<i32>,
    qx: &[i8],
    cin: usize,
    l: usize,
    w: &QuantizedMatrix,
    kernel: usize,
    pad: i8,
) -> Result<()> {
    if cin == 0 || l == 0 || kernel == 0 {
        return Err(TensorError::Empty { op: "qconv1d_same_into" });
    }
    if w.k() != cin * kernel {
        return Err(TensorError::LengthMismatch { len: w.k(), expected: cin * kernel });
    }
    if qx.len() != cin * l {
        return Err(TensorError::LengthMismatch { len: qx.len(), expected: cin * l });
    }
    if out.len() != w.rows() * l {
        return Err(TensorError::LengthMismatch { len: out.len(), expected: w.rows() * l });
    }
    let _prof = lightts_obs::prof::scope("qconv.same");
    let (pl, _pr) = crate::conv::same_padding(kernel);
    let (half, lp) = (kernel.div_ceil(2), l + kernel - 1);
    let steps = cin * half;
    let need = w.rows() * steps + cin * lp;
    if pairs.len() < need {
        pairs.resize(need, 0);
    }
    let (wp, xp) = pairs[..need].split_at_mut(w.rows() * steps);
    for (dst, taps) in wp.chunks_exact_mut(half).zip(w.data().chunks_exact(kernel)) {
        let two = taps.chunks_exact(2);
        if let [last] = two.remainder() {
            dst[half - 1] = simd::i16_pair(*last, 0);
        }
        for (d, tap) in dst.iter_mut().zip(two) {
            *d = simd::i16_pair(tap[0], tap[1]);
        }
    }
    let edge = simd::i16_pair(pad, pad);
    for (dst, row) in xp.chunks_exact_mut(lp).zip(qx.chunks_exact(l)) {
        let (head, rest) = dst.split_at_mut(pl);
        let (body, tail) = rest.split_at_mut(l);
        head.fill(edge);
        if let Some(h) = head.last_mut() {
            *h = simd::i16_pair(pad, row[0]);
        }
        for ((d, &lo), &hi) in body.iter_mut().zip(row).zip(&row[1..]) {
            *d = simd::i16_pair(lo, hi);
        }
        body[l - 1] = simd::i16_pair(row[l - 1], pad);
        tail.fill(edge);
    }
    // A = filter pairs [cout, cin·half], B = pair rows read in place ⇒
    // out [cout, l], exactly the channel-major layout the f32 plan produces.
    let tile = Tile {
        rows: w.rows(),
        k: steps,
        n: l,
        ldc: l,
        lda: steps,
        b_step: 2,
        b_run: half,
        b_jump: lp,
    };
    out.fill(0);
    simd::qgemm_tile(out, wp, xp, &tile);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_roundtrip_error_is_bounded() {
        let src: Vec<f32> = (0..64).map(|i| ((i * 7 + 3) % 29) as f32 / 7.0 - 2.0).collect();
        let qm = QuantizedMatrix::quantize_rows_symmetric(&src, 4, 16).unwrap();
        for r in 0..4 {
            let deq = qm.dequantize_row(r);
            let half_step = qm.scales()[r] * 0.5;
            for (a, b) in src[r * 16..(r + 1) * 16].iter().zip(&deq) {
                assert!((a - b).abs() <= half_step + 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_row_quantizes_exactly() {
        let src = vec![0.0f32; 8];
        let qm = QuantizedMatrix::quantize_rows_symmetric(&src, 1, 8).unwrap();
        assert_eq!(qm.scales()[0], 1.0);
        assert!(qm.data().iter().all(|&q| q == 0));
        assert_eq!(qm.row_sums()[0], 0);
    }

    #[test]
    fn act_quant_zero_is_exact() {
        for data in [
            vec![-1.5f32, 0.25, 3.0, 0.0],
            vec![0.1f32, 2.0, 5.5],
            vec![-4.0f32, -0.5],
            vec![0.0f32; 3],
        ] {
            let aq = ActQuant::fit(&data);
            let mut code = [0i8];
            aq.quantize_into(&[0.0], &mut code);
            assert_eq!(code[0], aq.zero_point);
            assert_eq!(aq.dequantize(aq.zero_point), 0.0);
        }
    }

    #[test]
    fn act_quant_roundtrip_error_is_bounded() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32) * 0.13 - 6.0).collect();
        let aq = ActQuant::fit(&data);
        let mut codes = vec![0i8; data.len()];
        aq.quantize_into(&data, &mut codes);
        for (&v, &q) in data.iter().zip(&codes) {
            assert!((v - aq.dequantize(q)).abs() <= aq.scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn fit_ignores_non_finite_values_in_every_stripe_and_the_tail() {
        let finite: Vec<f32> = (0..21).map(|i| (i as f32 - 6.5) * 0.37).collect();
        for n in 0..=finite.len() {
            let mut data = finite[..n].to_vec();
            for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].into_iter().enumerate() {
                data.insert((i * 5).min(data.len()), bad);
            }
            assert_eq!(ActQuant::fit(&data), ActQuant::fit(&finite[..n]), "n={n}");
        }
    }

    #[test]
    fn quantize_saturates_non_finite_values_and_keeps_finite_codes() {
        let aq = ActQuant::fit(&[-1.0, 0.0]);
        assert_eq!(aq.zero_point, 127);
        let aq_low = ActQuant::fit(&[0.0, 1.0]);
        assert_eq!(aq_low.zero_point, -128);
        for (q, v, want) in [
            (aq, f32::INFINITY, 127),
            (aq_low, f32::INFINITY, 127),
            (aq, f32::NEG_INFINITY, -128),
            (aq_low, f32::NEG_INFINITY, -128),
            (aq, f32::NAN, 127),
            (aq_low, f32::NAN, -128),
            // Rounds to 46 through `1/scale`, to 47 through a division.
            (ActQuant::fit(&[-1.357_932_7, 9.360_484]), 5.989_703_7, 46),
        ] {
            let mut code = [0i8];
            q.quantize_into(&[v], &mut code);
            assert_eq!(code[0], want, "{v} with {q:?}");
        }
    }

    #[test]
    fn qconv_matches_dequantized_f32_conv_on_identity() {
        // k=1 identity kernel: quantized conv must reproduce the quantized
        // input codes times the weight scale.
        let qx: Vec<i8> = vec![-3, 0, 5, 7];
        let w = QuantizedMatrix::quantize_rows_symmetric(&[1.0], 1, 1).unwrap();
        let mut out = vec![0i32; 4];
        let mut pairs = Vec::new();
        qconv1d_same_into(&mut out, &mut pairs, &qx, 1, 4, &w, 1, 0).unwrap();
        let wq = i32::from(w.data()[0]);
        let want: Vec<i32> = qx.iter().map(|&q| i32::from(q) * wq).collect();
        assert_eq!(out, want);
    }
}

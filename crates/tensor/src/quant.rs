//! Uniform quantization (paper Section 2.3, Figure 4).
//!
//! LightTS compresses student models by storing layer parameters with a
//! reduced bit-width `b ∈ {4, 8, 16, 32}`. Uniform quantization maps a
//! full-precision value into one of `2^b` evenly spaced buckets spanning the
//! observed `[min, max]` range of the tensor, then represents it by the
//! bucket's midpoint value (Figure 4: `8.623728 ∈ [7.5, 12.5) → 10 → 101₂`).
//!
//! During quantization-aware training the forward pass uses the dequantized
//! values while the backward pass uses the straight-through estimator (the
//! [`Op::FakeQuant`](crate::tape::Op) rule is the identity), matching the
//! standard practice the paper builds on (\[23\] in the paper).

use crate::{Result, Tensor, TensorError};

/// Parameters of a fitted uniform quantizer: the affine map between the
/// integer code space `{0, …, 2^bits − 1}` and the real line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Bit-width of the code space.
    pub bits: u8,
    /// Real value represented by code 0.
    pub zero_point: f32,
    /// Real-valued distance between adjacent codes.
    pub step: f32,
}

impl QuantParams {
    /// Fits a uniform quantizer to the value range of `data`.
    ///
    /// `bits` must be in `1..=32`. Degenerate ranges (constant tensors)
    /// produce a zero step so every value round-trips exactly.
    pub fn fit(data: &[f32], bits: u8) -> Result<Self> {
        if bits == 0 || bits > 32 {
            return Err(TensorError::InvalidArgument { what: "bits must be in 1..=32" });
        }
        if data.is_empty() {
            return Err(TensorError::Empty { op: "QuantParams::fit" });
        }
        let (lo, hi) = range(data);
        let levels = if bits >= 31 { u32::MAX } else { (1u32 << bits) - 1 };
        let step = if hi > lo { (hi - lo) / levels as f32 } else { 0.0 };
        Ok(QuantParams { bits, zero_point: lo, step })
    }

    /// Number of representable levels.
    pub fn levels(&self) -> u64 {
        1u64 << self.bits.min(32)
    }

    /// Quantizes a single value: encode then decode ("fake quantization").
    #[inline]
    pub fn quantize(&self, v: f32) -> f32 {
        if self.step == 0.0 {
            return self.zero_point;
        }
        let max_code = (self.levels() - 1) as f32;
        let code = ((v - self.zero_point) / self.step).round().clamp(0.0, max_code);
        self.zero_point + code * self.step
    }

    /// Encodes a value to its integer code.
    #[inline]
    pub fn encode(&self, v: f32) -> u32 {
        if self.step == 0.0 {
            return 0;
        }
        let max_code = (self.levels() - 1) as f32;
        ((v - self.zero_point) / self.step).round().clamp(0.0, max_code) as u32
    }

    /// Decodes an integer code back to its real value.
    #[inline]
    pub fn decode(&self, code: u32) -> f32 {
        self.zero_point + code as f32 * self.step
    }
}

/// The smallest and the largest value of `data`, NaN ignored, with the bits
/// of one serial `f32::min` / `f32::max` chain from `±inf`.
///
/// Eight running bounds, so the scan vectorizes. Min and max are exact, so
/// the striping cannot show in a non-zero bound; the sign of a zero bound
/// depends on the order in which `+0.0` and `−0.0` meet, so then the serial
/// chain runs.
fn range(data: &[f32]) -> (f32, f32) {
    let serial = |d: &[f32]| {
        d.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    };
    let (chunks, tail) = data.as_chunks::<8>();
    let (mut lo, mut hi) = ([f32::INFINITY; 8], [f32::NEG_INFINITY; 8]);
    for c in chunks {
        for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(c) {
            *l = l.min(v);
            *h = h.max(v);
        }
    }
    let (tail_lo, tail_hi) = serial(tail);
    let lo = lo.into_iter().fold(tail_lo, f32::min);
    let hi = hi.into_iter().fold(tail_hi, f32::max);
    if lo == 0.0 || hi == 0.0 {
        serial(data)
    } else {
        (lo, hi)
    }
}

/// Quantizes a whole tensor with a quantizer fitted to its own range,
/// returning the dequantized ("fake-quantized") tensor.
///
/// 32-bit quantization is the identity, matching the paper's use of 32 bits
/// to denote full precision. Every element gets [`QuantParams::quantize`]'s
/// bits, written in one pass by the [`crate::simd::fake_quant`] kernel. The
/// result's buffer comes from the thread-local [`crate::pool`], so the
/// per-step weight re-quantization in QAT training loops is
/// allocation-free once the pool is warm.
pub fn fake_quantize(t: &Tensor, bits: u8) -> Result<Tensor> {
    if bits >= 32 {
        return Ok(t.clone());
    }
    let qp = QuantParams::fit(t.data(), bits)?;
    if qp.step == 0.0 {
        return Ok(Tensor::full(t.dims(), qp.zero_point));
    }
    let mut out = crate::pool::take_empty(t.len());
    let max_code = (qp.levels() - 1) as f32;
    crate::simd::fake_quant(&mut out, t.data(), qp.zero_point, qp.step, max_code);
    Tensor::from_vec(out, t.dims())
}

/// Maximum absolute round-trip error of a uniform quantizer over a range:
/// half a quantization step.
pub fn max_roundtrip_error(qp: &QuantParams) -> f32 {
    0.5 * qp.step
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn paper_figure4_example() {
        // Figure 4: range [0, 35] quantized to 3 bits gives buckets of width
        // 5 with representative values {0, 5, 10, ..., 35}; 8.623728 → 10.
        let data: Vec<f32> = vec![0.0, 35.0];
        let qp = QuantParams::fit(&data, 3).unwrap();
        assert!((qp.step - 5.0).abs() < 1e-6);
        assert!((qp.quantize(8.623_728) - 10.0).abs() < 1e-5);
        assert_eq!(qp.encode(8.623_728), 2);
    }

    #[test]
    fn fit_rejects_bad_bits() {
        assert!(QuantParams::fit(&[1.0], 0).is_err());
        assert!(QuantParams::fit(&[1.0], 33).is_err());
        assert!(QuantParams::fit(&[], 8).is_err());
    }

    #[test]
    fn constant_tensor_roundtrips_exactly() {
        let t = Tensor::full(&[4], 3.25);
        let q = fake_quantize(&t, 4).unwrap();
        assert_eq!(q.data(), t.data());
    }

    #[test]
    fn thirty_two_bits_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn(&mut rng, &[64], 1.0);
        let q = fake_quantize(&t, 32).unwrap();
        assert_eq!(q, t);
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_step() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::randn(&mut rng, &[256], 2.0);
        for &bits in &[2u8, 4, 8, 16] {
            let qp = QuantParams::fit(t.data(), bits).unwrap();
            let bound = max_roundtrip_error(&qp) + 1e-5;
            let q = fake_quantize(&t, bits).unwrap();
            for (a, b) in t.data().iter().zip(q.data().iter()) {
                assert!((a - b).abs() <= bound, "bits={bits}: |{a} - {b}| > {bound}");
            }
        }
    }

    #[test]
    fn more_bits_never_hurts() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn(&mut rng, &[128], 1.0);
        let err = |bits: u8| {
            let q = fake_quantize(&t, bits).unwrap();
            t.sub(&q).unwrap().norm_sq()
        };
        assert!(err(8) <= err(4));
        assert!(err(16) <= err(8));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let data = vec![-1.0f32, 0.0, 0.5, 1.0];
        let qp = QuantParams::fit(&data, 8).unwrap();
        for &v in &data {
            let code = qp.encode(v);
            assert!((qp.decode(code) - qp.quantize(v)).abs() < 1e-6);
        }
    }

    /// `range` against the serial chain it replaces, bit for bit, on every
    /// length up to five whole lanes and a tail, over palettes of ±0, NaN,
    /// ±inf and finite values (with and without negatives, so a zero bound
    /// comes up in the lanes).
    #[test]
    fn range_gives_the_serial_chains_bits() {
        let palettes: [&[f32]; 3] = [
            &[0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.25],
            &[0.0, -0.0, f32::NAN, 0.5, 3.0],
            &[0.0, -0.0, f32::NAN, -0.5, -3.0],
        ];
        let mut s = 7u32;
        for palette in palettes {
            for n in 1..=47 {
                for _ in 0..20 {
                    let data: Vec<f32> = (0..n)
                        .map(|_| {
                            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                            palette[(s >> 16) as usize % palette.len()]
                        })
                        .collect();
                    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                    for &v in &data {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                    let got = range(&data);
                    assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (lo.to_bits(), hi.to_bits()),
                        "{data:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_and_max_are_representable() {
        let data = vec![-3.5f32, 0.0, 7.25];
        for bits in [2u8, 4, 8] {
            let qp = QuantParams::fit(&data, bits).unwrap();
            assert!((qp.quantize(-3.5) - -3.5).abs() < 1e-5);
            assert!((qp.quantize(7.25) - 7.25).abs() < 1e-4);
        }
    }
}

//! The parameter-store codec, in a packed and an exact form.
//!
//! The LightTS size metric (`Σ params × bits`) is only honest if a deployed
//! model can actually be *stored* at that size. [`StoreForm::Packed`]
//! provides that: each quantized tensor is encoded with its fitted uniform
//! quantizer ([`QuantParams`]) and its integer codes bit-packed
//! back-to-back, so a 4-bit layer really occupies 4 bits per weight (plus a
//! small fixed header per tensor). Decoding reproduces exactly the
//! dequantized values the quantized forward pass uses — a loaded model is
//! bit-identical to the trained one in `eval` mode. [`StoreForm::Exact`]
//! keeps the raw `f32` values instead, for checkpoints.
//!
//! The codec writes a section payload, not a file: model exports and
//! checkpoints frame it in the checksummed container of
//! [`lightts_obs::checkpoint`]. It still checks every length and bounds
//! every allocation itself, since a crafted file can carry a valid
//! checksum.
//!
//! Payload (little-endian):
//!
//! ```text
//! tensor count u32
//! per tensor: name (u16 len + UTF-8) | bits u8 | rank u8 | dims u32×rank
//!   packed form, bits < 32: zero_point f32 | step f32 | ⌈len·bits/8⌉ code bytes
//!   otherwise:              len × f32
//! ```

use crate::{NnError, ParamStore, Result};
use lightts_obs::checkpoint::{put_str, Cursor};
use lightts_tensor::quant::QuantParams;
use lightts_tensor::Tensor;

/// Upper bound on the elements of one stored tensor; a larger claim is
/// refused before anything is allocated for it.
const MAX_TENSOR_ELEMS: usize = 64 * 1024 * 1024;

fn bad(what: impl Into<String>) -> NnError {
    NnError::BadConfig { what: what.into() }
}

/// A bit-level writer packing integer codes of a fixed width.
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new(capacity_bits: usize) -> Self {
        BitWriter { out: Vec::with_capacity(capacity_bits.div_ceil(8)), acc: 0, nbits: 0 }
    }

    fn push(&mut self, code: u32, bits: u8) {
        self.acc |= u64::from(code) << self.nbits;
        self.nbits += u32::from(bits);
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// A bit-level reader matching [`BitWriter`].
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    fn pull(&mut self, bits: u8) -> Result<u32> {
        while self.nbits < u32::from(bits) {
            let byte = *self.data.get(self.pos).ok_or_else(|| bad("packed stream truncated"))?;
            self.acc |= u64::from(byte) << self.nbits;
            self.nbits += 8;
            self.pos += 1;
        }
        let mask = if bits >= 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let code = (self.acc as u32) & mask;
        self.acc >>= bits;
        self.nbits -= u32::from(bits);
        Ok(code)
    }
}

/// Which values the store codec keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreForm {
    /// The deployment form: tensors below 32 bits are quantized with a
    /// per-tensor uniform quantizer and bit-packed; they load dequantized,
    /// with their bit-width kept for size accounting.
    Packed,
    /// The checkpoint form: every tensor as raw `f32`, its bit-width kept
    /// as metadata. Mid-training a parameter's value is the full-precision
    /// shadow weight the quantized forward pass is a view of, and resuming
    /// from a quantized snapshot would diverge from the uninterrupted run
    /// on the next gradient step.
    Exact,
}

/// Encodes `store` in the given form.
pub fn encode_store(store: &ParamStore, form: StoreForm) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for (_, p) in store.iter() {
        if p.name.len() > usize::from(u16::MAX) {
            return Err(bad(format!("parameter name of {} bytes", p.name.len())));
        }
        put_str(&mut buf, &p.name);
        buf.push(p.bits);
        if form == StoreForm::Exact || p.bits >= 32 {
            put_tensor(&mut buf, &p.value);
            continue;
        }
        put_dims(&mut buf, p.value.dims());
        let qp = QuantParams::fit(p.value.data(), p.bits)?;
        buf.extend_from_slice(&qp.zero_point.to_le_bytes());
        buf.extend_from_slice(&qp.step.to_le_bytes());
        let mut writer = BitWriter::new(p.value.len() * p.bits as usize);
        for &v in p.value.data() {
            writer.push(qp.encode(v), p.bits);
        }
        buf.extend_from_slice(&writer.finish());
    }
    Ok(buf)
}

/// Decodes a store written by [`encode_store`] in the same form.
///
/// Exact-form values come back bit-identical; packed-form values come back
/// as the dequantized values the quantized forward pass uses.
pub fn decode_store(bytes: &[u8], form: StoreForm) -> Result<ParamStore> {
    let mut c = Cursor::new(bytes);
    let count = c.u32()?;
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name = c.str()?.to_string();
        let bits = c.u8()?;
        if bits == 0 || bits > 32 {
            return Err(bad(format!("{name}: bad bit-width {bits}")));
        }
        let value = if form == StoreForm::Exact || bits >= 32 {
            read_tensor(&mut c)?
        } else {
            let (dims, len) = read_dims(&mut c)?;
            let qp = QuantParams { bits, zero_point: c.f32()?, step: c.f32()? };
            let mut reader = BitReader::new(c.take((len * bits as usize).div_ceil(8))?);
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(qp.decode(reader.pull(bits)?));
            }
            Tensor::from_vec(data, &dims)?
        };
        store.register(name, value, bits);
    }
    c.finish()?;
    Ok(store)
}

fn put_dims(buf: &mut Vec<u8>, dims: &[usize]) {
    buf.push(u8::try_from(dims.len()).expect("tensor rank fits in u8"));
    for &d in dims {
        buf.extend_from_slice(&u32::try_from(d).expect("tensor dim fits in u32").to_le_bytes());
    }
}

/// Reads dims written by `put_dims` and returns them with their element
/// count, refusing (with checked arithmetic) any count above
/// [`MAX_TENSOR_ELEMS`].
fn read_dims(c: &mut Cursor<'_>) -> Result<(Vec<usize>, usize)> {
    let rank = c.u8()?;
    let dims = (0..rank).map(|_| Ok(c.u32()? as usize)).collect::<Result<Vec<_>>>()?;
    let len = dims
        .iter()
        .try_fold(1usize, |len, &d| len.checked_mul(d).filter(|&l| l <= MAX_TENSOR_ELEMS))
        .ok_or_else(|| bad("implausibly large tensor"))?;
    Ok((dims, len))
}

/// Appends a tensor as its dims then its raw `f32` values.
pub(crate) fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    put_dims(buf, t.dims());
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads a tensor written by [`put_tensor`], bit-identically.
pub(crate) fn read_tensor(c: &mut Cursor<'_>) -> Result<Tensor> {
    let (dims, len) = read_dims(c)?;
    let data =
        c.take(len * 4)?.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    Ok(Tensor::from_vec(data.collect(), &dims)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_tensor::quant::fake_quantize;
    use lightts_tensor::rng::seeded;

    fn sample_store() -> ParamStore {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        store.register("conv.weight", Tensor::randn(&mut rng, &[4, 2, 5], 1.0), 4);
        store.register("conv.bias", Tensor::randn(&mut rng, &[4], 0.1), 8);
        store.register("bn.gamma", Tensor::ones(&[4]), 32);
        store.register("fc.weight", Tensor::randn(&mut rng, &[4, 3], 0.5), 16);
        store
    }

    #[test]
    fn roundtrip_preserves_quantized_values() {
        let store = sample_store();
        let bytes = encode_store(&store, StoreForm::Packed).unwrap();
        let loaded = decode_store(&bytes, StoreForm::Packed).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((_, a), (_, b)) in store.iter().zip(loaded.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.bits, b.bits);
            assert_eq!(a.value.dims(), b.value.dims());
            // loaded values equal the *dequantized* originals
            let expect = fake_quantize(&a.value, a.bits).unwrap();
            for (x, y) in expect.data().iter().zip(b.value.data().iter()) {
                assert!((x - y).abs() < 1e-5, "{}: {x} vs {y}", a.name);
            }
        }
    }

    #[test]
    fn roundtrip_is_idempotent_on_loaded_models() {
        // encode(decode(bytes)) == bytes: quantization is stable
        let store = sample_store();
        let b1 = encode_store(&store, StoreForm::Packed).unwrap();
        let loaded = decode_store(&b1, StoreForm::Packed).unwrap();
        let b2 = encode_store(&loaded, StoreForm::Packed).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn packed_size_tracks_bit_width() {
        let mut rng = seeded(2);
        let mut mk = |bits: u8| {
            let mut s = ParamStore::new();
            s.register("w", Tensor::randn(&mut rng, &[1000], 1.0), bits);
            encode_store(&s, StoreForm::Packed).unwrap().len()
        };
        let s4 = mk(4);
        let s8 = mk(8);
        let s32 = mk(32);
        // payloads: 500 vs 1000 vs 4000 bytes (+ constant header)
        assert!(s8 - s4 > 400, "4-bit packing saves: {s4} vs {s8}");
        assert!(s32 - s8 > 2500);
    }

    #[test]
    fn exact_roundtrip_is_bit_identical() {
        let store = sample_store();
        let bytes = encode_store(&store, StoreForm::Exact).unwrap();
        let loaded = decode_store(&bytes, StoreForm::Exact).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((_, a), (_, b)) in store.iter().zip(loaded.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.bits, b.bits, "{}: bit-width metadata must survive", a.name);
            assert_eq!(a.value.dims(), b.value.dims());
            for (x, y) in a.value.data().iter().zip(b.value.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}: {x} vs {y}", a.name);
            }
        }
    }

    #[test]
    fn bitpacking_roundtrip_exhaustive_small() {
        for bits in [1u8, 3, 4, 5, 7, 8, 12, 16] {
            let max = if bits >= 16 { 65_535 } else { (1u32 << bits) - 1 };
            let codes: Vec<u32> =
                (0..50u64).map(|i| ((i * 2_654_435_761) % u64::from(max + 1)) as u32).collect();
            let mut w = BitWriter::new(codes.len() * bits as usize);
            for &c in &codes {
                w.push(c, bits);
            }
            let packed = w.finish();
            assert_eq!(packed.len(), (codes.len() * bits as usize).div_ceil(8));
            let mut r = BitReader::new(&packed);
            for &c in &codes {
                assert_eq!(r.pull(bits).unwrap(), c, "bits={bits}");
            }
        }
    }
}

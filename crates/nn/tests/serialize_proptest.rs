//! Property tests for the store codec: round-trips over random
//! `ParamStore` shapes, and hostile payloads (truncation, overwritten
//! bytes) that must fail with `Err`, never panic or abort. The payloads
//! here carry no checksum, which is what a crafted file with a valid
//! container checksum hands the codec.

use lightts_nn::serialize::{decode_store, encode_store, StoreForm};
use lightts_nn::ParamStore;
use lightts_tensor::quant::fake_quantize;
use lightts_tensor::Tensor;
use proptest::prelude::*;

/// Max extent per dimension / tensors per store used by the strategies
/// (the vendored proptest has no dependent strategies, so data is drawn at
/// the maximum size and sliced down).
const MAX_D: usize = 5;
const MAX_TENSORS: usize = 4;
const MAX_ELEMS: usize = MAX_D * MAX_D * MAX_D;

fn build_store(
    n: usize,
    ranks: &[usize],
    dims: &[(usize, usize, usize)],
    bits: &[u8],
    data: &[f32],
) -> ParamStore {
    let mut store = ParamStore::new();
    for i in 0..n {
        let (d1, d2, d3) = dims[i];
        let shape: Vec<usize> = match ranks[i] {
            1 => vec![d1],
            2 => vec![d1, d2],
            _ => vec![d1, d2, d3],
        };
        let len: usize = shape.iter().product();
        let values = data[i * MAX_ELEMS..i * MAX_ELEMS + len].to_vec();
        store.register(format!("p{i}"), Tensor::from_vec(values, &shape).unwrap(), bits[i]);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_over_random_store_shapes(
        n in 1usize..MAX_TENSORS + 1,
        ranks in proptest::collection::vec(1usize..4, MAX_TENSORS),
        dims in proptest::collection::vec(
            (1usize..MAX_D + 1, 1usize..MAX_D + 1, 1usize..MAX_D + 1), MAX_TENSORS),
        bits in proptest::collection::vec(
            proptest::sample::select(vec![1u8, 2, 3, 4, 7, 8, 12, 16, 32]), MAX_TENSORS),
        data in proptest::collection::vec(-3.0f32..3.0, MAX_TENSORS * MAX_ELEMS),
    ) {
        let store = build_store(n, &ranks, &dims, &bits, &data);
        let bytes = encode_store(&store, StoreForm::Packed).unwrap();
        let loaded = decode_store(&bytes, StoreForm::Packed).unwrap();
        prop_assert_eq!(loaded.len(), store.len());
        for ((_, a), (_, b)) in store.iter().zip(loaded.iter()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.bits, b.bits);
            prop_assert_eq!(a.value.dims(), b.value.dims());
            // loaded values are the dequantized originals
            let expect = fake_quantize(&a.value, a.bits).unwrap();
            for (x, y) in expect.data().iter().zip(b.value.data().iter()) {
                prop_assert!((x - y).abs() < 1e-5, "{}: {} vs {}", a.name, x, y);
            }
        }

        // quantization is stable: encode ∘ decode is the identity on the
        // stored bytes
        let again = encode_store(&loaded, StoreForm::Packed).unwrap();
        prop_assert_eq!(bytes, again);
    }

    #[test]
    fn truncation_always_errs_never_panics(
        n in 1usize..MAX_TENSORS + 1,
        ranks in proptest::collection::vec(1usize..4, MAX_TENSORS),
        dims in proptest::collection::vec(
            (1usize..MAX_D + 1, 1usize..MAX_D + 1, 1usize..MAX_D + 1), MAX_TENSORS),
        bits in proptest::collection::vec(
            proptest::sample::select(vec![1u8, 4, 8, 32]), MAX_TENSORS),
        data in proptest::collection::vec(-3.0f32..3.0, MAX_TENSORS * MAX_ELEMS),
    ) {
        let store = build_store(n, &ranks, &dims, &bits, &data);
        // every proper prefix must be rejected cleanly, in both forms
        for form in [StoreForm::Packed, StoreForm::Exact] {
            let bytes = encode_store(&store, form).unwrap();
            for cut in 0..bytes.len() {
                prop_assert!(
                    decode_store(&bytes[..cut], form).is_err(),
                    "{:?} prefix of {} bytes (of {}) was accepted", form, cut, bytes.len()
                );
            }
        }
    }

    #[test]
    fn corrupted_bytes_never_panic(
        n in 1usize..MAX_TENSORS + 1,
        ranks in proptest::collection::vec(1usize..4, MAX_TENSORS),
        dims in proptest::collection::vec(
            (1usize..MAX_D + 1, 1usize..MAX_D + 1, 1usize..MAX_D + 1), MAX_TENSORS),
        bits in proptest::collection::vec(
            proptest::sample::select(vec![1u8, 4, 8, 32]), MAX_TENSORS),
        data in proptest::collection::vec(-3.0f32..3.0, MAX_TENSORS * MAX_ELEMS),
        flips in proptest::collection::vec((0usize..1 << 16, 0usize..256), 8),
    ) {
        let store = build_store(n, &ranks, &dims, &bits, &data);
        let base = encode_store(&store, StoreForm::Packed).unwrap();
        // single- and multi-byte corruption: decoding may succeed (payload
        // bytes are data) or fail, but must never panic / overflow / OOM
        let mut corrupted = base.to_vec();
        for &(pos, val) in &flips {
            corrupted[pos % base.len()] = val as u8;
            let _ = decode_store(&corrupted, StoreForm::Packed);
            let _ = decode_store(&corrupted, StoreForm::Exact);
        }
        // all-0xFF dims/lengths: the classic overflow-then-allocate attack.
        // The count, the first name ("p0") and its bit-width stay intact;
        // its rank, dims and everything after become 0xFF.
        let mut hostile = base.to_vec();
        for b in hostile.iter_mut().skip(4 + 2 + 2 + 1) {
            *b = 0xFF;
        }
        prop_assert!(decode_store(&hostile, StoreForm::Packed).is_err());
        prop_assert!(decode_store(&hostile, StoreForm::Exact).is_err());
    }
}

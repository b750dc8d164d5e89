//! Bitwise tests for the GEMM-lowered conv kernels.
//!
//! The three conv passes run two kernels, both lowerings onto the register
//! tile `simd::gemm_tile` (see `src/conv.rs`): the input gradient is the
//! forward kernel run on `dy` with the weights transposed and flipped and
//! the padding mirrored. This suite pins the bits of all three passes,
//! under every SIMD backend the CPU supports, to slab references written
//! here from public primitives: an explicit im2col/im2row unfold and
//! `gemm_row_with` per output row, which state each association
//! independently of the tile's layout — the forward chained over
//! `(ci, j)`; the input gradient chained over `(co, j')` for the flipped
//! tap `j' = k−1−j`, with `pr` zeros on the left; one chain over `(b, t)`
//! per weight. This covers AVX2 and AVX-512, where the golden training
//! fixture (scalar) cannot see the bits; both slab references run the same
//! AVX2 `gemm_row`, so the AVX-512 passes must also give the AVX2 bits. Agreement with the math is checked
//! separately, against f64 brute-force references and finite
//! differences, in `kernel_reference.rs`.
//!
//! Shapes deliberately include kernels **longer than the sequence**
//! (`k > l`, where the pad exceeds the sequence) and **even** kernel widths
//! (asymmetric "same" padding). The test switches the process-wide SIMD
//! backend, so every test of this binary holds [`backend_lock`].

use lightts_tensor::conv::{
    conv1d_backward_input, conv1d_backward_weight, conv1d_forward, same_padding,
};
use lightts_tensor::simd::{backend, cpu_supports, gemm_row_with, set_simd_backend, SimdBackend};
use lightts_tensor::Tensor;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this binary around the process-wide backend.
static BACKEND: Mutex<()> = Mutex::new(());

fn backend_lock() -> MutexGuard<'static, ()> {
    BACKEND.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Slab references: the lowered passes, bit for bit, on every backend
// ---------------------------------------------------------------------

/// A "same" convolution with `pl` zeros on the left, through an explicit
/// `[cin·k, l]` im2col slab of `x` and one `gemm_row_with` per output row:
/// `y_b[co] = w[co, :] · X_col`, chained over `(ci, j)` from `+0.0`.
fn slab_conv(bk: SimdBackend, x: &Tensor, w: &Tensor, pl: usize) -> Vec<f32> {
    let (b, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let (cout, k) = (w.dims()[0], w.dims()[2]);
    let ck = cin * k;
    let mut y = vec![0.0f32; b * cout * l];
    let mut xcol = vec![0.0f32; ck * l];
    for bi in 0..b {
        for ci in 0..cin {
            for j in 0..k {
                for t in 0..l {
                    let s = (t + j).checked_sub(pl).filter(|&s| s < l);
                    xcol[(ci * k + j) * l + t] =
                        s.map_or(0.0, |s| x.data()[(bi * cin + ci) * l + s]);
                }
            }
        }
        for co in 0..cout {
            let y_row = &mut y[(bi * cout + co) * l..(bi * cout + co + 1) * l];
            gemm_row_with(bk, y_row, &w.data()[co * ck..(co + 1) * ck], &xcol, ck, l);
        }
    }
    y
}

/// Input gradient as the "same" convolution of `dy` with the hand-packed
/// `W'[ci, co, j] = w[co, ci, k−1−j]` and the padding mirrored (`pr` zeros
/// on the left): an explicit `[cout·k, l]` unfold of `dy` and one
/// `gemm_row_with` per `dx` row, chained over `(co, j)` from `+0.0`.
fn slab_backward_input(bk: SimdBackend, dy: &Tensor, w: &Tensor) -> Vec<f32> {
    let (cout, cin, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    let mut wt = vec![0.0f32; cin * cout * k];
    for ci in 0..cin {
        for co in 0..cout {
            for j in 0..k {
                wt[(ci * cout + co) * k + j] = w.data()[(co * cin + ci) * k + k - 1 - j];
            }
        }
    }
    let wt = Tensor::from_vec(wt, &[cin, cout, k]).unwrap();
    slab_conv(bk, dy, &wt, same_padding(k).1)
}

/// Weight gradient through an explicit `[l, cin·k]` im2row slab per sample
/// and one `gemm_row_with` per `(sample, co)`, accumulating into `dw`:
/// one chain over `(b, t)` ascending per element.
fn slab_backward_weight(bk: SimdBackend, dy: &Tensor, x: &Tensor, k: usize) -> Vec<f32> {
    let (b, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let cout = dy.dims()[1];
    let (pl, ck) = (same_padding(k).0, cin * k);
    let mut dw = vec![0.0f32; cout * ck];
    let mut xrow = vec![0.0f32; l * ck];
    for bi in 0..b {
        for t in 0..l {
            for ci in 0..cin {
                for j in 0..k {
                    let s = (t + j).checked_sub(pl).filter(|&s| s < l);
                    xrow[t * ck + ci * k + j] =
                        s.map_or(0.0, |s| x.data()[(bi * cin + ci) * l + s]);
                }
            }
        }
        for co in 0..cout {
            let dy_row = &dy.data()[(bi * cout + co) * l..(bi * cout + co + 1) * l];
            gemm_row_with(bk, &mut dw[co * ck..(co + 1) * ck], dy_row, &xrow, l, ck);
        }
    }
    dw
}

/// Deterministic values in `[-2, 2)`, with exact zeros (of both signs)
/// where `zero(i)` holds.
fn data(n: usize, seed: u32, zero: impl Fn(usize) -> bool) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2_654_435_761).max(1);
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let v = ((s >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0;
            if zero(i) {
                if i % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                v
            }
        })
        .collect()
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:?} != {w:?}");
    }
}

/// `cout` runs through every remainder of the 6-row tile; `(l, k)` covers
/// `k = 1`, even `k`, `k > l`, the student's kernel lengths and lengths
/// that are not multiples of 8 or 16 (the weight gradient pads `k` to 16
/// columns under AVX-512 and to 8 otherwise); `cin` and `b` cycle through
/// 1..=3.
/// Zeros: scattered in `w` and `dy`, a whole output channel of `w`, every
/// weight at `j = 1` (so whole tile steps are skipped in the forward and
/// input gradient), and whole time steps of `dy` (skipped steps in the
/// weight gradient).
#[test]
fn lowered_passes_match_slab_references_bitwise_on_every_backend() {
    let _guard = backend_lock();
    let before = backend();
    let backends = [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512]
        .into_iter()
        .filter(|&bk| cpu_supports(bk));
    for bk in backends {
        assert_eq!(set_simd_backend(bk), bk);
        for cout in 1..=13usize {
            for (case, &(l, k)) in [
                (13usize, 1usize),
                (13, 16),
                (5, 40),
                (29, 4),
                (64, 10),
                (19, 40),
                (70, 5),
                (48, 20),
            ]
            .iter()
            .enumerate()
            {
                let (b, cin) = (1 + (cout + case) % 3, 1 + (cout + 2 * case) % 3);
                let seed = (cout * 31 + case) as u32;
                let x = data(b * cin * l, seed, |i| i % 17 == 5);
                let w = data(cout * cin * k, seed + 1, |i| {
                    let (co, j) = (i / (cin * k), i % k);
                    co == 2 || (k > 1 && j == 1) || i % 7 == 3
                });
                let dy = data(b * cout * l, seed + 2, |i| i % l % 9 == 4 || i % 11 == 6);
                let x = Tensor::from_vec(x, &[b, cin, l]).unwrap();
                let w = Tensor::from_vec(w, &[cout, cin, k]).unwrap();
                let dy = Tensor::from_vec(dy, &[b, cout, l]).unwrap();
                let what = format!("b={b} cin={cin} cout={cout} l={l} k={k} [{}]", bk.name());

                let y = conv1d_forward(&x, &w).unwrap();
                let want = slab_conv(bk, &x, &w, same_padding(k).0);
                assert_bits(y.data(), &want, &format!("forward {what}"));
                let dx = conv1d_backward_input(&dy, &w, x.dims()).unwrap();
                let want = slab_backward_input(bk, &dy, &w);
                assert_bits(dx.data(), &want, &format!("backward_input {what}"));
                let dw = conv1d_backward_weight(&dy, &x, w.dims()).unwrap();
                let want = slab_backward_weight(bk, &dy, &x, k);
                assert_bits(dw.data(), &want, &format!("backward_weight {what}"));
            }
        }
    }
    set_simd_backend(before);
}

//! Bitwise tests for the GEMM-lowered conv kernels and `Tensor::matmul`.
//!
//! The three conv passes run two kernels, both lowerings onto the register
//! tile `simd::gemm_tile` (see `src/conv.rs`): the input gradient is the
//! forward kernel run on `dy` with the weights transposed and flipped and
//! the padding mirrored. `Tensor::matmul` runs the same tile on a dense
//! layout. This suite pins the bits of all three passes and of the
//! workloads' dense products, under every SIMD backend the CPU supports,
//! to slab references written here: an explicit im2col/im2row unfold and
//! the plain chain `common::gemm_row_ref` per output row, which state each
//! association independently of the tile's layout — the forward chained
//! over `(ci, j)`; the input gradient chained over `(co, j')` for the
//! flipped tap `j' = k−1−j`, with `pr` zeros on the left; one chain over
//! `(b, t)` per weight; one chain over `k` per dense output. This covers
//! AVX2 and AVX-512, where the golden training fixture (scalar) cannot see
//! the bits; both fused backends are held to the same fused chain, so the
//! AVX-512 passes must also give the AVX2 bits. Agreement with the math is
//! checked separately, against f64 brute-force references and finite
//! differences, in `kernel_reference.rs`.
//!
//! Shapes deliberately include kernels **longer than the sequence**
//! (`k > l`, where the pad exceeds the sequence) and **even** kernel widths
//! (asymmetric "same" padding). The test switches the process-wide SIMD
//! backend, so every test of this binary holds [`backend_lock`].

use lightts_tensor::conv::{
    conv1d_backward_input, conv1d_backward_weight, conv1d_forward, same_padding,
};
mod common;

use common::{fuses, gemm_row_ref};
use lightts_tensor::simd::{backend, cpu_supports, set_simd_backend, SimdBackend};
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
/// `[cin·k, l]` im2col slab of `x` and one `gemm_row_ref` per output row:
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
            gemm_row_ref(y_row, &w.data()[co * ck..(co + 1) * ck], &xcol, ck, l, fuses(bk));
        }
    }
    y
}

/// Input gradient as the "same" convolution of `dy` with the hand-packed
/// `W'[ci, co, j] = w[co, ci, k−1−j]` and the padding mirrored (`pr` zeros
/// on the left): an explicit `[cout·k, l]` unfold of `dy` and one
/// `gemm_row_ref` per `dx` row, chained over `(co, j)` from `+0.0`.
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
/// and one `gemm_row_ref` per `(sample, co)`, accumulating into `dw`:
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
            gemm_row_ref(&mut dw[co * ck..(co + 1) * ck], dy_row, &xrow, l, ck, fuses(bk));
        }
    }
    dw
}

/// `Tensor::matmul` under the process-wide backend `bk`, against one
/// `gemm_row_ref` chain per output row, on the dense shapes the workloads
/// run: the search encoder's layers (hidden 48, latent 12, and the one-hot
/// input of 9 groups of 5, 5 and 4 values in 42), the FC head (18 pooled
/// features, 37 classes) and the gradients (`k = 32`, the batch, in
/// `dB = Aᵀ·dC`). Every other `a` holds ReLU zeros, so some steps of a
/// 6-row block are skipped and others add `±0.0` terms. `m` runs through
/// one row, one block, a block and a row, two blocks and a row, and the
/// batch; `n` through one column, the layers' widths and 70 (a 64-column
/// `zmm` tile and six single columns).
fn check_matmul(bk: SimdBackend) {
    for m in [1usize, 6, 7, 13, 32] {
        for k in [12usize, 18, 32, 42, 48] {
            for n in [1usize, 12, 37, 42, 48, 70] {
                let seed = (m * 97 + k * 13 + n) as u32;
                let a: Vec<f32> = if k == 42 {
                    let hot = data(m * 9, seed, |_| false);
                    (0..m * 9)
                        .flat_map(|g| {
                            let size = if g % 3 == 2 { 4 } else { 5 };
                            let at = ((hot[g] + 2.0) * size as f32) as usize / 4;
                            (0..size).map(move |i| if i == at { 1.0 } else { 0.0 })
                        })
                        .collect()
                } else {
                    data(m * k, seed, |_| false).iter().map(|&v| v.max(0.0)).collect()
                };
                let b = data(k * n, seed + 1, |i| i % 13 == 5);
                let mut want = vec![0.0f32; m * n];
                for (c_r, a_r) in want.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
                    gemm_row_ref(c_r, a_r, &b, k, n, fuses(bk));
                }
                let a = Tensor::from_vec(a, &[m, k]).unwrap();
                let got = a.matmul(&Tensor::from_vec(b, &[k, n]).unwrap()).unwrap();
                assert_bits(
                    got.data(),
                    &want,
                    &format!("matmul m={m} k={k} n={n} [{}]", bk.name()),
                );
            }
        }
    }
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
/// weight gradient). Each backend also runs the dense products of
/// [`check_matmul`].
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
        check_matmul(bk);
    }
    set_simd_backend(before);
}

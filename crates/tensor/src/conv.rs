//! 1-D convolution kernels shared by the forward pass and the autodiff tape.
//!
//! The InceptionTime classifier (paper Section 2.2) is built from 1-D
//! convolutions with "same" zero padding: the output sequence has the same
//! length as the input, matching the paper's `T^(i) = ∥_k T^(i-1) * F_k`
//! formulation where per-layer outputs are concatenated channel-wise.
//!
//! Layout conventions:
//! * input `x`: `[batch, in_channels, length]`
//! * weight `w`: `[out_channels, in_channels, kernel]`
//! * output `y`: `[batch, out_channels, length]`
//!
//! # Lowered kernels without unfold slabs
//!
//! Every pass is a GEMM on the register tile [`simd::gemm_tile`], whose
//! `b` rows are addressed by offset. Per sample, the input (or, for the
//! input gradient, `dy`) lives in one pooled zero-padded copy
//! `pad[c][l + k − 1]`, and the GEMM reads its unfold straight from there:
//! row `(c, j)` of the im2col matrix is `pad[c][j..j + l]`. No `[c·k, l]`
//! slab is built.
//!
//! * **Forward**: `y_b = W[cout, cin·k] · X_col`, one tile call per sample.
//!   Each output element accumulates `p = (ci, j)` ascending from `+0.0`.
//! * **Input gradient**: the input gradient of a "same" convolution is
//!   itself one: `dx_b = conv(dy_b, W')` with `W'[ci, co, j] =
//!   w[co, ci, k−1−j]` and the padding mirrored (`pr` zeros on the left
//!   instead of `pl`). It runs the forward kernel, one tile call per
//!   sample, so each `dx` element is one chain over `(co, j)` ascending
//!   from `+0.0`.
//! * **Weight gradient**: per (sample, `ci`), `dW[:, ci, :] += dY_b · H_ci`
//!   with `H_ci[t, j] = pad[ci][t + j]`, into a pooled accumulator whose
//!   rows are padded to whole tile vectors (16 columns under AVX-512, 8
//!   otherwise). Each `dw` element is one chain over `(bi, t)` ascending.
//!
//! The padding cannot move bits: a padded input position adds a `±0.0`
//! term, which leaves a chain that is never `-0.0` unchanged, and a padded
//! weight-gradient column is discarded.
//!
//! Each pass runs one kernel on every shape, and the per-element orders
//! above do not depend on the batch size, so fused and per-sample runs
//! agree bitwise under any fixed SIMD backend. The brute-force oracles
//! live in the tests (`tests/kernel_reference.rs` and the unit tests
//! below), and `tests/conv_lowering.rs` pins each pass's bits on every
//! backend against slab references.

use crate::{pool, simd, Result, Tensor, TensorError};
use simd::Tile;

/// Padding for "same"-length convolution with a kernel of size `k`:
/// `(pad_left, pad_right)`.
///
/// For odd kernels both sides get `k/2`; for even kernels the left side gets
/// one less, matching common deep-learning framework behaviour. `k` must be
/// at least 1; every convolution entry point rejects `k = 0` first.
#[inline]
pub fn same_padding(k: usize) -> (usize, usize) {
    ((k - 1) / 2, k / 2)
}

/// Validates an input shape `x: [b, cin, l]` against a weight shape
/// `w: [cout, cin, k]` and returns `(b, cin, l, cout, k)`; `op` names the
/// calling entry point in the error.
fn check_conv_dims(
    x: &[usize],
    w: &[usize],
    op: &'static str,
) -> Result<(usize, usize, usize, usize, usize)> {
    for dims in [x, w] {
        if dims.len() != 3 {
            return Err(TensorError::RankMismatch { found: dims.len(), expected: 3, op });
        }
    }
    let (b, cin, l) = (x[0], x[1], x[2]);
    let (cout, cin_w, k) = (w[0], w[1], w[2]);
    if cin != cin_w {
        return Err(TensorError::ShapeMismatch { left: x.to_vec(), right: w.to_vec(), op });
    }
    if k == 0 || l == 0 {
        return Err(TensorError::Empty { op });
    }
    Ok((b, cin, l, cout, k))
}

/// Validates a backward call: `x` and `w` must pass the forward checks and
/// the upstream gradient `dy` must have the forward output's shape
/// `[b, cout, l]`.
fn check_backward_dims(
    dy: &Tensor,
    x: &[usize],
    w: &[usize],
    op: &'static str,
) -> Result<(usize, usize, usize, usize, usize)> {
    let (b, cin, l, cout, k) = check_conv_dims(x, w, op)?;
    if dy.dims() != [b, cout, l] {
        return Err(TensorError::ShapeMismatch {
            left: dy.dims().to_vec(),
            right: vec![b, cout, l],
            op,
        });
    }
    Ok((b, cin, l, cout, k))
}

/// Copies one sample `x_b: [cin, l]` into the middle of the zero-padded rows
/// `pad[ci·lp + pl ..][..l]`. The padding around the copies is never
/// written, so it stays zero from the pooled `take_zeroed`.
fn pad_sample(pad: &mut [f32], x_b: &[f32], l: usize, lp: usize, pl: usize) {
    for (row, x_row) in pad.chunks_exact_mut(lp).zip(x_b.chunks_exact(l)) {
        row[pl..pl + l].copy_from_slice(x_row);
    }
}

// ---------------------------------------------------------------------------
// Forward
// ---------------------------------------------------------------------------

/// Forward "same" 1-D convolution (actually cross-correlation, the deep
/// learning convention): `y[b,co,t] = Σ_ci Σ_j x[b,ci,t+j-pl] · w[co,ci,j]`.
pub fn conv1d_forward(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_conv_dims(x.dims(), w.dims(), "conv1d")?;
    let _prof = lightts_obs::prof::scope("conv.lowered_fwd");
    let mut y = pool::take_zeroed(b * cout * l);
    conv1d_forward_kernel(&mut y, x.data(), w.data(), b, cin, l, cout, k, same_padding(k).0);
    Tensor::from_vec(y, &[b, cout, l])
}

/// Forward "same" 1-D convolution into a caller-provided output buffer.
///
/// `x` holds a `[batch, cin, l]` activation batch (`l` is derived from the
/// buffer length, which must divide evenly) and `y` must hold exactly
/// `batch · cout · l` elements; `y` is overwritten. This is the
/// allocation-free entry point the inference engine uses to reuse one
/// scratch buffer across requests; numerics are identical to
/// [`conv1d_forward`] (same kernel).
pub fn conv1d_forward_into(y: &mut [f32], x: &[f32], batch: usize, w: &Tensor) -> Result<()> {
    if w.rank() != 3 {
        return Err(TensorError::RankMismatch { found: w.rank(), expected: 3, op: "conv1d(w)" });
    }
    let (cout, cin, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    if batch == 0 || cin == 0 || k == 0 {
        return Err(TensorError::Empty { op: "conv1d_forward_into" });
    }
    if x.len() < batch * cin || !x.len().is_multiple_of(batch * cin) {
        return Err(TensorError::LengthMismatch { len: x.len(), expected: batch * cin });
    }
    let l = x.len() / (batch * cin);
    if y.len() != batch * cout * l {
        return Err(TensorError::LengthMismatch { len: y.len(), expected: batch * cout * l });
    }
    let _prof = lightts_obs::prof::scope("conv.lowered_fwd");
    y.fill(0.0);
    conv1d_forward_kernel(y, x, w.data(), batch, cin, l, cout, k, same_padding(k).0);
    Ok(())
}

/// The lowered forward kernel: per sample, `y_b += W[cout, cin·k] · X_col`
/// on the register tile, with row `(ci, j)` of `X_col` read in place from
/// the copy padded by `pl` zeros on the left (`pad[ci·lp + j ..]`). The
/// flattened weight tensor is the `a` operand as is. `y` must be zeroed:
/// each element's chain runs `p = (ci, j)` ascending from `+0.0`.
#[allow(clippy::too_many_arguments)]
fn conv1d_forward_kernel(
    y: &mut [f32],
    xd: &[f32],
    wd: &[f32],
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
    pl: usize,
) {
    let lp = l + k - 1;
    let ck = cin * k;
    let tile = Tile { rows: cout, k: ck, n: l, ldc: l, lda: ck, b_step: 1, b_run: k, b_jump: lp };
    let mut xpad = pool::take_zeroed(cin * lp);
    for bi in 0..b {
        pad_sample(&mut xpad, &xd[bi * cin * l..(bi + 1) * cin * l], l, lp, pl);
        simd::gemm_tile(&mut y[bi * cout * l..(bi + 1) * cout * l], wd, &xpad, &tile);
    }
    pool::recycle(xpad);
}

// ---------------------------------------------------------------------------
// Backward w.r.t. input
// ---------------------------------------------------------------------------

/// Gradient of the convolution output w.r.t. the input:
/// `dx[b,ci,s] = Σ_co Σ_j dy[b,co,s-j+pl] · w[co,ci,j]`.
///
/// With `j' = k−1−j` this is `Σ_co Σ_j' dy[b,co,s+j'-pr] · W'[ci,co,j']`
/// for `W'[ci,co,j'] = w[co,ci,k−1−j']`: a "same" convolution of `dy` with
/// the weights transposed and flipped, and the padding mirrored (`pr` zeros
/// on the left). `W'` is packed once per call, then the forward kernel runs
/// with `cin` and `cout` swapped, so each `dx` element is one chain over
/// `(co, j')` ascending from `+0.0`, independent of the batch size.
pub fn conv1d_backward_input(dy: &Tensor, w: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    let (b, cin, l, cout, k) =
        check_backward_dims(dy, input_dims, w.dims(), "conv1d_backward_input")?;
    let _prof = lightts_obs::prof::scope("conv.lowered_bwd_input");
    let mut wt = pool::take_empty(cin * cout * k);
    for ci in 0..cin {
        for co in 0..cout {
            wt.extend(w.data()[(co * cin + ci) * k..][..k].iter().rev());
        }
    }
    let mut dx = pool::take_zeroed(b * cin * l);
    conv1d_forward_kernel(&mut dx, dy.data(), &wt, b, cout, l, cin, k, same_padding(k).1);
    pool::recycle(wt);
    Tensor::from_vec(dx, &[b, cin, l])
}

// ---------------------------------------------------------------------------
// Backward w.r.t. weights
// ---------------------------------------------------------------------------

/// Gradient of the convolution output w.r.t. the weights:
/// `dw[co,ci,j] = Σ_b Σ_t dy[b,co,t] · x[b,ci,t+j-pl]`.
///
/// Per sample and input channel, `dW[:, ci, :] += dY_b[cout, l] · H_ci` on
/// the register tile, where row `t` of `H_ci` is the padded input
/// `xpad[ci][t..]` read in place. The accumulator's rows are padded to `kp`
/// columns, a multiple of the tile's vector width ([`Tile::lanes`]), so
/// each call runs whole vectors in one register block (up to 64 columns
/// under AVX-512); the extra columns read past the kernel window and are
/// dropped at the end. Per `dw` element the reduction is one chain over
/// `bi` ascending then `t` ascending — fixed and fusion-independent.
pub fn conv1d_backward_weight(dy: &Tensor, x: &Tensor, weight_dims: &[usize]) -> Result<Tensor> {
    let (b, cin, l, cout, k) =
        check_backward_dims(dy, x.dims(), weight_dims, "conv1d_backward_weight")?;
    let _prof = lightts_obs::prof::scope("conv.lowered_bwd_weight");
    let (pl, _pr) = same_padding(k);
    let lp = l + k - 1;
    let kp = k.next_multiple_of(Tile::lanes(simd::backend()));
    let tile =
        Tile { rows: cout, k: l, n: kp, ldc: cin * kp, lda: l, b_step: 1, b_run: l, b_jump: 0 };
    if cin == 0 || cout == 0 {
        // No channel to slice the per-`ci` operands from: the gradient is 0.
        return Tensor::from_vec(pool::take_zeroed(cout * cin * k), &[cout, cin, k]);
    }
    // The `kp - k` slack lets the last channel's padded columns stay in
    // bounds.
    let mut xpad = pool::take_zeroed(cin * lp + kp - k);
    let mut acc = pool::take_zeroed(cout * cin * kp);
    let (dyd, xd) = (dy.data(), x.data());
    for bi in 0..b {
        pad_sample(&mut xpad, &xd[bi * cin * l..(bi + 1) * cin * l], l, lp, pl);
        let dy_b = &dyd[bi * cout * l..(bi + 1) * cout * l];
        for ci in 0..cin {
            simd::gemm_tile(&mut acc[ci * kp..], dy_b, &xpad[ci * lp..], &tile);
        }
    }
    let mut dw = pool::take_empty(cout * cin * k);
    for row in acc.chunks_exact(kp) {
        dw.extend_from_slice(&row[..k]);
    }
    pool::recycle(acc);
    pool::recycle(xpad);
    Tensor::from_vec(dw, &[cout, cin, k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Brute-force reference convolution for validation.
    fn conv_ref(x: &Tensor, w: &Tensor) -> Tensor {
        let (b, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let (cout, _, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
        let (pl, _) = same_padding(k);
        let mut y = Tensor::zeros(&[b, cout, l]);
        for bi in 0..b {
            for co in 0..cout {
                for t in 0..l {
                    let mut acc = 0.0;
                    for ci in 0..cin {
                        for j in 0..k {
                            let s = t as isize + j as isize - pl as isize;
                            if s >= 0 && (s as usize) < l {
                                acc += x.get(&[bi, ci, s as usize]).unwrap()
                                    * w.get(&[co, ci, j]).unwrap();
                            }
                        }
                    }
                    y.set(&[bi, co, t], acc).unwrap();
                }
            }
        }
        y
    }

    #[test]
    fn same_padding_splits() {
        assert_eq!(same_padding(1), (0, 0));
        assert_eq!(same_padding(3), (1, 1));
        assert_eq!(same_padding(4), (1, 2));
        assert_eq!(same_padding(5), (2, 2));
        assert_eq!(same_padding(40), (19, 20));
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // k=1, single channel, weight 1.0 ⇒ conv is the identity.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]).unwrap();
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let y = conv1d_forward(&x, &w).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn forward_matches_reference_various_kernels() {
        let mut rng = StdRng::seed_from_u64(3);
        for &k in &[1usize, 2, 3, 5, 8] {
            let x = Tensor::randn(&mut rng, &[2, 3, 11], 1.0);
            let w = Tensor::randn(&mut rng, &[4, 3, k], 1.0);
            let fast = conv1d_forward(&x, &w).unwrap();
            let slow = conv_ref(&x, &w);
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-4, "k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn kernel_larger_than_input_is_ok() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&mut rng, &[1, 1, 3], 1.0);
        let w = Tensor::randn(&mut rng, &[2, 1, 7], 1.0);
        let fast = conv1d_forward(&x, &w).unwrap();
        let slow = conv_ref(&x, &w);
        for (a, b) in fast.data().iter().zip(slow.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&mut rng, &[1, 2, 6], 1.0);
        let w = Tensor::randn(&mut rng, &[3, 2, 3], 1.0);
        // loss = sum(conv(x, w)); dloss/dy = ones
        let dy = Tensor::ones(&[1, 3, 6]);
        let dx = conv1d_backward_input(&dy, &w, x.dims()).unwrap();
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (conv1d_forward(&xp, &w).unwrap().sum()
                - conv1d_forward(&xm, &w).unwrap().sum())
                / (2.0 * eps);
            assert!((dx.data()[i] - fd).abs() < 1e-2, "i={i}: {} vs {fd}", dx.data()[i]);
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(&mut rng, &[2, 2, 5], 1.0);
        let w = Tensor::randn(&mut rng, &[2, 2, 4], 1.0);
        let dy = Tensor::ones(&[2, 2, 5]);
        let dw = conv1d_backward_weight(&dy, &x, w.dims()).unwrap();
        let eps = 1e-3f32;
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = (conv1d_forward(&x, &wp).unwrap().sum()
                - conv1d_forward(&x, &wm).unwrap().sum())
                / (2.0 * eps);
            assert!((dw.data()[i] - fd).abs() < 1e-2, "i={i}: {} vs {fd}", dw.data()[i]);
        }
    }

    #[test]
    fn lowered_backwards_accept_zero_channels() {
        for (cin, cout) in [(0, 2), (2, 0)] {
            let (x, w) = (Tensor::ones(&[2, cin, 5]), Tensor::ones(&[cout, cin, 3]));
            let dy = Tensor::ones(&[2, cout, 5]);
            let dx = conv1d_backward_input(&dy, &w, x.dims()).unwrap();
            assert_eq!(dx, Tensor::zeros(x.dims()));
            let dw = conv1d_backward_weight(&dy, &x, w.dims()).unwrap();
            assert_eq!(dw, Tensor::zeros(w.dims()));
        }
    }

    #[test]
    fn rejects_channel_mismatch() {
        let x = Tensor::zeros(&[1, 2, 4]);
        let w = Tensor::zeros(&[1, 3, 3]);
        assert!(conv1d_forward(&x, &w).is_err());
    }

    /// Calls both backward entry points (input and weight gradient) with an
    /// upstream gradient of shape `dy` for an input of shape `x` and a
    /// weight of shape `w`, and collects the errors.
    fn backward_errors(dy: &[usize], x: &[usize], w: &[usize]) -> Vec<TensorError> {
        let (dy, xt, wt) = (Tensor::zeros(dy), Tensor::zeros(x), Tensor::zeros(w));
        vec![
            conv1d_backward_input(&dy, &wt, x).unwrap_err(),
            conv1d_backward_weight(&dy, &xt, w).unwrap_err(),
        ]
    }

    #[test]
    fn backward_rejects_rank_two_weight() {
        for e in backward_errors(&[1, 2, 4], &[1, 3, 4], &[2, 3]) {
            assert!(matches!(e, TensorError::RankMismatch { found: 2, .. }), "{e}");
        }
    }

    #[test]
    fn backward_rejects_rank_two_input() {
        for e in backward_errors(&[1, 2, 4], &[3, 4], &[2, 3, 3]) {
            assert!(matches!(e, TensorError::RankMismatch { found: 2, .. }), "{e}");
        }
    }

    #[test]
    fn backward_rejects_upstream_gradient_of_the_wrong_shape() {
        // x [1, 3, 4] and w [2, 3, 3] give y [1, 2, 4].
        for dy in [&[1, 2, 3][..], &[1, 1, 4], &[2, 2, 4], &[2, 4]] {
            for e in backward_errors(dy, &[1, 3, 4], &[2, 3, 3]) {
                assert!(matches!(e, TensorError::ShapeMismatch { .. }), "dy {dy:?}: {e}");
            }
        }
    }

    #[test]
    fn backward_rejects_channel_mismatch() {
        for e in backward_errors(&[1, 2, 4], &[1, 3, 4], &[2, 2, 3]) {
            assert!(matches!(e, TensorError::ShapeMismatch { .. }), "{e}");
        }
    }

    #[test]
    fn backward_rejects_zero_width_kernel() {
        for e in backward_errors(&[1, 2, 4], &[1, 3, 4], &[2, 3, 0]) {
            assert!(matches!(e, TensorError::Empty { .. }), "{e}");
        }
    }
}

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
//! # Two implementations, one contract
//!
//! Each pass (forward, backward-input, backward-weight) exists in two forms:
//!
//! * **Direct** — the original nested-loop kernels, kept as the test oracle
//!   and used for small shapes where lowering overhead dominates.
//! * **Lowered** — im2col/kn2row lowering onto the cache-blocked GEMM row
//!   kernel [`crate::linalg::gemm_row_into`] shared with `matmul`. Per
//!   sample, the input is unfolded into a `[cin·k, l]` patch matrix (built
//!   in a pooled slab, one contiguous copy per `(ci, j)` row) and the
//!   convolution becomes `W[cout, cin·k] @ X_col` — the flattened weight
//!   tensor *is* the packed GEMM panel, reused across the whole batch.
//!   The backward-input pass packs `Wᵀ` once per call and reuses it across
//!   the batch; backward-weight unfolds each sample as `[l, cin·k]` rows
//!   and accumulates `dy_row @ X_rowᵀ` per output channel. The win comes
//!   from turning indexed, bounds-checked inner loops into straight-line
//!   slice-zip accumulations the compiler vectorizes.
//!
//! Both forms honour the determinism contract the serving layer relies on:
//! fixed per-element reduction order, results identical across batch
//! fusions. The **forward** lowering is bitwise identical to the direct
//! kernel *under any fixed SIMD backend* (same `(ci, j)`-ascending
//! accumulation per output element, one [`crate::simd`] `mul_add_fast` per
//! term in both paths — fused on AVX2, plain mul+add on SSE2/scalar — same
//! zero-skip; padding contributes exact `±0.0` terms which cannot change
//! an accumulator that is never `-0.0`). The backward lowerings use a
//! different (but still fixed) summation association and are validated
//! against the direct oracles by property tests in `tests/conv_lowering.rs`;
//! the direct backward-weight kernel deliberately stays scalar (its inner
//! loop is a dot product, and reassociating it would change the oracle),
//! so it is bitwise identical across every backend.
//!
//! The active implementation is chosen by [`set_conv_impl`]; the default
//! [`ConvImpl::Auto`] picks per shape (batch-independently, so fused and
//! per-sample runs agree).

use crate::linalg::{gemm_panel_into, gemm_row_into};
use crate::{pool, simd, Result, Tensor, TensorError};
use std::sync::atomic::{AtomicU8, Ordering};

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

// ---------------------------------------------------------------------------
// Implementation selection
// ---------------------------------------------------------------------------

/// Which convolution kernel family the dispatching entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvImpl {
    /// Choose per shape: lowered for GEMM-sized problems, direct for tiny
    /// ones. The choice depends only on `(cin, l, cout, k)` — never on the
    /// batch size — so batched and per-sample executions of the same layer
    /// always take the same path.
    Auto,
    /// Always the direct nested-loop kernels (the oracle).
    Direct,
    /// Always the im2col/GEMM lowering.
    Lowered,
}

static CONV_IMPL: AtomicU8 = AtomicU8::new(0);

/// Below this per-sample multiply count the im2col build + pooled-slab
/// bookkeeping costs more than it saves and the direct kernels win.
const LOWERED_MIN_WORK: usize = 1 << 12;

/// Sets the process-global convolution implementation (default
/// [`ConvImpl::Auto`]).
pub fn set_conv_impl(which: ConvImpl) {
    let v = match which {
        ConvImpl::Auto => 0,
        ConvImpl::Direct => 1,
        ConvImpl::Lowered => 2,
    };
    CONV_IMPL.store(v, Ordering::Relaxed);
}

/// The currently selected convolution implementation.
pub fn conv_impl() -> ConvImpl {
    match CONV_IMPL.load(Ordering::Relaxed) {
        1 => ConvImpl::Direct,
        2 => ConvImpl::Lowered,
        _ => ConvImpl::Auto,
    }
}

/// Resolves [`ConvImpl::Auto`] for a concrete (batch-independent) shape.
#[inline]
fn use_lowered(cin: usize, l: usize, cout: usize, k: usize) -> bool {
    match conv_impl() {
        ConvImpl::Direct => false,
        ConvImpl::Lowered => true,
        ConvImpl::Auto => cin * k * l * cout >= LOWERED_MIN_WORK,
    }
}

fn check_conv_shapes(x: &Tensor, w: &Tensor) -> Result<(usize, usize, usize, usize, usize)> {
    check_conv_dims(x.dims(), w.dims(), "conv1d")
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

// ---------------------------------------------------------------------------
// im2col / im2row unfolding
// ---------------------------------------------------------------------------

/// Unfolds one sample `x_b: [cin, l]` into `xcol: [cin·k, l]` where row
/// `p = ci·k + j` holds `x[ci, t + j - pl]` for `t in 0..l` (zero outside
/// the valid range). Each row is one edge-zeroed contiguous copy.
fn im2col(xcol: &mut [f32], x_b: &[f32], cin: usize, l: usize, k: usize, pl: usize) {
    for ci in 0..cin {
        let x_row = &x_b[ci * l..(ci + 1) * l];
        for j in 0..k {
            let dst = &mut xcol[(ci * k + j) * l..(ci * k + j + 1) * l];
            // t + j - pl in [0, l) ⇒ t in [pl - j, l + pl - j); when k > l
            // a row can be entirely padding, hence the extra clamp to l.
            let t_lo = pl.saturating_sub(j).min(l);
            let t_hi = (l + pl).saturating_sub(j).min(l);
            dst[..t_lo].fill(0.0);
            dst[t_hi..].fill(0.0);
            if t_lo < t_hi {
                dst[t_lo..t_hi].copy_from_slice(&x_row[t_lo + j - pl..t_hi + j - pl]);
            }
        }
    }
}

/// Unfolds one sample `x_b: [cin, l]` into `xrow: [l, cin·k]` where row `t`,
/// column `p = ci·k + j` holds `x[ci, t + j - pl]` (zero outside the valid
/// range) — the transpose of [`im2col`], laid out so backward-weight can
/// reduce over `t` with [`gemm_row_into`].
fn im2row(xrow: &mut [f32], x_b: &[f32], cin: usize, l: usize, k: usize, pl: usize) {
    let ck = cin * k;
    for t in 0..l {
        let dst_t = &mut xrow[t * ck..(t + 1) * ck];
        for ci in 0..cin {
            let x_row = &x_b[ci * l..(ci + 1) * l];
            let dst = &mut dst_t[ci * k..(ci + 1) * k];
            // t + j - pl in [0, l) ⇒ j in [pl - t, l + pl - t); pl < k so
            // the lower clamp never exceeds k.
            let j_lo = pl.saturating_sub(t);
            let j_hi = (l + pl - t).min(k);
            dst[..j_lo].fill(0.0);
            dst[j_hi..].fill(0.0);
            if j_lo < j_hi {
                dst[j_lo..j_hi].copy_from_slice(&x_row[t + j_lo - pl..t + j_hi - pl]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward
// ---------------------------------------------------------------------------

/// Forward "same" 1-D convolution (actually cross-correlation, the deep
/// learning convention): `y[b,co,t] = Σ_ci Σ_j x[b,ci,t+j-pl] · w[co,ci,j]`.
///
/// Dispatches between the direct and lowered kernels per [`conv_impl`]; the
/// two are bitwise identical for the forward pass, so the choice is purely
/// a performance matter.
pub fn conv1d_forward(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_conv_shapes(x, w)?;
    let mut y = pool::take_zeroed(b * cout * l);
    conv1d_forward_dispatch(&mut y, x.data(), w.data(), b, cin, l, cout, k);
    Tensor::from_vec(y, &[b, cout, l])
}

/// Forward "same" 1-D convolution into a caller-provided output buffer.
///
/// `x` holds a `[batch, cin, l]` activation batch (`l` is derived from the
/// buffer length, which must divide evenly) and `y` must hold exactly
/// `batch · cout · l` elements; `y` is overwritten. This is the
/// allocation-free entry point the inference engine uses to reuse one
/// scratch buffer across requests; numerics are identical to
/// [`conv1d_forward`] (same dispatch, same kernels).
pub fn conv1d_forward_into(y: &mut [f32], x: &[f32], batch: usize, w: &Tensor) -> Result<()> {
    if w.rank() != 3 {
        return Err(TensorError::RankMismatch { found: w.rank(), expected: 3, op: "conv1d(w)" });
    }
    let (cout, cin, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    if batch == 0 || cin == 0 || k == 0 {
        return Err(TensorError::Empty { op: "conv1d_forward_into" });
    }
    if x.len() < batch * cin || x.len() % (batch * cin) != 0 {
        return Err(TensorError::LengthMismatch { len: x.len(), expected: batch * cin });
    }
    let l = x.len() / (batch * cin);
    if y.len() != batch * cout * l {
        return Err(TensorError::LengthMismatch { len: y.len(), expected: batch * cout * l });
    }
    conv1d_forward_dispatch(y, x, w.data(), batch, cin, l, cout, k);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn conv1d_forward_dispatch(
    y: &mut [f32],
    xd: &[f32],
    wd: &[f32],
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) {
    if use_lowered(cin, l, cout, k) {
        conv1d_forward_lowered_kernel(y, xd, wd, b, cin, l, cout, k);
    } else {
        conv1d_forward_direct_kernel(y, xd, wd, b, cin, l, cout, k);
    }
}

/// Forward convolution forced through the direct nested-loop oracle.
pub fn conv1d_forward_direct(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_conv_shapes(x, w)?;
    let mut y = pool::take_zeroed(b * cout * l);
    conv1d_forward_direct_kernel(&mut y, x.data(), w.data(), b, cin, l, cout, k);
    Tensor::from_vec(y, &[b, cout, l])
}

/// Forward convolution forced through the im2col/GEMM lowering.
pub fn conv1d_forward_lowered(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_conv_shapes(x, w)?;
    let mut y = pool::take_zeroed(b * cout * l);
    conv1d_forward_lowered_kernel(&mut y, x.data(), w.data(), b, cin, l, cout, k);
    Tensor::from_vec(y, &[b, cout, l])
}

/// The direct "same"-padded forward kernel (test oracle). Rows of `y` (the
/// `(batch, out_channel)` grid) are filled one after another; each row is
/// zeroed before accumulation so the buffer may be reused across calls.
#[allow(clippy::too_many_arguments)]
fn conv1d_forward_direct_kernel(
    y: &mut [f32],
    xd: &[f32],
    wd: &[f32],
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) {
    let _prof = lightts_obs::prof::scope("conv.direct_fwd");
    let (pl, _pr) = same_padding(k);
    for (row, y_row) in y[..b * cout * l].chunks_exact_mut(l).enumerate() {
        let (bi, co) = (row / cout, row % cout);
        y_row.fill(0.0);
        for ci in 0..cin {
            let x_off = (bi * cin + ci) * l;
            let w_off = (co * cin + ci) * k;
            for j in 0..k {
                let wv = wd[w_off + j];
                if wv == 0.0 {
                    continue;
                }
                // t + j - pl in [0, l) ⇒ t in [pl - j, l + pl - j)
                let t_lo = pl.saturating_sub(j);
                let t_hi = (l + pl).saturating_sub(j).min(l);
                if t_lo >= t_hi {
                    continue;
                }
                // Shifted axpy through simd::axpy_madd: the same
                // mul_add_fast per element as the lowered GEMM panel, so
                // direct and lowered forward stay bitwise equal under
                // every backend (fused on AVX2, plain mul+add otherwise).
                let src = x_off + t_lo + j - pl;
                simd::axpy_madd(&mut y_row[t_lo..t_hi], &xd[src..src + (t_hi - t_lo)], wv);
            }
        }
    }
}

/// The lowered forward kernel: per sample, `y_b = W[cout, cin·k] @ X_col`.
///
/// The flattened weight tensor already is the `[cout, cin·k]` GEMM panel
/// (row-major `[cout, cin, k]` has exactly that memory layout), so it is
/// reused untouched across the whole batch; only the `X_col` unfold (one
/// pooled slab, rebuilt per sample) moves data. Accumulation per output
/// element runs `p = ci·k + j` ascending — the identical order and zero-skip
/// as the direct kernel — which makes this path bitwise equal to the oracle.
#[allow(clippy::too_many_arguments)]
fn conv1d_forward_lowered_kernel(
    y: &mut [f32],
    xd: &[f32],
    wd: &[f32],
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) {
    let _prof = lightts_obs::prof::scope("conv.lowered_fwd");
    let (pl, _pr) = same_padding(k);
    let ck = cin * k;
    let mut xcol = pool::take_zeroed(ck * l);
    for bi in 0..b {
        im2col(&mut xcol, &xd[bi * cin * l..(bi + 1) * cin * l], cin, l, k, pl);
        let y_b = &mut y[bi * cout * l..(bi + 1) * cout * l];
        // Panel blocking: the register-blocked GEMM streams each X_col row
        // once per 4 output channels instead of once per channel, which is
        // where the lowering's speedup over the (already contiguous) direct
        // kernel comes from. `gemm_panel_into` keeps the per-element
        // accumulation order of `gemm_row_into`, so the bitwise contract
        // holds.
        y_b.fill(0.0);
        gemm_panel_into(y_b, &wd[..cout * ck], &xcol, cout, ck, l);
    }
    pool::recycle(xcol);
}

// ---------------------------------------------------------------------------
// Backward w.r.t. input
// ---------------------------------------------------------------------------

fn check_backward_input(
    dy: &Tensor,
    w: &Tensor,
    input_dims: &[usize],
) -> Result<(usize, usize, usize, usize, usize)> {
    check_backward_dims(dy, input_dims, w.dims(), "conv1d_backward_input")
}

/// Gradient of the convolution output w.r.t. the input:
/// `dx[b,ci,s] = Σ_co Σ_j dy[b,co,s-j+pl] · w[co,ci,j]`.
///
/// Dispatches between the direct and lowered kernels per [`conv_impl`].
/// Each kernel has a fixed reduction order independent of batch fusion; the
/// two orders differ in association, so gradients from the two paths agree
/// to rounding (not bitwise) — the dispatch heuristic is
/// shape-deterministic, so any given layer always takes the same path.
pub fn conv1d_backward_input(dy: &Tensor, w: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_backward_input(dy, w, input_dims)?;
    if use_lowered(cin, l, cout, k) {
        conv1d_backward_input_lowered_kernel(dy, w, b, cin, l, cout, k)
    } else {
        conv1d_backward_input_direct_kernel(dy, w, b, cin, l, cout, k)
    }
}

/// Input gradient forced through the direct nested-loop oracle.
pub fn conv1d_backward_input_direct(
    dy: &Tensor,
    w: &Tensor,
    input_dims: &[usize],
) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_backward_input(dy, w, input_dims)?;
    conv1d_backward_input_direct_kernel(dy, w, b, cin, l, cout, k)
}

/// Input gradient forced through the kn2row/GEMM lowering.
pub fn conv1d_backward_input_lowered(
    dy: &Tensor,
    w: &Tensor,
    input_dims: &[usize],
) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_backward_input(dy, w, input_dims)?;
    conv1d_backward_input_lowered_kernel(dy, w, b, cin, l, cout, k)
}

fn conv1d_backward_input_direct_kernel(
    dy: &Tensor,
    w: &Tensor,
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) -> Result<Tensor> {
    let (pl, _pr) = same_padding(k);
    let dyd = dy.data();
    let wd = w.data();
    let mut dx = pool::take_zeroed(b * cin * l);
    // Each (batch, in_channel) row of dx accumulates in co → j → t order.
    for (row, dx_row) in dx.chunks_exact_mut(l).enumerate() {
        let (bi, ci) = (row / cin, row % cin);
        for co in 0..cout {
            let dy_off = (bi * cout + co) * l;
            let w_off = (co * cin + ci) * k;
            for j in 0..k {
                let wv = wd[w_off + j];
                if wv == 0.0 {
                    continue;
                }
                // s = t + j - pl with t in [0,l) ⇒ s in [j-pl, l+j-pl)
                let t_lo = pl.saturating_sub(j);
                let t_hi = (l + pl).saturating_sub(j).min(l);
                if t_lo >= t_hi {
                    continue;
                }
                // Same vectorized shifted axpy as the forward kernel;
                // per-element co → j order is unchanged.
                let dst = t_lo + j - pl;
                simd::axpy_madd(
                    &mut dx_row[dst..dst + (t_hi - t_lo)],
                    &dyd[dy_off + t_lo..dy_off + t_hi],
                    wv,
                );
            }
        }
    }
    Tensor::from_vec(dx, &[b, cin, l])
}

/// The lowered input-gradient kernel: pack `Wᵀ: [cin·k, cout]` once, then
/// per sample compute `G = Wᵀ @ dy_b` (a `[cin·k, l]` GEMM through the
/// shared row kernel) and fold `G` back onto `dx_b` with a col2im scatter
/// (per `(ci)` row, `j`-ascending shifted adds). Reduction order per `dx`
/// element is fixed — `co` summed inside the GEMM, then `j` ascending — and
/// independent of the batch size.
fn conv1d_backward_input_lowered_kernel(
    dy: &Tensor,
    w: &Tensor,
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) -> Result<Tensor> {
    let _prof = lightts_obs::prof::scope("conv.lowered_bwd_input");
    let (pl, _pr) = same_padding(k);
    let dyd = dy.data();
    let wd = w.data();
    let ck = cin * k;
    // The packed weight panel: wt[p·cout + co] = w[co, p], built once and
    // reused across the batch.
    let mut wt = pool::take_zeroed(ck * cout);
    for co in 0..cout {
        for (p, &wv) in wd[co * ck..(co + 1) * ck].iter().enumerate() {
            wt[p * cout + co] = wv;
        }
    }
    let mut g = pool::take_zeroed(ck * l);
    let mut dx = pool::take_zeroed(b * cin * l);
    for bi in 0..b {
        let dy_b = &dyd[bi * cout * l..(bi + 1) * cout * l];
        // Panel blocking over the [cin·k, l] gradient image: each dy_b row is
        // streamed once per 4 G rows (same blocking as the forward pass);
        // per-element accumulation order is unchanged.
        g.fill(0.0);
        gemm_panel_into(&mut g, &wt, dy_b, ck, cout, l);
        let dx_b = &mut dx[bi * cin * l..(bi + 1) * cin * l];
        for (ci, dx_row) in dx_b.chunks_exact_mut(l).enumerate() {
            for j in 0..k {
                let g_row = &g[(ci * k + j) * l..(ci * k + j + 1) * l];
                let t_lo = pl.saturating_sub(j).min(l);
                let t_hi = (l + pl).saturating_sub(j).min(l);
                if t_lo >= t_hi {
                    continue;
                }
                // Pure additions (exact single-rounding op): vectorized,
                // bitwise invariant across backends.
                simd::add_assign(&mut dx_row[t_lo + j - pl..t_hi + j - pl], &g_row[t_lo..t_hi]);
            }
        }
    }
    pool::recycle(g);
    pool::recycle(wt);
    Tensor::from_vec(dx, &[b, cin, l])
}

// ---------------------------------------------------------------------------
// Backward w.r.t. weights
// ---------------------------------------------------------------------------

fn check_backward_weight(
    dy: &Tensor,
    x: &Tensor,
    weight_dims: &[usize],
) -> Result<(usize, usize, usize, usize, usize)> {
    check_backward_dims(dy, x.dims(), weight_dims, "conv1d_backward_weight")
}

/// Gradient of the convolution output w.r.t. the weights:
/// `dw[co,ci,j] = Σ_b Σ_t dy[b,co,t] · x[b,ci,t+j-pl]`.
///
/// Dispatches between the direct and lowered kernels per [`conv_impl`];
/// see [`conv1d_backward_input`] for the determinism discussion.
pub fn conv1d_backward_weight(dy: &Tensor, x: &Tensor, weight_dims: &[usize]) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_backward_weight(dy, x, weight_dims)?;
    if use_lowered(cin, l, cout, k) {
        conv1d_backward_weight_lowered_kernel(dy, x, b, cin, l, cout, k)
    } else {
        conv1d_backward_weight_direct_kernel(dy, x, b, cin, l, cout, k)
    }
}

/// Weight gradient forced through the direct nested-loop oracle.
pub fn conv1d_backward_weight_direct(
    dy: &Tensor,
    x: &Tensor,
    weight_dims: &[usize],
) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_backward_weight(dy, x, weight_dims)?;
    conv1d_backward_weight_direct_kernel(dy, x, b, cin, l, cout, k)
}

/// Weight gradient forced through the im2row/GEMM lowering.
pub fn conv1d_backward_weight_lowered(
    dy: &Tensor,
    x: &Tensor,
    weight_dims: &[usize],
) -> Result<Tensor> {
    let (b, cin, l, cout, k) = check_backward_weight(dy, x, weight_dims)?;
    conv1d_backward_weight_lowered_kernel(dy, x, b, cin, l, cout, k)
}

fn conv1d_backward_weight_direct_kernel(
    dy: &Tensor,
    x: &Tensor,
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) -> Result<Tensor> {
    let (pl, _pr) = same_padding(k);
    let dyd = dy.data();
    let xd = x.data();
    let mut dw = pool::take_zeroed(cout * cin * k);
    // Each dw[co,ci,j] accumulates one per-batch t-sum per bi, in ascending
    // bi order.
    for (row, dw_row) in dw.chunks_exact_mut(k).enumerate() {
        let (co, ci) = (row / cin, row % cin);
        for bi in 0..b {
            let dy_off = (bi * cout + co) * l;
            let x_off = (bi * cin + ci) * l;
            for (j, dwj) in dw_row.iter_mut().enumerate() {
                let t_lo = pl.saturating_sub(j);
                let t_hi = (l + pl).saturating_sub(j).min(l);
                let mut acc = 0.0f32;
                for t in t_lo..t_hi {
                    acc += dyd[dy_off + t] * xd[x_off + t + j - pl];
                }
                *dwj += acc;
            }
        }
    }
    Tensor::from_vec(dw, &[cout, cin, k])
}

/// The lowered weight-gradient kernel: per sample, unfold `x_b` as
/// `X_row: [l, cin·k]` and accumulate `dw[co, :] += dy[b, co, :] @ X_row`
/// through the shared GEMM row kernel. Per `dw` element the reduction runs
/// `bi` ascending then `t` ascending — fixed and fusion-independent.
fn conv1d_backward_weight_lowered_kernel(
    dy: &Tensor,
    x: &Tensor,
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
) -> Result<Tensor> {
    let _prof = lightts_obs::prof::scope("conv.lowered_bwd_weight");
    let (pl, _pr) = same_padding(k);
    let dyd = dy.data();
    let xd = x.data();
    let ck = cin * k;
    let mut xrow = pool::take_zeroed(l * ck);
    let mut dw = pool::take_zeroed(cout * ck);
    for bi in 0..b {
        im2row(&mut xrow, &xd[bi * cin * l..(bi + 1) * cin * l], cin, l, k, pl);
        for co in 0..cout {
            let dy_row = &dyd[(bi * cout + co) * l..(bi * cout + co + 1) * l];
            gemm_row_into(&mut dw[co * ck..(co + 1) * ck], dy_row, &xrow, l, ck);
        }
    }
    pool::recycle(xrow);
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
    fn lowered_forward_is_bitwise_equal_to_direct() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(b, cin, l, cout, k) in
            &[(2usize, 3usize, 11usize, 4usize, 5usize), (1, 1, 3, 2, 7), (3, 2, 16, 5, 4)]
        {
            let x = Tensor::randn(&mut rng, &[b, cin, l], 1.0);
            let w = Tensor::randn(&mut rng, &[cout, cin, k], 1.0);
            let direct = conv1d_forward_direct(&x, &w).unwrap();
            let lowered = conv1d_forward_lowered(&x, &w).unwrap();
            for (a, b) in direct.data().iter().zip(lowered.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "direct {a} vs lowered {b}");
            }
        }
    }

    #[test]
    fn lowered_backwards_match_direct_to_rounding() {
        let mut rng = StdRng::seed_from_u64(19);
        let x = Tensor::randn(&mut rng, &[2, 3, 13], 1.0);
        let w = Tensor::randn(&mut rng, &[4, 3, 5], 1.0);
        let dy = Tensor::randn(&mut rng, &[2, 4, 13], 1.0);
        let dx_d = conv1d_backward_input_direct(&dy, &w, x.dims()).unwrap();
        let dx_l = conv1d_backward_input_lowered(&dy, &w, x.dims()).unwrap();
        for (a, b) in dx_d.data().iter().zip(dx_l.data().iter()) {
            assert!((a - b).abs() < 1e-4, "dx: {a} vs {b}");
        }
        let dw_d = conv1d_backward_weight_direct(&dy, &x, w.dims()).unwrap();
        let dw_l = conv1d_backward_weight_lowered(&dy, &x, w.dims()).unwrap();
        for (a, b) in dw_d.data().iter().zip(dw_l.data().iter()) {
            assert!((a - b).abs() < 1e-3, "dw: {a} vs {b}");
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
        // The lowering must handle k > l (fully clipped copies) too.
        let lowered = conv1d_forward_lowered(&x, &w).unwrap();
        for (a, b) in lowered.data().iter().zip(slow.data().iter()) {
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
    fn rejects_channel_mismatch() {
        let x = Tensor::zeros(&[1, 2, 4]);
        let w = Tensor::zeros(&[1, 3, 3]);
        assert!(conv1d_forward(&x, &w).is_err());
    }

    type Backward = fn(&Tensor, &Tensor, &[usize]) -> Result<Tensor>;

    /// Calls every backward entry point (dispatching, direct, lowered; input
    /// and weight gradient) with an upstream gradient of shape `dy` for an
    /// input of shape `x` and a weight of shape `w`, and collects the errors.
    fn backward_errors(dy: &[usize], x: &[usize], w: &[usize]) -> Vec<TensorError> {
        let (dy, xt, wt) = (Tensor::zeros(dy), Tensor::zeros(x), Tensor::zeros(w));
        let input: [Backward; 3] =
            [conv1d_backward_input, conv1d_backward_input_direct, conv1d_backward_input_lowered];
        let weight: [Backward; 3] =
            [conv1d_backward_weight, conv1d_backward_weight_direct, conv1d_backward_weight_lowered];
        let mut errs: Vec<TensorError> =
            input.iter().map(|f| f(&dy, &wt, x).unwrap_err()).collect();
        errs.extend(weight.iter().map(|f| f(&dy, &xt, w).unwrap_err()));
        errs
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

    #[test]
    fn conv_impl_selector_roundtrips() {
        assert_eq!(conv_impl(), ConvImpl::Auto);
        set_conv_impl(ConvImpl::Direct);
        assert_eq!(conv_impl(), ConvImpl::Direct);
        set_conv_impl(ConvImpl::Lowered);
        assert_eq!(conv_impl(), ConvImpl::Lowered);
        set_conv_impl(ConvImpl::Auto);
        assert_eq!(conv_impl(), ConvImpl::Auto);
    }
}
